// Regression tests for the receive-side lost-wakeup window: a reader
// blocked in Session::recv with no usable data socket must be woken
// immediately by attach_stream / close_stream, not sleep out its full
// 100 ms poll slice. The fix is the rx-epoch protocol: every rx event
// bumps rx_epoch_ under buf_mu_ before notifying rx_cv_, and waiters
// snapshot the epoch before probing the state that made them wait.
// The controller-level cases check the same wakeups end to end, through
// the control channel and the sharded session table.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "core/test_realm.hpp"
#include "net/sim.hpp"

namespace naplet::nsock {
namespace {

using namespace std::chrono_literals;

util::ByteSpan span(const std::string& s) {
  return util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                        s.size());
}

/// Like session_test's SessionPair, but the reader side's stream is left
/// detached so recv() parks in the event-driven wait.
struct DetachedPair {
  net::SimNet net;
  SessionPtr reader;   // no stream attached yet
  SessionPtr writer;   // stream attached
  std::shared_ptr<net::Stream> reader_stream;  // attach later

  DetachedPair() {
    auto node_a = net.add_node("a");
    auto node_b = net.add_node("b");
    auto listener = node_b->listen(1);
    EXPECT_TRUE(listener.ok());
    auto client = node_a->connect(net::Endpoint{"b", 1}, 1s);
    EXPECT_TRUE(client.ok());
    auto server = (*listener)->accept(1s);
    EXPECT_TRUE(server.ok());

    reader = std::make_shared<Session>(1, 2, true, agent::AgentId("low"),
                                       agent::AgentId("high"));
    writer = std::make_shared<Session>(1, 2, false, agent::AgentId("high"),
                                       agent::AgentId("low"));
    reader_stream = std::shared_ptr<net::Stream>(std::move(*client));
    writer->attach_stream(std::shared_ptr<net::Stream>(std::move(*server)));

    EXPECT_TRUE(reader->advance(ConnEvent::kAppConnect).ok());
    EXPECT_TRUE(reader->advance(ConnEvent::kRecvConnectAck).ok());
    EXPECT_TRUE(writer->advance(ConnEvent::kAppListen).ok());
    EXPECT_TRUE(writer->advance(ConnEvent::kRecvConnect).ok());
    EXPECT_TRUE(writer->advance(ConnEvent::kRecvAttach).ok());
  }
};

TEST(RxWakeup, AttachStreamWakesBlockedReader) {
  DetachedPair pair;
  // Data is already in flight before the reader's stream exists.
  ASSERT_TRUE(pair.writer->send(span("hello"), 1s).ok());

  std::atomic<std::int64_t> recv_done_us{0};
  std::atomic<bool> got_frame{false};
  std::thread t([&] {
    auto r = pair.reader->recv(3s);
    recv_done_us.store(util::RealClock::instance().now_us());
    if (r.ok()) got_frame.store(r->body.size() == 5);
  });

  // Let the reader settle into wait_rx_event (no stream: pump fails fast,
  // so it is either waiting or between snapshot and wait — both windows
  // the epoch protocol must cover).
  std::this_thread::sleep_for(320ms);
  const std::int64_t attach_us = util::RealClock::instance().now_us();
  pair.reader->attach_stream(pair.reader_stream);
  t.join();

  EXPECT_TRUE(got_frame.load());
  // Without the attach-side wakeup the reader sleeps out the remainder of
  // its 100 ms slice; with it, it wakes within a few ms.
  EXPECT_LT(recv_done_us.load() - attach_us, 80'000)
      << "reader slept through the attach_stream event";
  EXPECT_GE(pair.reader->data_stats().recv_wakeups, 1u)
      << "the attach wakeup was not delivered through rx_cv_";
}

TEST(RxWakeup, CloseStreamWakesBlockedReaderIntoAbort) {
  DetachedPair pair;

  std::atomic<std::int64_t> recv_done_us{0};
  std::atomic<bool> aborted{false};
  std::thread t([&] {
    auto r = pair.reader->recv(3s);
    recv_done_us.store(util::RealClock::instance().now_us());
    if (!r.ok()) aborted.store(r.status().code() == util::StatusCode::kAborted);
  });

  std::this_thread::sleep_for(320ms);
  // Abort-style teardown: state first, then the stream event that carries
  // the wakeup (the controller's abort_session does the same dance).
  ASSERT_TRUE(pair.reader->advance(ConnEvent::kAppClose).ok());
  ASSERT_TRUE(pair.reader->advance(ConnEvent::kTimeout).ok());
  const std::int64_t close_us = util::RealClock::instance().now_us();
  pair.reader->close_stream();
  t.join();

  EXPECT_TRUE(aborted.load());
  EXPECT_LT(recv_done_us.load() - close_us, 80'000)
      << "reader slept through the close_stream event";
}

// ---- through the controller: control channel + sharded session table ----

TEST(RxWakeup, BlockedRecvWokenByDelivery) {
  // A receiver already parked inside recv() must be woken by the data
  // arriving over a controller-established connection.
  testing::SimRealm realm(2, /*security=*/false);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  auto conn = testing::make_connection(realm, alice, 0, bob, 1);
  ASSERT_NE(conn.client, nullptr);
  ASSERT_NE(conn.server, nullptr);

  util::Event receiver_parked;
  util::StatusOr<RecvResult> got = util::Cancelled("not run");
  std::thread receiver([&] {
    receiver_parked.set();
    got = conn.server->recv(5s);
  });
  ASSERT_TRUE(receiver_parked.wait_for(2s));
  util::RealClock::instance().sleep_for(50ms);  // ensure recv() is parked
  ASSERT_TRUE(conn.client->send(span("wake up"), 2s).ok());
  receiver.join();
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(testing::text(got->body), "wake up");
}

TEST(RxWakeup, CrossShardWakeups) {
  // Several connections hash into different shards of one controller; a
  // single burst of deliveries must wake every blocked receiver, however
  // the sessions are spread across shard locks.
  testing::SimRealm realm(2, /*security=*/false);
  auto bob = realm.pseudo_agent("bob", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(bob).ok());

  constexpr int kConns = 24;
  std::vector<SessionPtr> clients, servers;
  for (int i = 0; i < kConns; ++i) {
    auto cli = realm.pseudo_agent("cli" + std::to_string(i), 0);
    auto c = realm.ctrl(0).connect(cli, bob);
    ASSERT_TRUE(c.ok()) << c.status().to_string();
    auto s = realm.ctrl(1).accept(bob, 5s);
    ASSERT_TRUE(s.ok()) << s.status().to_string();
    clients.push_back(*c);
    servers.push_back(*s);
  }
  // The table must actually be sharded (occupancy visible per shard).
  const auto shard_sizes = realm.ctrl(0).stats().shard_sessions;
  ASSERT_FALSE(shard_sizes.empty());
  std::size_t occupied = 0, total = 0;
  for (std::size_t s : shard_sizes) {
    occupied += (s > 0) ? 1 : 0;
    total += s;
  }
  EXPECT_GT(occupied, 1u);  // 24 random conn ids: >1 shard occupied
  EXPECT_EQ(total, realm.ctrl(0).session_count());

  std::atomic<int> received{0};
  std::vector<std::thread> receivers;
  receivers.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    receivers.emplace_back([&, i] {
      auto got = servers[static_cast<std::size_t>(i)]->recv(5s);
      if (got.ok() && testing::text(got->body) == "burst") {
        received.fetch_add(1);
      }
    });
  }
  util::RealClock::instance().sleep_for(50ms);  // park all receivers
  for (int i = 0; i < kConns; ++i) {
    ASSERT_TRUE(clients[static_cast<std::size_t>(i)]->send(span("burst"), 2s)
                    .ok());
  }
  for (auto& t : receivers) t.join();
  EXPECT_EQ(received.load(), kConns);
}

}  // namespace
}  // namespace naplet::nsock
