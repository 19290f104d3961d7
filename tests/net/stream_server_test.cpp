// StreamServer: the leader/followers accept-and-serve pool behind the
// redirector and the directory server.
#include "net/stream_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/sim.hpp"
#include "util/clock.hpp"
#include "util/sync.hpp"

namespace naplet::net {
namespace {

using namespace std::chrono_literals;

std::int64_t now_ms() { return util::RealClock::instance().now_us() / 1000; }

/// A StreamServer on node "server" whose handler echoes the first frame
/// back, after running `before_reply` on it.
struct EchoServer {
  SimNet world;
  std::shared_ptr<SimNode> server_node = world.add_node("server");
  std::shared_ptr<SimNode> client_node = world.add_node("client");
  std::function<void(const util::Bytes&)> before_reply = [](const auto&) {};
  std::atomic<int> served{0};
  std::atomic<int> failed{0};
  StreamServer server{[this](std::shared_ptr<Stream> stream,
                             util::StatusOr<util::Bytes> frame) {
    if (!frame.ok()) {
      failed.fetch_add(1);
      stream->close();
      return;
    }
    before_reply(*frame);
    served.fetch_add(1);
    (void)write_frame(*stream, util::ByteSpan(frame->data(), frame->size()));
    stream->close();
  }};

  EchoServer() {
    auto listener = server_node->listen(0);
    EXPECT_TRUE(listener.ok());
    server.start(std::move(*listener));
  }

  StreamPtr connect() {
    auto stream = client_node->connect(server.endpoint(), 2s);
    EXPECT_TRUE(stream.ok()) << stream.status().to_string();
    return stream.ok() ? std::move(*stream) : nullptr;
  }

  /// One request/reply exchange; true when the echo came back intact.
  bool exchange(std::uint8_t tag) {
    StreamPtr stream = connect();
    if (!stream) return false;
    const util::Bytes payload = {tag, 1, 2, 3};
    if (!write_frame(*stream, util::ByteSpan(payload.data(), payload.size()))
             .ok()) {
      return false;
    }
    auto reply = read_frame(*stream);
    return reply.ok() && *reply == payload;
  }
};

TEST(StreamServer, SequentialHandoffsReuseTwoThreads) {
  EchoServer s;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(s.exchange(static_cast<std::uint8_t>(i))) << "exchange " << i;
    // Sequential: the next stream arrives after this handler has returned
    // and its worker is idle again. (The client has its reply before that;
    // a stream arriving in between may find no idle worker and rightly
    // start one.)
    const std::int64_t deadline = now_ms() + 2000;
    while (s.server.idle_workers() != 1 && now_ms() < deadline) {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(s.served.load(), 1000);
  // The first worker accepts, starts one follower and serves; from then
  // on the two trade the accept role.
  EXPECT_LE(s.server.threads_started(), 2u);
}

TEST(StreamServer, BlockedHandlerDoesNotDelayTheNextStream) {
  EchoServer s;
  util::Event blocked;
  s.before_reply = [&blocked](const util::Bytes& frame) {
    if (frame[0] == 0xB0) {
      blocked.set();
      std::this_thread::sleep_for(250ms);
    }
  };
  auto slow = std::async(std::launch::async, [&s] { return s.exchange(0xB0); });
  ASSERT_TRUE(blocked.wait_for(2s));
  const std::int64_t t0 = now_ms();
  EXPECT_TRUE(s.exchange(0x01));
  EXPECT_LT(now_ms() - t0, 50) << "second stream waited for the blocked one";
  EXPECT_TRUE(slow.get());
}

TEST(StreamServer, ConcurrentStreamsAllServedThenIdleWorkersShrink) {
  constexpr int kStreams = 64;
  EchoServer s;
  // Every handler waits until all 64 are in flight at once.
  std::atomic<int> arrived{0};
  util::Event all_in;
  s.before_reply = [&](const util::Bytes&) {
    if (arrived.fetch_add(1) + 1 == kStreams) all_in.set();
    (void)all_in.wait_for(5s);
  };
  std::vector<std::future<bool>> clients;
  for (int i = 0; i < kStreams; ++i) {
    clients.push_back(std::async(std::launch::async, [&s, i] {
      return s.exchange(static_cast<std::uint8_t>(i));
    }));
  }
  for (auto& c : clients) EXPECT_TRUE(c.get());
  EXPECT_EQ(s.served.load(), kStreams);
  EXPECT_GE(s.server.workers(), static_cast<std::size_t>(kStreams));

  // Followers beyond one leave after kIdleExit, even while a trickle of
  // streams keeps calling the newest: the leader and one follower remain.
  s.before_reply = [](const util::Bytes&) {};
  const std::int64_t deadline =
      now_ms() + 3 * std::chrono::duration_cast<std::chrono::milliseconds>(
                         StreamServer::kIdleExit)
                         .count();
  while (s.server.workers() > 2 && now_ms() < deadline) {
    EXPECT_TRUE(s.exchange(0x7E));
    std::this_thread::sleep_for(5ms);
  }
  while (s.server.idle_workers() != 1 && now_ms() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(s.server.workers(), 2u);
  EXPECT_EQ(s.server.idle_workers(), 1u);

  // The shrunken pool still serves, reusing the survivors.
  const std::uint64_t started = s.server.threads_started();
  EXPECT_TRUE(s.exchange(0x7F));
  EXPECT_EQ(s.server.threads_started(), started);
}

TEST(StreamServer, SilentClientTimesOutAndFreesItsWorker) {
  EchoServer s;
  StreamPtr silent = s.connect();
  ASSERT_TRUE(silent);
  const std::int64_t t0 = now_ms();
  while (s.failed.load() == 0 && now_ms() - t0 < 5000) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(s.failed.load(), 1);
  EXPECT_GE(now_ms() - t0,
            std::chrono::duration_cast<std::chrono::milliseconds>(
                kFirstFrameTimeout)
                    .count() -
                50);
  EXPECT_TRUE(s.exchange(0x02));
}

TEST(StreamServer, StopReturnsWithIdleBusyAndSilentWorkers) {
  EchoServer s;
  // Idle workers: a few exchanges leave the follower parked.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(s.exchange(0x10));
  // A busy worker: its handler runs for 100 ms past stop().
  util::Event busy;
  s.before_reply = [&busy](const util::Bytes& frame) {
    if (frame[0] == 0xB1) {
      busy.set();
      std::this_thread::sleep_for(100ms);
    }
  };
  auto slow = std::async(std::launch::async, [&s] { return s.exchange(0xB1); });
  ASSERT_TRUE(busy.wait_for(2s));
  // Two silent clients: workers waiting on their first frame.
  StreamPtr silent1 = s.connect();
  StreamPtr silent2 = s.connect();
  ASSERT_TRUE(silent1 && silent2);
  std::this_thread::sleep_for(20ms);

  // stop() closes the silent streams instead of waiting out
  // kFirstFrameTimeout, and waits only for the busy handler.
  auto stopped = std::async(std::launch::async, [&s] { s.server.stop(); });
  EXPECT_EQ(stopped.wait_for(600ms), std::future_status::ready)
      << "stop() blocked by silent clients";
  silent1->close();
  silent2->close();
  stopped.get();
  EXPECT_TRUE(slow.get());
  EXPECT_EQ(s.server.workers(), 0u);
}

}  // namespace
}  // namespace naplet::net
