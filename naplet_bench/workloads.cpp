#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/runtime.hpp"
#include "core/wire.hpp"
#include "net/sim.hpp"

namespace naplet::nbench {
namespace {

using namespace std::chrono_literals;

std::atomic<std::uint64_t> g_next_op{1};
std::uint64_t next_op() { return g_next_op.fetch_add(1); }

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

void require(const util::Status& st, const std::string& what) {
  if (!st.ok()) throw std::runtime_error(what + ": " + st.to_string());
}

nsock::DataPathStats& operator+=(nsock::DataPathStats& a,
                                 const nsock::DataPathStats& b) {
  a.payload_bytes_copied += b.payload_bytes_copied;
  a.stream_write_ops += b.stream_write_ops;
  a.stream_read_ops += b.stream_read_ops;
  a.recv_wakeups += b.recv_wakeups;
  a.frames_coalesced += b.frames_coalesced;
  return a;
}

nsock::DataPathStats operator-(nsock::DataPathStats a,
                               const nsock::DataPathStats& b) {
  a.payload_bytes_copied -= b.payload_bytes_copied;
  a.stream_write_ops -= b.stream_write_ops;
  a.stream_read_ops -= b.stream_read_ops;
  a.recv_wakeups -= b.recv_wakeups;
  a.frames_coalesced -= b.frames_coalesced;
  return a;
}

void merge_into(obs::Snapshot& acc, const obs::Snapshot& s) {
  for (const auto& h : s.histograms) {
    auto it = std::find_if(acc.histograms.begin(), acc.histograms.end(),
                           [&](const auto& x) { return x.name == h.name; });
    if (it == acc.histograms.end()) {
      acc.histograms.push_back(h);
    } else {
      it->merge(h);
    }
  }
  for (const auto& c : s.counters) {
    auto it = std::find_if(acc.counters.begin(), acc.counters.end(),
                           [&](const auto& x) { return x.name == c.name; });
    if (it == acc.counters.end()) {
      acc.counters.push_back(c);
    } else {
      it->value += c.value;
    }
  }
}

/// Remove `base` (an earlier snapshot of the same registries) from `acc`.
void subtract(obs::Snapshot& acc, const obs::Snapshot& base) {
  for (const auto& h : base.histograms) {
    for (auto& x : acc.histograms) {
      if (x.name != h.name) continue;
      x.count -= h.count;
      x.sum -= h.sum;
      for (std::size_t i = 0; i < x.buckets.size(); ++i) {
        x.buckets[i] -= h.buckets[i];
      }
    }
  }
  for (const auto& c : base.counters) {
    for (auto& x : acc.counters) {
      if (x.name == c.name) x.value -= c.value;
    }
  }
}

enum class NetKind { kTcp, kSim, kSimLossy };

/// A realm of `n` nodes named n0..n{n-1} with default NodeConfig.
class Cluster {
 public:
  Cluster(NetKind kind, int n, std::uint64_t seed) : nodes_(n) {
    realm_ = std::make_unique<nsock::Realm>();
    if (kind != NetKind::kTcp) {
      sim_ = std::make_unique<net::SimNet>(seed);
      if (kind == NetKind::kSimLossy) set_loss(0);
    }
    for (int i = 0; i < n; ++i) {
      if (sim_) {
        realm_->add_node(name(i), sim_->add_node(name(i)), nsock::NodeConfig{});
      } else {
        realm_->add_node(name(i), nsock::NodeConfig{});
      }
    }
    require(realm_->start(), "realm start");
  }
  ~Cluster() {
    realm_->stop();
    realm_.reset();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Lossy links: 1 ms each way, datagrams dropped with `loss`.
  void set_loss(double loss) {
    net::LinkConfig link;
    link.latency = 1ms;
    link.datagram_loss = loss;
    sim_->set_default_link(link);
  }

  static std::string name(int i) { return "n" + std::to_string(i); }
  nsock::SocketController& ctrl(int i) {
    return realm_->node(name(i)).controller();
  }
  agent::NodeInfo info(int i) {
    return realm_->node(name(i)).server().node_info();
  }
  agent::LocationService& locations() { return realm_->locations(); }

  agent::AgentId place(const std::string& agent, int node) {
    agent::AgentId id(agent);
    locations().register_agent(id, info(node));
    return id;
  }

  /// Control-plane totals merged over every node.
  struct Totals {
    obs::Snapshot merged;
    std::uint64_t ctrl_sent = 0;
    std::uint64_t ctrl_retx = 0;
    std::uint64_t dropped = 0;
  };
  Totals totals() {
    Totals t;
    for (int i = 0; i < nodes_; ++i) {
      const nsock::ControllerStats st = ctrl(i).stats();
      merge_into(t.merged, st.metrics);
      t.ctrl_sent += st.ctrl_messages_sent;
      t.ctrl_retx += st.ctrl_retransmissions;
    }
    t.dropped = sim_ ? sim_->datagrams_dropped() : 0;
    return t;
  }

  /// What the control plane did since `before`, plus the per-node checks
  /// every run makes: no MAC rejections, no access denials.
  void collect(Measurement& m, Gate& gate, const Totals& before) {
    const Totals after = totals();
    m.merged = after.merged;
    subtract(m.merged, before.merged);
    m.ctrl_messages_sent = after.ctrl_sent - before.ctrl_sent;
    m.ctrl_retransmissions = after.ctrl_retx - before.ctrl_retx;
    m.datagrams_dropped = after.dropped - before.dropped;
    std::size_t most = 0;
    for (int i = 0; i < nodes_; ++i) {
      const nsock::ControllerStats st = ctrl(i).stats();
      gate.check(st.mac_rejections == 0, name(i) + ": MAC rejections");
      gate.check(st.access_denials == 0, name(i) + ": access denials");
      if (st.sessions >= most && !st.shard_sessions.empty()) {
        most = st.sessions;
        const std::size_t max = *std::max_element(st.shard_sessions.begin(),
                                                  st.shard_sessions.end());
        const double mean = static_cast<double>(st.sessions) /
                            static_cast<double>(st.shard_sessions.size());
        m.shard_max_over_mean =
            mean > 0 ? static_cast<double>(max) / mean : 0.0;
      }
    }
  }

  /// Wait (bounded) until the node session counts equal `want`.
  bool settle(const std::vector<std::size_t>& want) {
    const std::int64_t deadline = now_ns() + 5'000'000'000LL;
    for (;;) {
      bool match = true;
      for (int i = 0; i < nodes_; ++i) {
        if (ctrl(i).session_count() != want[static_cast<std::size_t>(i)]) {
          match = false;
        }
      }
      if (match) return true;
      if (now_ns() > deadline) return false;
      std::this_thread::sleep_for(2ms);
    }
  }

  util::Bytes sus_payload(const std::string& agent, int node) {
    nsock::CtrlMsg msg;
    msg.type = nsock::CtrlType::kSus;
    msg.conn_id = 0x5eed5eed5eedULL;
    msg.epoch = 1;
    msg.trace_id = 0x1234567890abcdefULL;
    msg.sent_seq = 1'000'000;
    msg.client_agent = agent;
    msg.node = info(node);
    return msg.mac_payload();
  }

 private:
  int nodes_;
  std::unique_ptr<net::SimNet> sim_;  // declared first: outlives the realm
  std::unique_ptr<nsock::Realm> realm_;
};

/// One timed connect (connect + accept) with its phase breakdown.
struct Connected {
  nsock::SessionPtr client;
  nsock::ConnectBreakdown phases;
  double ms = 0;
};

bool timed_connect(Cluster& c, int cnode, int snode,
                   const agent::AgentId& client, const agent::AgentId& server,
                   std::uint64_t op, Gate& gate, Connected& out) {
  const std::int64_t t0 = now_ns();
  auto s = [&] {
    Span span(kCoreConnect, op);
    return c.ctrl(cnode).connect(client, server, &out.phases);
  }();
  if (!s.ok()) {
    gate.check(s.status(), "connect " + client.name());
    return false;
  }
  auto a = [&] {
    Span span(kCoreAccept, op);
    return c.ctrl(snode).accept(server, 5s);
  }();
  if (!a.ok()) {
    gate.check(a.status(), "accept " + server.name());
    return false;
  }
  out.ms = ms_since(t0);
  out.client = std::move(*s);
  gate.check((*a)->conn_id() == out.client->conn_id(),
             "accept returned another connection");
  return true;
}

void add_phases(Measurement& m, const Connected& c) {
  m.connect_phase_ms[0] += c.phases.management_ms;
  m.connect_phase_ms[1] += c.phases.security_check_ms;
  m.connect_phase_ms[2] += c.phases.key_exchange_ms;
  m.connect_phase_ms[3] += c.phases.handshake_ms;
  m.connect_phase_ms[4] += c.phases.open_socket_ms;
  m.connect_ms_total += c.ms;
  ++m.connects;
}

/// Merge per-thread measurements into `into`.
void absorb(Measurement& into, Measurement&& part) {
  into.op.append(part.op);
  into.event.append(part.event);
  into.attempted += part.attempted;
  for (std::size_t i = 0; i < into.connect_phase_ms.size(); ++i) {
    into.connect_phase_ms[i] += part.connect_phase_ms[i];
  }
  into.connects += part.connects;
  into.connect_ms_total += part.connect_ms_total;
  into.exports += part.exports;
  into.export_bytes_total += part.export_bytes_total;
  into.data += part.data;
  into.messages += part.messages;
}

constexpr std::int64_t kSliceNs = 1'000'000'000;

/// Runs `body(i)` on `n` load threads and times the window, which ends
/// when every thread has returned (the bodies stop at `deadline`). Until
/// the deadline the calling thread reads the process CPU time at every
/// slice boundary; the last boundary may lie up to 10 ms past the
/// deadline, which was taken just before this call.
template <typename Body>
void run_load(Measurement& m, int n, std::int64_t deadline, Body body) {
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_s();
  m.slice_ns = {t0};
  m.slice_cpu_s = {cpu0};
  m.slice_host = {host_ticks()};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) threads.emplace_back(body, i);
  m.threads = thread_count();
  for (std::int64_t at = t0 + kSliceNs; at <= deadline + kSliceNs / 100;
       at += kSliceNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(at - now_ns()));
    m.slice_ns.push_back(now_ns());
    m.slice_cpu_s.push_back(process_cpu_s());
    m.slice_host.push_back(host_ticks());
  }
  for (auto& t : threads) t.join();
  m.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  m.cpu_s = process_cpu_s() - cpu0;
}

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// A seeded relabelling of nodes 0..n-1 (Fisher-Yates).
std::vector<int> seeded_permutation(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.below(i + 1)]);
  }
  return perm;
}

// ---- rpc_hop / lossy_hop ---------------------------------------------------

/// Two stationary/mobile pairs doing synchronous request/reply while the
/// mobile agent hops across three nodes every 20 ms of service.
class RpcHop final : public Workload {
 public:
  explicit RpcHop(bool lossy) : lossy_(lossy) {}

  std::string name() const override {
    return lossy_ ? "lossy_hop" : "rpc_hop";
  }
  std::string network() const override {
    return lossy_ ? "SimNet, 4 nodes, 1 ms links, 5% datagram loss in the "
                    "measured window (set-up on loss-free links), reliable "
                    "streams"
                  : "TCP loopback, 4 nodes";
  }
  // Ten samples beyond p99.9 take 10k requests: lossy_hop completes about
  // 740 a second, so a window of 22 s holds about 16k.
  double tail_percentile() const override { return 99.9; }

  void setup(std::uint64_t seed) override {
    cluster_ = std::make_unique<Cluster>(
        lossy_ ? NetKind::kSimLossy : NetKind::kTcp, kNodes, seed);
    // The seed relabels the nodes; the shape is fixed: both stationary
    // agents live on one home node and each mobile agent tours the other
    // three, starting one node apart. (A mobile agent that visits the
    // other pair's stationary node trips a ~100 ms head-of-line stall in
    // a varying share of hops, too unsteady to measure here.)
    const std::vector<int> node = seeded_permutation(seed ^ 0x4090, kNodes);
    seed_ = seed;
    pairs_.clear();
    for (int p = 0; p < kPairs; ++p) {
      Pair pair;
      pair.snode = node[0];
      for (std::size_t i = 0; i < pair.route.size(); ++i) {
        pair.route[i] = node[1 + (i + static_cast<std::size_t>(p)) % 3];
      }
      const std::string suffix = std::to_string(p);
      pair.stat = cluster_->place("rpc-stationary-" + suffix, pair.snode);
      pair.mob = cluster_->place("rpc-mobile-" + suffix, pair.route[0]);
      nsock::SocketController& home = cluster_->ctrl(pair.route[0]);
      require(home.listen(pair.mob), "listen");
      auto s = cluster_->ctrl(pair.snode).connect(pair.stat, pair.mob);
      require(s.status(), "connect");
      auto a = home.accept(pair.mob, 5s);
      require(a.status(), "accept");
      pair.stat_session = std::move(*s);
      pair.conn_id = pair.stat_session->conn_id();
      if ((*a)->conn_id() != pair.conn_id) {
        throw std::runtime_error("accept returned another connection");
      }
      // Warm-up: a few request/replies on the fresh connection.
      const util::Bytes ping(64, 0x5a);
      for (int i = 0; i < 16; ++i) {
        require(pair.stat_session->send(ping, 5s), "warm-up send");
        auto got = (*a)->recv(5s);
        require(got.status(), "warm-up recv");
        require((*a)->send(got->body, 5s), "warm-up reply");
        require(pair.stat_session->recv(5s).status(), "warm-up reply recv");
      }
      pairs_.push_back(std::move(pair));
    }
  }

  Measurement measure(double seconds, Gate& gate) override {
    if (lossy_) cluster_->set_loss(kLoss);
    const Cluster::Totals base = cluster_->totals();
    std::vector<Measurement> parts(2 * kPairs);
    std::array<std::atomic<bool>, kPairs> client_done{};
    const std::int64_t deadline = deadline_after(seconds);
    Measurement m;
    nsock::DataPathStats before{};
    for (const Pair& p : pairs_) {
      before += p.stat_session->data_stats();
      before += mobile_session(p)->data_stats();
    }
    run_load(m, 2 * kPairs, deadline, [&](int t) {
      const int p = t / 2;
      Pair& pair = pairs_[static_cast<std::size_t>(p)];
      Measurement& mine = parts[static_cast<std::size_t>(t)];
      if (t % 2 == 0) {
        client(p, pair, deadline, gate, mine);
        client_done[static_cast<std::size_t>(p)].store(true);
      } else {
        serve(pair, client_done[static_cast<std::size_t>(p)], gate, mine);
      }
    });
    for (auto& part : parts) absorb(m, std::move(part));
    nsock::DataPathStats after = m.data;
    for (const Pair& p : pairs_) {
      after += p.stat_session->data_stats();
      auto mob = mobile_session(p);
      gate.check(mob != nullptr, "mobile session missing at the end");
      if (mob) after += mob->data_stats();
      gate.check(p.stat_session->state() == nsock::ConnState::kEstablished,
                 "stationary session not established at the end");
    }
    m.data = after - before;
    // Resident counts: each node holds one endpoint per agent placed there.
    std::vector<std::size_t> want(kNodes, 0);
    for (const Pair& p : pairs_) {
      ++want[static_cast<std::size_t>(p.snode)];
      ++want[static_cast<std::size_t>(p.route[p.at])];
    }
    gate.check(cluster_->settle(want), "resident session counts differ");
    cluster_->collect(m, gate, base);
    return m;
  }

  void teardown() override { cluster_.reset(); }
  std::size_t resident_sessions() const override { return 2 * kPairs; }
  util::Bytes sample_ctrl_payload() const override {
    return cluster_->sus_payload(pairs_[0].mob.name(), pairs_[0].route[0]);
  }
  std::vector<Alias> aliases() const override {
    return {{"ops_per_s", "rpc_per_s", 1, "1/s"},
            {"op_p50_ms", "rpc_us_p50", 1000, "us"},
            {"tail.op_ms", "rpc_us_p999", 1000, "us"},
            {"event_p50_ms", "hop_ms_p50", 1, "ms"},
            {"tail.event_p99_ms", "hop_ms_p99", 1, "ms"}};
  }

 private:
  static constexpr int kNodes = 4;
  static constexpr int kPairs = 2;
  static constexpr std::size_t kSmall = 64;
  static constexpr std::size_t kLarge = 4096;
  static constexpr std::uint64_t kLargeOneIn = 16;
  static constexpr auto kDwell = 20ms;
  static constexpr auto kHoldWait = 50ms;
  static constexpr double kLoss = 0.05;
  static constexpr std::size_t kHeader = 16;  // op id + per-pair sequence

  struct Pair {
    agent::AgentId stat;
    agent::AgentId mob;
    int snode = 0;
    std::array<int, 3> route{};
    std::size_t at = 0;  // index into route of the mobile agent's node
    std::uint64_t conn_id = 0;
    nsock::SessionPtr stat_session;
  };

  nsock::SessionPtr mobile_session(const Pair& p) {
    return cluster_->ctrl(p.route[p.at]).session_by_id(p.conn_id);
  }

  static void put_u64(util::Bytes& b, std::size_t at, std::uint64_t v) {
    std::memcpy(b.data() + at, &v, sizeof v);
  }
  static std::uint64_t get_u64(const util::Bytes& b, std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, b.data() + at, sizeof v);
    return v;
  }

  /// The stationary agent: send a tagged request, wait for its reply, and
  /// check the reply is the request, byte for byte.
  void client(int p, Pair& pair, std::int64_t deadline, Gate& gate,
              Measurement& mine) {
    Rng rng(seed_ * 0x9E37 + static_cast<std::uint64_t>(p) + 1);
    util::Bytes req;
    for (std::uint64_t seq = 1; now_ns() < deadline && gate.failures() == 0;
         ++seq) {
      const std::uint64_t op = next_op();
      const std::size_t size = rng.below(kLargeOneIn) == 0 ? kLarge : kSmall;
      req.resize(size);
      for (std::size_t i = kHeader; i < size; ++i) {
        req[i] = static_cast<std::uint8_t>(seq * 131 + i);
      }
      put_u64(req, 0, op);
      put_u64(req, 8, seq);
      ++mine.attempted;
      const std::int64_t t0 = now_ns();
      Span span(kOpRpc, op);
      util::Status st;
      {
        Span call(kCoreSend, op);
        st = pair.stat_session->send(req, 10s);
      }
      if (!st.ok()) {
        gate.check(st, "request send");
        break;
      }
      auto reply = [&] {
        Span call(kCoreRecvWait, op);
        return pair.stat_session->recv(10s);
      }();
      if (!reply.ok()) {
        gate.check(reply.status(), "reply recv");
        break;
      }
      gate.check(reply->body == req, "reply differs from its request");
      mine.op.add(ms_since(t0));
      mine.messages += 2;
    }
  }

  /// The mobile agent: echo requests for a 20 ms dwell, then hop to the
  /// next node of its route and carry on with the migrated session.
  void serve(Pair& pair, const std::atomic<bool>& client_done, Gate& gate,
             Measurement& mine) {
    nsock::SessionPtr session = mobile_session(pair);
    std::uint64_t expect = 1;
    // Takes the next request; false on timeout or failure.
    const auto take = [&](util::Duration timeout, util::Bytes& out) {
      auto got = session->recv(timeout);
      if (!got.ok()) {
        if (got.status().code() != util::StatusCode::kTimeout) {
          gate.check(got.status(), "request recv");
        }
        return false;
      }
      if (got->body.size() < kHeader || get_u64(got->body, 8) != expect) {
        gate.fail("request out of order or duplicated");
        return false;
      }
      ++expect;
      out = std::move(got->body);
      return true;
    };
    const auto reply = [&](const util::Bytes& body) {
      Span call(kCoreSend, get_u64(body, 0));
      gate.check(session->send(body, 10s), "reply send");
    };
    util::Bytes body;
    while (gate.failures() == 0) {
      const std::int64_t dwell_end =
          now_ns() + std::chrono::nanoseconds(kDwell).count();
      for (;;) {
        const std::int64_t left = dwell_end - now_ns();
        if (left <= 0 || !take(util::Duration(left / 1000 + 1), body)) break;
        reply(body);
      }
      if (client_done.load() || gate.failures() != 0) break;
      // Hop with the next request in hand: its reply leaves from the next
      // node, so every hop is straddled by exactly one request.
      const bool held = take(kHoldWait, body);
      mine.data += session->data_stats();
      if (!hop(pair, gate, mine)) break;
      session = mobile_session(pair);
      if (session == nullptr) {
        gate.fail("no session on the node the agent hopped to");
        break;
      }
      if (held) reply(body);
    }
  }


  /// One migration through the ConnectionMigrator hooks, with the
  /// location-service updates a docking system makes around them.
  bool hop(Pair& pair, Gate& gate, Measurement& mine) {
    const std::uint64_t op = next_op();
    const int from = pair.route[pair.at];
    const std::size_t next = (pair.at + 1) % pair.route.size();
    const int to = pair.route[next];
    agent::LocationService& loc = cluster_->locations();
    ++mine.attempted;
    const std::int64_t t0 = now_ns();
    Span span(kOpHop, op);
    {
      Span call(kAgentLocation, op);
      loc.begin_migration(pair.mob);
    }
    util::Status st;
    {
      Span call(kCorePrepare, op);
      st = cluster_->ctrl(from).prepare_migration(pair.mob);
    }
    if (!st.ok()) {
      gate.check(st, "prepare_migration");
      loc.register_agent(pair.mob, cluster_->info(from));
      (void)cluster_->ctrl(from).complete_migration(pair.mob);
      return false;
    }
    util::Bytes blob;
    {
      Span call(kCoreExport, op);
      blob = cluster_->ctrl(from).export_sessions(pair.mob);
    }
    {
      Span call(kCoreImport, op);
      st = cluster_->ctrl(to).import_sessions(pair.mob, blob);
    }
    {
      Span call(kAgentLocation, op);
      loc.register_agent(pair.mob, cluster_->info(to));
    }
    pair.at = next;
    if (st.ok()) {
      Span call(kCoreComplete, op);
      st = cluster_->ctrl(to).complete_migration(pair.mob);
    }
    gate.check(st, "import/complete_migration");
    mine.event.add(ms_since(t0));
    ++mine.exports;
    mine.export_bytes_total += static_cast<double>(blob.size());
    return st.ok();
  }

  bool lossy_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<Cluster> cluster_;
  std::vector<Pair> pairs_;
};

// ---- fleet_churn -----------------------------------------------------------

/// 2048 resident secure sessions on one hot node over zero-latency SimNet;
/// two workers churn them: 7 of 8 ops suspend+resume, 1 close+reconnect.
class FleetChurn final : public Workload {
 public:
  std::string name() const override { return "fleet_churn"; }
  std::string network() const override {
    return "SimNet, 4 nodes, zero-latency links, no loss";
  }
  double tail_percentile() const override { return 99; }
  int setup_repeats() const override { return 3; }

  void setup(std::uint64_t seed) override {
    cluster_ = std::make_unique<Cluster>(NetKind::kSim, kNodes, seed);
    seed_ = seed;
    workers_.assign(kWorkers, Worker{});
    for (int w = 0; w < kWorkers; ++w) {
      Worker& wk = workers_[static_cast<std::size_t>(w)];
      wk.client = cluster_->place("fleet-client-" + std::to_string(w), 0);
      for (int k = 0; k < kServerNodes; ++k) {
        wk.servers[static_cast<std::size_t>(k)] = cluster_->place(
            "fleet-server-" + std::to_string(w) + "-" + std::to_string(k),
            k + 1);
        require(cluster_->ctrl(k + 1).listen(
                    wk.servers[static_cast<std::size_t>(k)]),
                "listen");
      }
    }
    // The server node of every session is drawn from the seed up front.
    Rng rng(seed ^ 0xF1EE7ULL);
    for (Worker& wk : workers_) {
      wk.slots.resize(kSessions / kWorkers);
      for (Slot& slot : wk.slots) {
        slot.server = static_cast<int>(rng.below(kServerNodes));
      }
    }
    // Ramp on four threads. Each (worker, server node) pair is opened by
    // one thread only, so every accept can be matched to its connect.
    Gate gate;
    std::vector<std::thread> ramp;
    for (int t = 0; t < kRampThreads; ++t) {
      ramp.emplace_back([&, t] {
        for (int pair = t; pair < kWorkers * kServerNodes;
             pair += kRampThreads) {
          Worker& wk = workers_[static_cast<std::size_t>(pair / kServerNodes)];
          const int server = pair % kServerNodes;
          for (Slot& slot : wk.slots) {
            if (slot.server != server) continue;
            Connected c;
            if (gate.failures() != 0 ||
                !timed_connect(*cluster_, 0, server + 1, wk.client,
                               wk.servers[static_cast<std::size_t>(server)], 0,
                               gate, c)) {
              return;
            }
            slot.session = std::move(c.client);
          }
        }
      });
    }
    for (auto& t : ramp) t.join();
    if (gate.failures() != 0) throw std::runtime_error("fleet ramp failed");
  }

  Measurement measure(double seconds, Gate& gate) override {
    const Cluster::Totals base = cluster_->totals();
    std::vector<Measurement> parts(kWorkers);
    const std::int64_t deadline = deadline_after(seconds);
    Measurement m;
    run_load(m, kWorkers, deadline, [&](int w) {
      Worker& wk = workers_[static_cast<std::size_t>(w)];
      Measurement& mine = parts[static_cast<std::size_t>(w)];
      Rng rng(seed_ * 0x51ED + static_cast<std::uint64_t>(w) + 1);
      nsock::SocketController& hot = cluster_->ctrl(0);
      std::uint64_t reconnect_at = rng.below(8);
      for (std::uint64_t i = 0; now_ns() < deadline && gate.failures() == 0;
           ++i) {
        if (i % 8 == 0 && i > 0) reconnect_at = rng.below(8);
        Slot& slot = wk.slots[i % wk.slots.size()];
        const std::uint64_t op = next_op();
        ++mine.attempted;
        const std::int64_t t0 = now_ns();
        if (i % 8 == reconnect_at) {
          Span span(kOpReconnect, op);
          util::Status st;
          {
            Span call(kCoreClose, op);
            st = hot.close(slot.session);
          }
          if (!st.ok()) {
            gate.check(st, "close");
            break;
          }
          slot.server = static_cast<int>(rng.below(kServerNodes));
          Connected c;
          if (!timed_connect(*cluster_, 0, slot.server + 1, wk.client,
                             wk.servers[static_cast<std::size_t>(slot.server)],
                             op, gate, c)) {
            break;
          }
          slot.session = std::move(c.client);
          add_phases(mine, c);
          mine.event.add(ms_since(t0));
        } else {
          Span span(kOpSuspendResume, op);
          util::Status st;
          {
            Span call(kCoreSuspend, op);
            st = hot.suspend(slot.session);
          }
          if (st.ok()) {
            Span call(kCoreResume, op);
            st = hot.resume(slot.session);
          }
          if (!st.ok()) {
            gate.check(st, "suspend+resume");
            break;
          }
          gate.check(slot.session->state() == nsock::ConnState::kEstablished,
                     "session not established after resume");
          mine.op.add(ms_since(t0));
        }
      }
    });
    for (auto& part : parts) absorb(m, std::move(part));
    std::vector<std::size_t> want(kNodes, 0);
    want[0] = kSessions;
    for (const Worker& wk : workers_) {
      for (const Slot& s : wk.slots) {
        ++want[static_cast<std::size_t>(s.server + 1)];
      }
    }
    gate.check(cluster_->settle(want), "resident session counts differ");
    m.events_are_ops = true;  // churn ops: both kinds
    cluster_->collect(m, gate, base);
    return m;
  }

  void teardown() override {
    workers_.clear();
    cluster_.reset();
  }
  std::size_t resident_sessions() const override { return 2 * kSessions; }
  util::Bytes sample_ctrl_payload() const override {
    return cluster_->sus_payload(workers_[0].client.name(), 0);
  }
  std::vector<Alias> aliases() const override {
    return {{"ops_per_s", "churn_ops_per_s", 1, "1/s"},
            {"op_p50_ms", "suspend_resume_ms_p50", 1, "ms"},
            {"tail.op_ms", "suspend_resume_ms_p99", 1, "ms"},
            {"event_p50_ms", "reconnect_ms_p50", 1, "ms"},
            {"tail.event_p99_ms", "reconnect_ms_p99", 1, "ms"}};
  }

 private:
  static constexpr int kNodes = 4;  // n0 is the hot node
  static constexpr int kServerNodes = kNodes - 1;
  static constexpr int kSessions = 2048;
  static constexpr int kWorkers = 2;
  static constexpr int kRampThreads = 4;

  struct Slot {
    nsock::SessionPtr session;
    int server = 0;  // index of the server node minus one
  };
  struct Worker {
    agent::AgentId client;
    std::array<agent::AgentId, kServerNodes> servers{
        agent::AgentId("s"), agent::AgentId("s"), agent::AgentId("s")};
    std::vector<Slot> slots;
  };

  std::uint64_t seed_ = 0;
  std::unique_ptr<Cluster> cluster_;
  std::vector<Worker> workers_;
};

}  // namespace

void Series::append(const Series& other) {
  ms.insert(ms.end(), other.ms.begin(), other.ms.end());
  done_ns.insert(done_ns.end(), other.done_ns.begin(), other.done_ns.end());
}

std::vector<Slice> slices(const Measurement& m) {
  std::vector<Slice> out;
  for (std::size_t k = 1; k < m.slice_ns.size(); ++k) {
    const std::int64_t from = m.slice_ns[k - 1];
    const std::int64_t to = m.slice_ns[k];
    const auto within = [&](const Series& s) {
      std::vector<double> xs;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s.done_ns[i] >= from && s.done_ns[i] < to) xs.push_back(s.ms[i]);
      }
      return xs;
    };
    std::vector<double> ops = within(m.op);
    std::vector<double> events = within(m.event);
    const double n = static_cast<double>(
        ops.size() + (m.events_are_ops ? events.size() : 0));
    const double cpu_ms = (m.slice_cpu_s[k] - m.slice_cpu_s[k - 1]) * 1000;
    Slice s;
    s.ops_per_s = n * 1e9 / static_cast<double>(to - from);
    constexpr double kNone = std::numeric_limits<double>::quiet_NaN();
    s.op_p50_ms = ops.empty() ? kNone : percentile(ops, 50);
    s.event_p50_ms = events.empty() ? kNone : percentile(events, 50);
    s.cpu_ms_per_op =
        n > 0 ? cpu_ms / n : std::numeric_limits<double>::infinity();
    s.steal_pct = steal_pct(m.slice_host[k - 1], m.slice_host[k]);
    out.push_back(s);
  }
  return out;
}

std::vector<std::string> workload_names() {
  return {"rpc_hop", "fleet_churn", "lossy_hop"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "rpc_hop") return std::make_unique<RpcHop>(false);
  if (name == "lossy_hop") return std::make_unique<RpcHop>(true);
  if (name == "fleet_churn") return std::make_unique<FleetChurn>();
  return nullptr;
}

}  // namespace naplet::nbench
