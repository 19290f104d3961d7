#include "fault/chaos.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>

#include "core/runtime.hpp"
#include "fault/oracle.hpp"
#include "fault/sites.hpp"
#include "net/sim.hpp"
#include "obs/recorder.hpp"
#include "swarm/drain.hpp"
#include "swarm/scheduler.hpp"
#include "util/rng.hpp"

namespace naplet::fault {

namespace {

using namespace std::chrono_literals;

util::ByteSpan span_of(const std::string& s) {
  return util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                        s.size());
}

std::string node_name(int i) { return "chaos" + std::to_string(i); }

util::Status migrate_agent(nsock::Realm& realm, const agent::AgentId& id,
                           int from, int to) {
  auto& src = realm.node(node_name(from));
  auto& dst = realm.node(node_name(to));
  realm.locations().begin_migration(id);
  // Failures before the destination registration roll the location back
  // (end_migration) so the agent stays findable at the source instead of
  // stranding every lookup on a permanent in-transit entry.
  if (auto st = src.controller().prepare_migration(id); !st.ok()) {
    realm.locations().end_migration(id);
    return st;
  }
  const util::Bytes sessions = src.controller().export_sessions(id);
  if (auto st = dst.controller().import_sessions(
          id, util::ByteSpan(sessions.data(), sessions.size()));
      !st.ok()) {
    realm.locations().end_migration(id);
    return st;
  }
  realm.locations().register_agent(id, dst.server().node_info());
  return dst.controller().complete_migration(id);
}

// The survivable fault envelope the generator draws from. Drops live below
// the reliability layer (rudp retransmits around them), delays stay well
// under the control-response timeout, duplicated control messages exercise
// the protocol's documented re-ack paths, and killed handoff workers are
// absorbed by do_resume's retry loop — so a generated schedule can make a
// run slow and ugly but never impossible.
enum class Template : std::uint64_t {
  kRudpSendDrop = 0,
  kRudpRetransmitDrop,
  kRudpRetransmitDelay,
  kRudpSendFlip,
  kRudpSackDrop,
  kRudpFastRetxDrop,
  kRudpFecDrop,
  kCtrlPreSendDup,
  kCtrlPreSendDelay,
  kCtrlOnRecvDelay,
  kRedirectorKill,
  kCount,
};

constexpr const char* kDupableCtrl[] = {"suspend", "suspend_ack", "sus_res"};

Rule make_rule(util::Rng& rng) {
  Rule rule;
  switch (static_cast<Template>(
      rng.next_below(static_cast<std::uint64_t>(Template::kCount)))) {
    case Template::kRudpSendDrop:
      rule.site = "rudp.send";
      rule.hit = 1 + rng.next_below(8);
      rule.count = 1 + rng.next_below(2);
      rule.action = Action::kDrop;
      break;
    case Template::kRudpRetransmitDrop:
      rule.site = "rudp.retransmit";
      rule.hit = 1 + rng.next_below(4);
      rule.count = 1 + rng.next_below(2);
      rule.action = Action::kDrop;
      break;
    case Template::kRudpRetransmitDelay:
      rule.site = "rudp.retransmit";
      rule.hit = 1 + rng.next_below(4);
      rule.action = Action::kDelay;
      rule.delay_ms = 5 + static_cast<std::uint32_t>(rng.next_below(25));
      break;
    case Template::kRudpSendFlip:
      // A flipped bit anywhere in the frame fails the peer's CRC check:
      // corruption degrades to loss, which retransmit/FEC must absorb.
      rule.site = rng.bernoulli(0.5) ? "rudp.send" : "rudp.retransmit";
      rule.hit = 1 + rng.next_below(6);
      rule.count = 1 + rng.next_below(2);
      rule.action = Action::kCorrupt;
      break;
    case Template::kRudpSackDrop:
      // Starve the fast-retransmit gap detector: the RTO timer must still
      // recover delivery on its own.
      rule.site = "rudp.sack";
      rule.hit = 1 + rng.next_below(4);
      rule.count = 1 + rng.next_below(3);
      rule.action = Action::kDrop;
      break;
    case Template::kRudpFastRetxDrop:
      rule.site = "rudp.fast_retx";
      rule.hit = 1 + rng.next_below(2);
      rule.action = Action::kDrop;
      break;
    case Template::kRudpFecDrop:
      // Lost parity only removes a repair opportunity, never data.
      rule.site = "rudp.fec";
      rule.hit = 1 + rng.next_below(4);
      rule.count = 1 + rng.next_below(3);
      rule.action = Action::kDrop;
      break;
    case Template::kCtrlPreSendDup:
      rule.site = std::string("ctrl.") + kDupableCtrl[rng.next_below(3)] +
                  ".pre_send";
      rule.hit = 1 + rng.next_below(2);
      rule.action = Action::kDuplicate;
      break;
    case Template::kCtrlPreSendDelay:
      rule.site = std::string("ctrl.") + kDupableCtrl[rng.next_below(3)] +
                  ".pre_send";
      rule.hit = 1 + rng.next_below(2);
      rule.action = Action::kDelay;
      rule.delay_ms = 5 + static_cast<std::uint32_t>(rng.next_below(40));
      break;
    case Template::kCtrlOnRecvDelay:
      rule.site = std::string("ctrl.") + kDupableCtrl[rng.next_below(3)] +
                  ".on_recv";
      rule.hit = 1 + rng.next_below(2);
      rule.action = Action::kDelay;
      rule.delay_ms = 5 + static_cast<std::uint32_t>(rng.next_below(40));
      break;
    case Template::kRedirectorKill:
      rule.site = "redirector.handoff.accept";
      rule.hit = 1 + rng.next_below(2);
      rule.action = Action::kKill;
      break;
    case Template::kCount:
      break;  // unreachable
  }
  return rule;
}

}  // namespace

std::string_view to_string(Scenario scenario) noexcept {
  switch (scenario) {
    case Scenario::kSingleMigration: return "single";
    case Scenario::kDoubleSequential: return "double";
    case Scenario::kDoubleOverlapped: return "overlap";
    case Scenario::kCrashSuspend: return "crash-suspend";
    case Scenario::kCrashResume: return "crash-resume";
    case Scenario::kCrashDouble: return "crash-double";
    case Scenario::kDrainPartition: return "drain-partition";
    case Scenario::kCascadeRebalance: return "cascade-rebalance";
    case Scenario::kGroupCrashCommit: return "group-crash-commit";
    case Scenario::kGroupPeerRefusal: return "group-peer-refusal";
  }
  return "?";
}

std::string ChaosResult::line(const ChaosCase& chaos_case) const {
  std::ostringstream out;
  out << "seed=" << chaos_case.seed << " scenario="
      << to_string(chaos_case.scenario) << " plan=\""
      << chaos_case.plan.to_string() << "\" verdict="
      << (pass ? "PASS" : "FAIL");
  if (!pass) out << " failure=\"" << failure << "\"";
  return out.str();
}

ChaosCase generate_case(std::uint64_t seed, bool light) {
  util::Rng rng(seed);
  ChaosCase chaos_case;
  chaos_case.seed = seed;
  chaos_case.scenario =
      static_cast<Scenario>(rng.next_below(kGeneratedScenarioCount));
  chaos_case.forward_msgs = light ? 6 : 12;
  chaos_case.reverse_msgs = light ? 4 : 8;
  chaos_case.plan.seed = seed;
  const std::uint64_t rules = 1 + rng.next_below(light ? 2 : 4);
  for (std::uint64_t i = 0; i < rules; ++i) {
    chaos_case.plan.rules.push_back(make_rule(rng));
  }
  return chaos_case;
}

ChaosCase make_crash_case(std::uint64_t seed, Scenario scenario, bool light,
                          bool recovery) {
  ChaosCase chaos_case;
  chaos_case.seed = seed;
  chaos_case.scenario = scenario;
  chaos_case.recovery = recovery;
  chaos_case.forward_msgs = light ? 6 : 12;
  chaos_case.reverse_msgs = light ? 4 : 8;
  chaos_case.plan.seed = seed;
  Rule rule;
  if (scenario == Scenario::kCrashSuspend) {
    // Every SUS_ACK of the doomed incarnation dies (the resend cadence
    // would otherwise get a re-ack through), so the active side's suspend
    // handshake reliably times out before the harness pulls the plug.
    rule.site = "ctrl.suspend_ack.pre_send";
  } else {
    // Every handoff worker of the doomed incarnation dies: the mover's
    // RESUME is in flight, unanswered, when the controller is killed.
    rule.site = "redirector.handoff.accept";
  }
  rule.hit = 1;
  rule.count = 1000;  // all hits until disarm (which follows the kill)
  rule.action = Action::kKill;
  chaos_case.plan.rules.push_back(rule);
  return chaos_case;
}

ChaosCase make_swarm_case(std::uint64_t seed, Scenario scenario, bool light) {
  ChaosCase chaos_case;
  chaos_case.seed = seed;
  chaos_case.scenario = scenario;
  chaos_case.forward_msgs = light ? 6 : 12;
  chaos_case.reverse_msgs = light ? 4 : 8;
  chaos_case.plan.seed = seed;
  Rule rule;
  if (scenario == Scenario::kDrainPartition) {
    // One suspend in the second wave fails; the drain coordinator's
    // capped-backoff retry must land it without stalling the sweep.
    rule.site = "swarm.drain.suspend";
    rule.hit = 2;
    rule.action = Action::kError;
  } else {
    // The destination refuses the first batch admission outright: the
    // scheduler must split the batch and reroute the rear half to the
    // fallback host (the cascading rebalance).
    rule.site = "swarm.batch.admit";
    rule.hit = 1;
    rule.action = Action::kError;
  }
  rule.count = 1;
  chaos_case.plan.rules.push_back(rule);
  return chaos_case;
}

ChaosCase make_group_case(std::uint64_t seed, Scenario scenario, bool light) {
  ChaosCase chaos_case;
  chaos_case.seed = seed;
  chaos_case.scenario = scenario;
  chaos_case.forward_msgs = light ? 4 : 8;
  chaos_case.reverse_msgs = light ? 3 : 6;
  chaos_case.plan.seed = seed;
  Rule rule;
  if (scenario == Scenario::kGroupCrashCommit) {
    // Kill the mover's controller in the window between the group-prepare
    // and group-commit journal records; recovery must resolve the whole
    // group one way (roll forward: every peer already sealed).
    rule.site = "ctrl.group.commit";
    rule.action = Action::kKill;
  } else {
    // The first group SUS the peer host processes is refused; the
    // coordinator must roll the ENTIRE group back under send load.
    rule.site = "ctrl.group.prepare";
    rule.action = Action::kError;
  }
  rule.hit = 1;
  rule.count = 1;
  chaos_case.plan.rules.push_back(rule);
  return chaos_case;
}

namespace {

/// Journal directory of one crash case, private to this process and
/// removed when the case ends. ctest runs the recovery suite and the
/// crash smokes (same seeds, same scenarios) in parallel; a shared path
/// let one run wipe another's journal in the middle of its restart.
class JournalDir {
 public:
  explicit JournalDir(const ChaosCase& chaos_case)
      : path_((std::filesystem::temp_directory_path() /
               ("naplet-chaos-" + std::to_string(chaos_case.seed) + "-" +
                std::string(to_string(chaos_case.scenario)) + "-" +
                std::to_string(::getpid())))
                  .string()) {
    remove();
  }
  ~JournalDir() { remove(); }
  JournalDir(const JournalDir&) = delete;
  JournalDir& operator=(const JournalDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void remove() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string path_;
};

/// Node config for crash cases. A non-empty `durable_dir` gives the node a
/// journal (only the to-be-crashed server host needs one); recovery-off
/// cases get the paper's single-shot protocol with tight timeouts so the
/// expected failure is bounded, never a hang.
nsock::NodeConfig crash_node_config(const ChaosCase& chaos_case, int i,
                                    const std::string& durable_dir) {
  nsock::NodeConfig config;
  config.controller.security = false;
  config.server.rudp_config.retransmit_interval = 15ms;
  config.server.rudp_config.max_attempts = 40;
  config.server.rudp_config.jitter_seed = chaos_case.seed * 3 + i + 1;
  // XOR-FEC on the control channel keeps the rudp.sack / rudp.fast_retx /
  // rudp.fec fault sites live under the oracles.
  config.server.rudp_config.repair = net::LossRepair::kXorFec;
  config.controller.ctrl_response_timeout = 1s;
  config.controller.drain_timeout = 1s;
  if (chaos_case.recovery) {
    config.controller.failure_recovery.enabled = true;
    config.controller.failure_recovery.probe_interval = 500ms;
    config.controller.failure_recovery.probe_timeout = 200ms;
    // The planned kill must not race the death detector: recovery here is
    // journal replay serving the peer's retries, not probe-driven abort.
    config.controller.failure_recovery.miss_threshold = 1000;
    config.controller.suspend_rollback = true;
    config.controller.resume_max_attempts = 25;
    config.controller.resume_retry_backoff = 50ms;
    config.controller.resume_retry_cap = 400ms;
    config.controller.resume_timeout = 8s;
    config.controller.redirector_leases.enabled = true;
    config.controller.redirector_leases.ttl = 3s;
    if (!durable_dir.empty()) {
      config.controller.durability.enabled = true;
      config.controller.durability.dir = durable_dir;
      config.controller.durability.compact_every = 8;
    }
  } else {
    config.controller.resume_max_attempts = 1;
    config.controller.resume_timeout = 3s;
  }
  return config;
}

/// The crash-restart choreography behind Scenario::kCrash*. The server
/// host (chaos1) is killed — Realm::remove_node, which sends no protocol
/// messages — and stood up again under the same name; with recovery on,
/// the new controller replays its durable journal and serves the peer's
/// retries, and the DeliveryLedger must still balance exactly once. With
/// recovery off, the same staging must fail CLEANLY: a bounded error and
/// an abortable session, never a hang.
ChaosResult run_crash_case(const ChaosCase& chaos_case) {
  ChaosResult result;
  const auto fail = [&](const std::string& why) {
    result.pass = false;
    result.failure = why;
    // Snapshot every live session's ring before teardown destroys them:
    // the dump is the execution history that led to the oracle tripping.
    result.recorder_dump = obs::dump_all();
    return result;
  };

  Injector& injector = Injector::instance();
  injector.disarm();

  const JournalDir journal(chaos_case);
  const std::string& durable_dir = journal.path();

  net::SimNet net(chaos_case.seed);
  net.set_default_link(net::LinkConfig{.latency = 1ms});

  nsock::Realm realm;
  for (int i = 0; i < 3; ++i) {
    realm.add_node(node_name(i), net.add_node(node_name(i)),
                   crash_node_config(chaos_case, i,
                                     i == 1 ? durable_dir : std::string()));
  }
  if (auto st = realm.start(); !st.ok()) {
    return fail("realm start: " + st.to_string());
  }

  const agent::AgentId cli("chaos-cli");
  const agent::AgentId srv("chaos-srv");
  realm.locations().register_agent(
      cli, realm.node(node_name(0)).server().node_info());
  realm.locations().register_agent(
      srv, realm.node(node_name(1)).server().node_info());

  auto& ctrl0 = realm.node(node_name(0)).controller();
  auto& ctrl1 = realm.node(node_name(1)).controller();
  if (auto st = ctrl1.listen(srv); !st.ok()) {
    return fail("listen: " + st.to_string());
  }
  auto client = ctrl0.connect(cli, srv);
  if (!client.ok()) return fail("connect: " + client.status().to_string());
  auto server = ctrl1.accept(srv, 5s);
  if (!server.ok()) return fail("accept: " + server.status().to_string());
  const std::uint64_t conn = (*client)->conn_id();

  DeliveryLedger ledger;
  constexpr std::uint64_t kFwd = 0, kRev = 1;

  // Phase A — same traffic shape as run_case: forward delivered live,
  // reverse left riding toward the suspension buffer.
  for (int i = 0; i < chaos_case.forward_msgs; ++i) {
    const std::string body =
        "f" + std::to_string(i) + "." + std::to_string(chaos_case.seed);
    if (auto st = (*client)->send(span_of(body), 2s); !st.ok()) {
      return fail("pre-fault send: " + st.to_string());
    }
    ledger.record_sent(kFwd, span_of(body));
  }
  for (int i = 0; i < chaos_case.forward_msgs; ++i) {
    auto got = (*server)->recv(2s);
    if (!got.ok()) return fail("pre-fault recv: " + got.status().to_string());
    ledger.record_delivered(kFwd, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }
  for (int i = 0; i < chaos_case.reverse_msgs; ++i) {
    const std::string body =
        "r" + std::to_string(i) + "." + std::to_string(chaos_case.seed);
    if (auto st = (*server)->send(span_of(body), 2s); !st.ok()) {
      return fail("reverse send: " + st.to_string());
    }
    ledger.record_sent(kRev, span_of(body));
  }
  std::this_thread::sleep_for(30ms);

  // The crash: remove the server-host node (no protocol goodbye), then
  // stand it up again under the same name. Faults are disarmed at the
  // moment of death — they belong to the doomed incarnation.
  const auto crash = [&] {
    realm.remove_node(node_name(1));
    injector.disarm();
  };
  const auto restart = [&]() -> util::Status {
    auto& node = realm.add_node(node_name(1), net.add_node(node_name(1)),
                                crash_node_config(chaos_case, 1, durable_dir));
    NAPLET_RETURN_IF_ERROR(node.start());
    if (chaos_case.recovery) {
      NAPLET_RETURN_IF_ERROR(node.controller().recover());
    }
    realm.locations().register_agent(srv, node.server().node_info());
    return util::OkStatus();
  };

  // Phase B — scenario choreography.
  int cli_node = 0, srv_node = 1;
  util::Status staged = util::OkStatus();  // the step expected to fail
                                           // when recovery is off
  switch (chaos_case.scenario) {
    case Scenario::kCrashSuspend: {
      // The suspend handshake dies (every SUS_ACK killed), then the
      // server-side controller does. The first migration attempt must
      // fail; after the restart the retry must find the journaled
      // passively-suspended session and complete.
      injector.arm(chaos_case.plan);
      util::Status first = migrate_agent(realm, cli, 0, 2);
      if (first.ok()) {
        injector.disarm();
        return fail("crash-suspend: first migration succeeded despite the "
                    "killed SUS_ACKs");
      }
      // The failed attempt left the location pending (begin_migration):
      // cancel by re-registering at the source.
      realm.locations().register_agent(
          cli, realm.node(node_name(0)).server().node_info());
      crash();
      if (auto st = restart(); !st.ok()) {
        return fail("restart: " + st.to_string());
      }
      staged = migrate_agent(realm, cli, 0, 2);
      cli_node = 2;
      break;
    }

    case Scenario::kCrashResume:
    case Scenario::kCrashDouble: {
      // Stage the client's migration cleanly up to the resume, then let
      // the mover's RESUME hit a redirector whose handoff workers die —
      // and kill the controller while the RESUME hangs unanswered.
      realm.locations().begin_migration(cli);
      if (auto st = ctrl0.prepare_migration(cli); !st.ok()) {
        return fail("prepare: " + st.to_string());
      }
      const util::Bytes blob = ctrl0.export_sessions(cli);
      auto& node2 = realm.node(node_name(2));
      if (auto st = node2.controller().import_sessions(
              cli, util::ByteSpan(blob.data(), blob.size()));
          !st.ok()) {
        return fail("import: " + st.to_string());
      }
      realm.locations().register_agent(cli, node2.server().node_info());
      injector.arm(chaos_case.plan);
      std::thread mover(
          [&] { staged = node2.controller().complete_migration(cli); });
      std::this_thread::sleep_for(150ms);
      crash();
      util::Status restarted = restart();
      mover.join();
      if (!restarted.ok()) {
        return fail("restart: " + restarted.to_string());
      }
      cli_node = 2;
      if (chaos_case.scenario == Scenario::kCrashDouble &&
          chaos_case.recovery && staged.ok()) {
        // A second, fault-free migration on top of the recovered state:
        // the server hops off the restarted host.
        if (auto st = migrate_agent(realm, srv, 1, 0); !st.ok()) {
          return fail("post-recovery server migration: " + st.to_string());
        }
        srv_node = 0;
      }
      break;
    }

    default:
      return fail("not a crash scenario");
  }
  injector.disarm();

  if (!chaos_case.recovery) {
    // The control run: the staged step must fail with a bounded error,
    // and the surviving half-open session must be abortable — a blocked
    // application must see ABORTED, not a hang.
    if (staged.ok()) {
      return fail("staging succeeded with recovery disabled");
    }
    nsock::SessionPtr leftover =
        realm.node(node_name(2)).controller().session_by_id(conn);
    if (leftover != nullptr) {
      realm.node(node_name(2)).controller().abort(leftover);
      if (leftover->state() != nsock::ConnState::kClosed) {
        return fail("abort left the session in " +
                    std::string(nsock::to_string(leftover->state())));
      }
    }
    if (auto st = check_fsm_trace(injector.transitions()); !st.ok()) {
      return fail(st.to_string());
    }
    result.pass = true;
    result.failure.clear();
    result.stats = "staged failure (expected): " + staged.to_string();
    return result;
  }

  if (!staged.ok()) {
    return fail("post-restart migration: " + staged.to_string());
  }

  // Phase C — judgement, identical to run_case: liveness bounds the
  // re-establishment, then the ledger must balance exactly once ACROSS
  // THE RESTART.
  nsock::SessionPtr client2 =
      realm.node(node_name(cli_node)).controller().session_by_id(conn);
  nsock::SessionPtr server2 =
      realm.node(node_name(srv_node)).controller().session_by_id(conn);
  if (!client2 || !server2) return fail("session lost across restart");
  if (auto st = await_established(*client2, 8s); !st.ok()) {
    return fail(st.to_string());
  }
  if (auto st = await_established(*server2, 8s); !st.ok()) {
    return fail(st.to_string());
  }

  while (true) {
    auto got = client2->recv(500ms);
    if (!got.ok()) break;
    ledger.record_delivered(kRev, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }

  for (int i = 0; i < 2; ++i) {
    const std::string body = "post" + std::to_string(i);
    if (auto st = client2->send(span_of(body), 2s); !st.ok()) {
      return fail("post-restart send: " + st.to_string());
    }
    ledger.record_sent(kFwd, span_of(body));
    auto got = server2->recv(2s);
    if (!got.ok()) {
      return fail("post-restart recv: " + got.status().to_string());
    }
    ledger.record_delivered(kFwd, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }

  if (auto st = ledger.check(/*require_complete=*/true); !st.ok()) {
    return fail(st.to_string());
  }
  if (auto st = check_fsm_trace(injector.transitions()); !st.ok()) {
    return fail(st.to_string());
  }

  const auto counters = net.counters();
  result.net_datagrams_dropped = counters.datagrams_dropped;
  const auto cli_stats =
      realm.node(node_name(cli_node)).controller().stats();
  const auto srv_stats =
      realm.node(node_name(srv_node)).controller().stats();
  result.ctrl_retransmissions =
      cli_stats.ctrl_retransmissions + srv_stats.ctrl_retransmissions;
  result.stats = "client: " + cli_stats.to_string() +
                 "\nserver: " + srv_stats.to_string();
  result.pass = true;
  return result;
}

/// Stage executor over a live realm: serialize exports the batch's agents
/// from the source host, transfer is a no-op (the sim network "ships" the
/// blobs instantly), reactivate imports at the batch's CURRENT destination
/// and completes the migration — so a batch rerouted by an admission
/// refusal cleanly re-imports at the fallback host.
class RealmStageExecutor final : public swarm::StageExecutor {
 public:
  RealmStageExecutor(nsock::Realm& realm, int source, bool prepare)
      : realm_(realm), source_(source), prepare_(prepare) {}

  void serialize(const swarm::MigrationBatch& batch, Done done) override {
    auto& src = realm_.node(node_name(source_));
    for (const agent::AgentId& id : batch.agents) {
      realm_.locations().begin_migration(id);
      if (prepare_) {
        if (auto st = src.controller().prepare_migration(id); !st.ok()) {
          realm_.locations().end_migration(id);
          done(st);
          return;
        }
      }
      blobs_[id.name()] = src.controller().export_sessions(id);
    }
    done(util::OkStatus());
  }

  void transfer(const swarm::MigrationBatch& batch, Done done) override {
    (void)batch;
    done(util::OkStatus());
  }

  void reactivate(const swarm::MigrationBatch& batch, Done done) override {
    auto& dst = realm_.node(batch.destination);
    for (const agent::AgentId& id : batch.agents) {
      auto it = blobs_.find(id.name());
      if (it == blobs_.end()) {
        done(util::Internal("no exported state for " + id.name()));
        return;
      }
      if (auto st = dst.controller().import_sessions(
              id, util::ByteSpan(it->second.data(), it->second.size()));
          !st.ok()) {
        realm_.locations().end_migration(id);
        done(st);
        return;
      }
      blobs_.erase(it);
      realm_.locations().register_agent(id, dst.server().node_info());
      if (auto st = dst.controller().complete_migration(id); !st.ok()) {
        done(st);
        return;
      }
    }
    done(util::OkStatus());
  }

 private:
  nsock::Realm& realm_;
  int source_;
  bool prepare_;
  // The scheduler drives this executor from one pump at a time; no lock.
  std::map<std::string, util::Bytes> blobs_;
};

/// The swarm choreography behind Scenario::kDrainPartition and
/// Scenario::kCascadeRebalance: one live connection (client chaos0,
/// server chaos1) plus a handful of passenger agents, all moved off
/// chaos1 through the drain coordinator + batch scheduler instead of
/// one-by-one migrate calls. The usual oracles judge the outcome.
ChaosResult run_swarm_case(const ChaosCase& chaos_case) {
  ChaosResult result;
  const auto fail = [&](const std::string& why) {
    result.pass = false;
    result.failure = why;
    result.recorder_dump = obs::dump_all();
    return result;
  };

  Injector& injector = Injector::instance();
  injector.disarm();

  net::SimNet net(chaos_case.seed);
  net.set_default_link(net::LinkConfig{.latency = 1ms});

  nsock::Realm realm;
  for (int i = 0; i < 3; ++i) {
    nsock::NodeConfig config;
    config.controller.security = false;
    config.server.rudp_config.retransmit_interval = 15ms;
    config.server.rudp_config.max_attempts = 40;
    config.server.rudp_config.jitter_seed = chaos_case.seed * 3 + i + 1;
    config.server.rudp_config.repair = net::LossRepair::kXorFec;
    // The partition scenario keeps RESUME retrying until the heal; give
    // the resume loop the recovery-grade patience.
    config.controller.resume_max_attempts = 25;
    config.controller.resume_retry_backoff = 50ms;
    config.controller.resume_retry_cap = 400ms;
    config.controller.resume_timeout = 8s;
    realm.add_node(node_name(i), net.add_node(node_name(i)), config);
  }
  if (auto st = realm.start(); !st.ok()) {
    return fail("realm start: " + st.to_string());
  }

  const agent::AgentId cli("chaos-cli");
  const agent::AgentId srv("chaos-srv");
  realm.locations().register_agent(
      cli, realm.node(node_name(0)).server().node_info());
  realm.locations().register_agent(
      srv, realm.node(node_name(1)).server().node_info());
  std::vector<agent::AgentId> fleet{srv};
  for (int i = 0; i < 4; ++i) {
    const agent::AgentId pax("chaos-pax" + std::to_string(i));
    realm.locations().register_agent(
        pax, realm.node(node_name(1)).server().node_info());
    fleet.push_back(pax);
  }

  auto& ctrl0 = realm.node(node_name(0)).controller();
  auto& ctrl1 = realm.node(node_name(1)).controller();
  if (auto st = ctrl1.listen(srv); !st.ok()) {
    return fail("listen: " + st.to_string());
  }
  auto client = ctrl0.connect(cli, srv);
  if (!client.ok()) return fail("connect: " + client.status().to_string());
  auto server = ctrl1.accept(srv, 5s);
  if (!server.ok()) return fail("accept: " + server.status().to_string());
  const std::uint64_t conn = (*client)->conn_id();

  DeliveryLedger ledger;
  constexpr std::uint64_t kFwd = 0, kRev = 1;
  for (int i = 0; i < chaos_case.forward_msgs; ++i) {
    const std::string body =
        "f" + std::to_string(i) + "." + std::to_string(chaos_case.seed);
    if (auto st = (*client)->send(span_of(body), 2s); !st.ok()) {
      return fail("pre-fault send: " + st.to_string());
    }
    ledger.record_sent(kFwd, span_of(body));
  }
  for (int i = 0; i < chaos_case.forward_msgs; ++i) {
    auto got = (*server)->recv(2s);
    if (!got.ok()) return fail("pre-fault recv: " + got.status().to_string());
    ledger.record_delivered(kFwd, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }
  for (int i = 0; i < chaos_case.reverse_msgs; ++i) {
    const std::string body =
        "r" + std::to_string(i) + "." + std::to_string(chaos_case.seed);
    if (auto st = (*server)->send(span_of(body), 2s); !st.ok()) {
      return fail("reverse send: " + st.to_string());
    }
    ledger.record_sent(kRev, span_of(body));
  }
  std::this_thread::sleep_for(30ms);

  injector.arm(chaos_case.plan);

  const bool partitioned =
      chaos_case.scenario == Scenario::kDrainPartition;
  std::thread healer;
  if (partitioned) {
    // The destination cannot reach the peer's host while the batch lands;
    // the resume retry loop must absorb the outage until the heal.
    net.set_partition(node_name(2), node_name(0), true);
    healer = std::thread([&net] {
      std::this_thread::sleep_for(300ms);
      net.set_partition(node_name(2), node_name(0), false);
    });
  }

  // Phase drain — mass-suspend the source host in latency-tuned waves.
  // Wave suspends run inline; the injected suspend failure (scenario 6's
  // plan) must be retried, not dropped.
  swarm::DrainConfig drain_config;
  drain_config.max_wave = 2;  // multiple waves even for this small fleet
  swarm::DrainCoordinator drain(
      drain_config,
      [&ctrl1](const agent::AgentId& id,
               std::function<void(util::Status)> done) {
        done(ctrl1.prepare_migration(id));
      });
  drain.drain(fleet);
  if (!drain.wait(10s)) {
    if (healer.joinable()) healer.join();
    return fail("drain did not complete");
  }
  const swarm::DrainReport drain_report = drain.report();
  if (drain_report.stragglers != 0) {
    if (healer.joinable()) healer.join();
    return fail("drain left " + std::to_string(drain_report.stragglers) +
                " stragglers");
  }

  // Phase rebalance — batch the drained fleet to chaos2; chaos0 is the
  // fallback for refused admissions (the cascade).
  swarm::SchedulerConfig sched_config;
  sched_config.max_batch = 5;
  sched_config.fallback_destination = node_name(0);
  RealmStageExecutor executor(realm, /*source=*/1, /*prepare=*/false);
  swarm::MigrationScheduler scheduler(sched_config, executor);
  std::vector<swarm::AgentPlan> plans;
  plans.reserve(fleet.size());
  for (const agent::AgentId& id : fleet) {
    plans.push_back(swarm::AgentPlan{id, node_name(2)});
  }
  scheduler.run(plans);
  const bool finished = scheduler.wait(15s);
  if (healer.joinable()) healer.join();
  injector.disarm();
  if (!finished) return fail("scheduler did not complete");
  const swarm::SchedulerReport sched_report = scheduler.report();
  if (sched_report.failed != 0) {
    return fail("scheduler failed " + std::to_string(sched_report.failed) +
                " agents");
  }
  if (sched_report.migrated != fleet.size()) {
    return fail("scheduler migrated " +
                std::to_string(sched_report.migrated) + " of " +
                std::to_string(fleet.size()));
  }
  if (chaos_case.scenario == Scenario::kCascadeRebalance &&
      sched_report.rerouted == 0) {
    return fail("cascade-rebalance: admission refusal did not reroute "
                "any agents");
  }

  // Phase judgement — find where the server agent actually landed, then
  // the usual oracles: liveness, ledger balance, FSM legality.
  const auto srv_loc = realm.locations().try_lookup(srv);
  if (!srv_loc.has_value()) return fail("server agent lost");
  nsock::SessionPtr client2 = ctrl0.session_by_id(conn);
  nsock::SessionPtr server2 =
      realm.node(srv_loc->server_name).controller().session_by_id(conn);
  if (!client2 || !server2) return fail("session lost across rebalance");
  if (auto st = await_established(*client2, 8s); !st.ok()) {
    return fail(st.to_string());
  }
  if (auto st = await_established(*server2, 8s); !st.ok()) {
    return fail(st.to_string());
  }

  while (true) {
    auto got = client2->recv(500ms);
    if (!got.ok()) break;
    ledger.record_delivered(kRev, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }

  for (int i = 0; i < 2; ++i) {
    const std::string body = "post" + std::to_string(i);
    if (auto st = client2->send(span_of(body), 2s); !st.ok()) {
      return fail("post-rebalance send: " + st.to_string());
    }
    ledger.record_sent(kFwd, span_of(body));
    auto got = server2->recv(2s);
    if (!got.ok()) {
      return fail("post-rebalance recv: " + got.status().to_string());
    }
    ledger.record_delivered(kFwd, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }

  if (auto st = ledger.check(/*require_complete=*/true); !st.ok()) {
    return fail(st.to_string());
  }
  if (auto st = check_fsm_trace(injector.transitions()); !st.ok()) {
    return fail(st.to_string());
  }

  const auto counters = net.counters();
  result.net_datagrams_dropped = counters.datagrams_dropped;
  result.stats =
      "drain: waves=" + std::to_string(drain_report.waves) +
      " retries=" + std::to_string(drain_report.retries) +
      " | scheduler: batches=" + std::to_string(sched_report.batches) +
      " exchanges=" + std::to_string(sched_report.handoff_exchanges) +
      " rerouted=" + std::to_string(sched_report.rerouted);
  result.pass = true;
  return result;
}

/// Node config for group cases: the group sweep itself plus
/// recovery-grade patience (the rollback resumes acknowledged members
/// through the redirector). Only the mover's host (chaos0) carries a
/// journal, and only the crash scenario needs one.
nsock::NodeConfig group_node_config(const ChaosCase& chaos_case, int i,
                                    const std::string& durable_dir) {
  nsock::NodeConfig config;
  config.controller.security = false;
  config.server.rudp_config.retransmit_interval = 15ms;
  config.server.rudp_config.max_attempts = 40;
  config.server.rudp_config.jitter_seed = chaos_case.seed * 3 + i + 1;
  config.server.rudp_config.repair = net::LossRepair::kXorFec;
  config.controller.ctrl_response_timeout = 1s;
  config.controller.drain_timeout = 1s;
  config.controller.group_suspend = true;
  config.controller.group_prepare_timeout = 3s;
  config.controller.suspend_rollback = true;
  config.controller.resume_max_attempts = 25;
  config.controller.resume_retry_backoff = 50ms;
  config.controller.resume_retry_cap = 400ms;
  config.controller.resume_timeout = 8s;
  config.controller.redirector_leases.enabled = true;
  config.controller.redirector_leases.ttl = 3s;
  if (!durable_dir.empty()) {
    config.controller.durability.enabled = true;
    config.controller.durability.dir = durable_dir;
    config.controller.durability.compact_every = 8;
  }
  return config;
}

/// The group-suspend choreography behind Scenario::kGroupCrashCommit and
/// Scenario::kGroupPeerRefusal: one agent (chaos-cli on chaos0) holds
/// several live connections to chaos-srv on chaos1, and the whole set is
/// swept through the atomic group barrier. Scenario 8 kills the mover's
/// host in the prepare→commit journal window and recovery must be
/// all-or-nothing; scenario 9 has one peer refuse mid-prepare under send
/// load and the ENTIRE group must roll back with blocked senders waking.
ChaosResult run_group_case(const ChaosCase& chaos_case) {
  ChaosResult result;
  const auto fail = [&](const std::string& why) {
    result.pass = false;
    result.failure = why;
    result.recorder_dump = obs::dump_all();
    return result;
  };

  Injector& injector = Injector::instance();
  injector.disarm();

  const bool crash = chaos_case.scenario == Scenario::kGroupCrashCommit;
  const JournalDir journal(chaos_case);
  const std::string durable_dir = crash ? journal.path() : std::string();

  net::SimNet net(chaos_case.seed);
  net.set_default_link(net::LinkConfig{.latency = 1ms});

  nsock::Realm realm;
  for (int i = 0; i < 3; ++i) {
    realm.add_node(node_name(i), net.add_node(node_name(i)),
                   group_node_config(chaos_case, i,
                                     i == 0 ? durable_dir : std::string()));
  }
  if (auto st = realm.start(); !st.ok()) {
    return fail("realm start: " + st.to_string());
  }

  const agent::AgentId cli("chaos-cli");
  const agent::AgentId srv("chaos-srv");
  realm.locations().register_agent(
      cli, realm.node(node_name(0)).server().node_info());
  realm.locations().register_agent(
      srv, realm.node(node_name(1)).server().node_info());

  auto& ctrl0 = realm.node(node_name(0)).controller();
  auto& ctrl1 = realm.node(node_name(1)).controller();
  if (auto st = ctrl1.listen(srv); !st.ok()) {
    return fail("listen: " + st.to_string());
  }

  // The group: one agent, several live connections — the point of the
  // barrier is that they suspend as one atomic cut.
  constexpr int kConns = 3;
  std::vector<nsock::SessionPtr> clients, servers;
  std::vector<std::uint64_t> conns;
  for (int i = 0; i < kConns; ++i) {
    auto client = ctrl0.connect(cli, srv);
    if (!client.ok()) return fail("connect: " + client.status().to_string());
    auto server = ctrl1.accept(srv, 5s);
    if (!server.ok()) return fail("accept: " + server.status().to_string());
    clients.push_back(*client);
    servers.push_back(*server);
    conns.push_back((*client)->conn_id());
  }

  DeliveryLedger ledger;
  const auto fwd = [](int i) { return static_cast<std::uint64_t>(2 * i); };
  const auto rev = [](int i) { return static_cast<std::uint64_t>(2 * i + 1); };
  const auto deliver = [&ledger](std::uint64_t stream, std::uint64_t seq,
                                 const util::Bytes& body) {
    ledger.record_delivered(stream, seq,
                            util::ByteSpan(body.data(), body.size()));
  };

  // Phase A — per-connection traffic: forward delivered live, reverse
  // left riding toward the suspension buffers.
  for (int i = 0; i < kConns; ++i) {
    for (int j = 0; j < chaos_case.forward_msgs; ++j) {
      const std::string body =
          "f" + std::to_string(i) + "." + std::to_string(j);
      if (auto st = clients[i]->send(span_of(body), 2s); !st.ok()) {
        return fail("pre-fault send: " + st.to_string());
      }
      ledger.record_sent(fwd(i), span_of(body));
    }
    for (int j = 0; j < chaos_case.forward_msgs; ++j) {
      auto got = servers[i]->recv(2s);
      if (!got.ok()) {
        return fail("pre-fault recv: " + got.status().to_string());
      }
      deliver(fwd(i), got->seq, got->body);
    }
    for (int j = 0; j < chaos_case.reverse_msgs; ++j) {
      const std::string body =
          "r" + std::to_string(i) + "." + std::to_string(j);
      if (auto st = servers[i]->send(span_of(body), 2s); !st.ok()) {
        return fail("reverse send: " + st.to_string());
      }
      ledger.record_sent(rev(i), span_of(body));
    }
  }
  std::this_thread::sleep_for(30ms);

  // Phase B — scenario choreography.
  std::uint64_t rollbacks = 0;
  if (crash) {
    // The kill lands between the group-prepare and group-commit journal
    // records; the first migration attempt must fail.
    injector.arm(chaos_case.plan);
    const util::Status first = migrate_agent(realm, cli, 0, 2);
    if (first.ok()) {
      injector.disarm();
      return fail("migration succeeded despite the kill between group "
                  "prepare and commit");
    }

    // The crash: the mover's host (the one holding the journal) dies with
    // no protocol goodbye and is stood up again from its journal.
    realm.remove_node(node_name(0));
    injector.disarm();
    auto& node0 =
        realm.add_node(node_name(0), net.add_node(node_name(0)),
                       group_node_config(chaos_case, 0, durable_dir));
    if (auto st = node0.start(); !st.ok()) {
      return fail("restart: " + st.to_string());
    }
    if (auto st = node0.controller().recover(); !st.ok()) {
      return fail("recover: " + st.to_string());
    }
    realm.locations().register_agent(cli, node0.server().node_info());

    // The all-or-nothing oracle: after recover() the agent must never be
    // left with a SUSPENDED/ESTABLISHED mix. The dangling prepare rolls
    // forward (every peer had sealed), so the deterministic outcome is
    // ALL suspended.
    int suspended = 0, established = 0;
    for (int i = 0; i < kConns; ++i) {
      const nsock::SessionPtr session =
          node0.controller().session_by_id(conns[i]);
      if (session == nullptr) {
        return fail("conn " + std::to_string(conns[i]) +
                    " lost across the crash");
      }
      const nsock::ConnState st = session->state();
      if (st == nsock::ConnState::kSuspended) {
        ++suspended;
      } else if (st == nsock::ConnState::kEstablished) {
        ++established;
      }
    }
    if (suspended != 0 && established != 0) {
      return fail("all-or-nothing violated: " + std::to_string(suspended) +
                  " suspended, " + std::to_string(established) +
                  " established after recover()");
    }
    if (suspended != kConns) {
      return fail("dangling group prepare did not roll forward: " +
                  std::to_string(suspended) + "/" + std::to_string(kConns) +
                  " suspended");
    }

    // The cut the group declared must be causally consistent; the peers
    // recorded each member's mark at passive suspension, and the marks
    // survived the mover's crash.
    std::vector<DeliveryLedger::CutPoint> cut;
    for (int i = 0; i < kConns; ++i) {
      const std::uint64_t mark = servers[i]->flags().peer_declared_seq;
      if (mark == 0) {
        return fail("peer of conn " + std::to_string(conns[i]) +
                    " holds no declared group mark");
      }
      cut.push_back({fwd(i), mark});
    }
    if (auto st = ledger.check_consistent_cut(cut); !st.ok()) {
      return fail(st.to_string());
    }

    // Roll the interrupted migration forward to its destination.
    if (auto st = migrate_agent(realm, cli, 0, 2); !st.ok()) {
      return fail("post-recovery migration: " + st.to_string());
    }
  } else {
    // kGroupPeerRefusal: concurrent send pressure on every member while
    // the first group SUS the peer host processes is refused.
    std::vector<std::thread> load;
    std::vector<util::Status> load_status(kConns, util::OkStatus());
    for (int i = 0; i < kConns; ++i) {
      load.emplace_back([&, i] {
        for (int j = 0; j < 8; ++j) {
          const std::string body =
              "l" + std::to_string(i) + "." + std::to_string(j);
          if (auto st = clients[i]->send(span_of(body), 10s); !st.ok()) {
            load_status[i] = st;
            return;
          }
          ledger.record_sent(fwd(i), span_of(body));
          std::this_thread::sleep_for(2ms);
        }
      });
    }
    std::this_thread::sleep_for(10ms);

    injector.arm(chaos_case.plan);
    const util::Status refused = ctrl0.prepare_migration(cli);
    injector.disarm();
    if (refused.ok()) {
      for (auto& t : load) t.join();
      return fail("group prepare succeeded despite the refused peer");
    }

    // Full-group rollback oracle: every member returns to ESTABLISHED
    // (never a mix), and the senders blocked across the rollback wake
    // and finish cleanly.
    for (int i = 0; i < kConns; ++i) {
      if (auto st = await_established(*clients[i], 8s); !st.ok()) {
        for (auto& t : load) t.join();
        return fail("rollback: " + st.to_string());
      }
    }
    for (auto& t : load) t.join();
    for (int i = 0; i < kConns; ++i) {
      if (!load_status[i].ok()) {
        return fail("sender under rollback: " + load_status[i].to_string());
      }
    }
    rollbacks = ctrl0.group_rollbacks();
    if (rollbacks == 0) {
      return fail("refusal did not count a group rollback");
    }

    // Retry the sweep fault-free with senders RACING the freeze: the
    // consistent-cut oracle proves no send slipped past another member's
    // pinned mark. Sends that time out never entered the stream (the
    // freeze parks them before the write), so only OK sends are recorded.
    std::atomic<bool> stop{false};
    std::vector<std::thread> racers;
    std::vector<util::Status> racer_status(kConns, util::OkStatus());
    for (int i = 0; i < kConns; ++i) {
      racers.emplace_back([&, i] {
        int j = 0;
        while (!stop.load()) {
          const std::string body =
              "g" + std::to_string(i) + "." + std::to_string(j);
          auto st = clients[i]->send(span_of(body), 300ms);
          if (st.ok()) {
            ledger.record_sent(fwd(i), span_of(body));
            ++j;
          } else if (st.code() != util::StatusCode::kTimeout) {
            racer_status[i] = st;
            return;
          }
          std::this_thread::sleep_for(2ms);
        }
      });
    }
    std::this_thread::sleep_for(10ms);
    realm.locations().begin_migration(cli);
    const util::Status prepared = ctrl0.prepare_migration(cli);
    stop.store(true);
    for (auto& t : racers) t.join();
    if (!prepared.ok()) {
      realm.locations().end_migration(cli);
      return fail("fault-free retry: " + prepared.to_string());
    }
    for (int i = 0; i < kConns; ++i) {
      if (!racer_status[i].ok()) {
        realm.locations().end_migration(cli);
        return fail("racing sender: " + racer_status[i].to_string());
      }
    }

    std::vector<DeliveryLedger::CutPoint> cut;
    for (int i = 0; i < kConns; ++i) {
      if (clients[i]->state() != nsock::ConnState::kSuspended) {
        realm.locations().end_migration(cli);
        return fail("conn " + std::to_string(conns[i]) +
                    " not SUSPENDED after the group prepare: " +
                    std::string(nsock::to_string(clients[i]->state())));
      }
      cut.push_back({fwd(i), clients[i]->sent_seq()});
    }
    if (auto st = ledger.check_consistent_cut(cut); !st.ok()) {
      realm.locations().end_migration(cli);
      return fail(st.to_string());
    }

    // Ship the suspended group to its destination.
    const util::Bytes blob = ctrl0.export_sessions(cli);
    auto& node2 = realm.node(node_name(2));
    if (auto st = node2.controller().import_sessions(
            cli, util::ByteSpan(blob.data(), blob.size()));
        !st.ok()) {
      realm.locations().end_migration(cli);
      return fail("import: " + st.to_string());
    }
    realm.locations().register_agent(cli, node2.server().node_info());
    if (auto st = node2.controller().complete_migration(cli); !st.ok()) {
      return fail("complete: " + st.to_string());
    }
  }

  // Phase C — judgement: liveness bounds the re-establishment, then the
  // ledger must balance exactly once across the whole ordeal.
  std::vector<nsock::SessionPtr> clients2, servers2;
  for (int i = 0; i < kConns; ++i) {
    nsock::SessionPtr c =
        realm.node(node_name(2)).controller().session_by_id(conns[i]);
    nsock::SessionPtr s = ctrl1.session_by_id(conns[i]);
    if (!c || !s) return fail("session lost across the group migration");
    if (auto st = await_established(*c, 8s); !st.ok()) {
      return fail(st.to_string());
    }
    if (auto st = await_established(*s, 8s); !st.ok()) {
      return fail(st.to_string());
    }
    clients2.push_back(std::move(c));
    servers2.push_back(std::move(s));
  }

  for (int i = 0; i < kConns; ++i) {
    while (true) {
      auto got = clients2[i]->recv(500ms);
      if (!got.ok()) break;
      deliver(rev(i), got->seq, got->body);
    }
    while (true) {
      auto got = servers2[i]->recv(300ms);
      if (!got.ok()) break;
      deliver(fwd(i), got->seq, got->body);
    }
    for (int j = 0; j < 2; ++j) {
      const std::string body =
          "post" + std::to_string(i) + "." + std::to_string(j);
      if (auto st = clients2[i]->send(span_of(body), 2s); !st.ok()) {
        return fail("post-migration send: " + st.to_string());
      }
      ledger.record_sent(fwd(i), span_of(body));
      auto got = servers2[i]->recv(2s);
      if (!got.ok()) {
        return fail("post-migration recv: " + got.status().to_string());
      }
      deliver(fwd(i), got->seq, got->body);
    }
  }

  if (auto st = ledger.check(/*require_complete=*/true); !st.ok()) {
    return fail(st.to_string());
  }
  if (auto st = check_fsm_trace(injector.transitions()); !st.ok()) {
    return fail(st.to_string());
  }

  const auto counters = net.counters();
  result.net_datagrams_dropped = counters.datagrams_dropped;
  const auto cli_stats = realm.node(node_name(2)).controller().stats();
  const auto srv_stats = ctrl1.stats();
  result.ctrl_retransmissions =
      cli_stats.ctrl_retransmissions + srv_stats.ctrl_retransmissions;
  result.stats = "group: rollbacks=" + std::to_string(rollbacks) +
                 "\nclient: " + cli_stats.to_string() +
                 "\nserver: " + srv_stats.to_string();
  result.pass = true;
  return result;
}

}  // namespace

ChaosResult run_case(const ChaosCase& chaos_case) {
  if (is_group_scenario(chaos_case.scenario)) {
    return run_group_case(chaos_case);
  }
  if (is_swarm_scenario(chaos_case.scenario)) {
    return run_swarm_case(chaos_case);
  }
  if (is_crash_scenario(chaos_case.scenario)) {
    return run_crash_case(chaos_case);
  }

  ChaosResult result;
  const auto fail = [&](const std::string& why) {
    result.pass = false;
    result.failure = why;
    result.recorder_dump = obs::dump_all();
    return result;
  };

  Injector& injector = Injector::instance();
  injector.disarm();

  net::SimNet net(chaos_case.seed);
  net.set_default_link(net::LinkConfig{.latency = 1ms});

  nsock::Realm realm;
  for (int i = 0; i < 3; ++i) {
    nsock::NodeConfig config;
    config.controller.security = false;
    config.server.rudp_config.retransmit_interval = 15ms;
    config.server.rudp_config.max_attempts = 40;
    // Decorrelated but reproducible retransmit jitter per node.
    config.server.rudp_config.jitter_seed = chaos_case.seed * 3 + i + 1;
    // XOR-FEC on the control channel keeps the rudp.sack / rudp.fast_retx
    // / rudp.fec fault sites live under the oracles.
    config.server.rudp_config.repair = net::LossRepair::kXorFec;
    realm.add_node(node_name(i), net.add_node(node_name(i)), config);
  }
  if (auto st = realm.start(); !st.ok()) {
    return fail("realm start: " + st.to_string());
  }

  const agent::AgentId cli("chaos-cli");
  const agent::AgentId srv("chaos-srv");
  realm.locations().register_agent(
      cli, realm.node(node_name(0)).server().node_info());
  realm.locations().register_agent(
      srv, realm.node(node_name(1)).server().node_info());

  auto& ctrl0 = realm.node(node_name(0)).controller();
  auto& ctrl1 = realm.node(node_name(1)).controller();
  if (auto st = ctrl1.listen(srv); !st.ok()) {
    return fail("listen: " + st.to_string());
  }
  auto client = ctrl0.connect(cli, srv);
  if (!client.ok()) return fail("connect: " + client.status().to_string());
  auto server = ctrl1.accept(srv, 5s);
  if (!server.ok()) return fail("accept: " + server.status().to_string());
  const std::uint64_t conn = (*client)->conn_id();

  DeliveryLedger ledger;
  constexpr std::uint64_t kFwd = 0, kRev = 1;

  // Phase A — traffic. Forward messages are delivered live; reverse
  // messages are left undrained so they ride the suspension buffer across
  // the migration (the resume replay path the oracles watch).
  for (int i = 0; i < chaos_case.forward_msgs; ++i) {
    const std::string body =
        "f" + std::to_string(i) + "." + std::to_string(chaos_case.seed);
    if (auto st = (*client)->send(span_of(body), 2s); !st.ok()) {
      return fail("pre-fault send: " + st.to_string());
    }
    ledger.record_sent(kFwd, span_of(body));
  }
  for (int i = 0; i < chaos_case.forward_msgs; ++i) {
    auto got = (*server)->recv(2s);
    if (!got.ok()) return fail("pre-fault recv: " + got.status().to_string());
    ledger.record_delivered(kFwd, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }
  for (int i = 0; i < chaos_case.reverse_msgs; ++i) {
    const std::string body =
        "r" + std::to_string(i) + "." + std::to_string(chaos_case.seed);
    if (auto st = (*server)->send(span_of(body), 2s); !st.ok()) {
      return fail("reverse send: " + st.to_string());
    }
    ledger.record_sent(kRev, span_of(body));
  }
  // Let the reverse frames reach the client's stream so the suspend drain
  // pulls them into the migrating session's buffer.
  std::this_thread::sleep_for(30ms);

  // Phase B — the migrations, under the armed plan.
  injector.arm(chaos_case.plan);
  util::Status cli_migrate = util::OkStatus();
  util::Status srv_migrate = util::OkStatus();
  int cli_node = 0, srv_node = 1;
  switch (chaos_case.scenario) {
    case Scenario::kSingleMigration:
      cli_migrate = migrate_agent(realm, cli, 0, 2);
      cli_node = 2;
      break;
    case Scenario::kDoubleSequential:
      cli_migrate = migrate_agent(realm, cli, 0, 2);
      cli_node = 2;
      srv_migrate = migrate_agent(realm, srv, 1, 0);
      srv_node = 0;
      break;
    case Scenario::kDoubleOverlapped: {
      std::thread mover(
          [&] { cli_migrate = migrate_agent(realm, cli, 0, 2); });
      srv_migrate = migrate_agent(realm, srv, 1, 0);
      mover.join();
      cli_node = 2;
      srv_node = 0;
      break;
    }
    default:
      // Crash, swarm, and group scenarios dispatch to their own runners
      // before this switch is reached.
      break;
  }
  injector.disarm();
  if (!cli_migrate.ok()) {
    return fail("client migration: " + cli_migrate.to_string());
  }
  if (!srv_migrate.ok()) {
    return fail("server migration: " + srv_migrate.to_string());
  }

  // Phase C — judgement. Faults have ceased; the liveness watchdog bounds
  // re-establishment, then the ledger must balance exactly once.
  nsock::SessionPtr client2 =
      realm.node(node_name(cli_node)).controller().session_by_id(conn);
  nsock::SessionPtr server2 =
      realm.node(node_name(srv_node)).controller().session_by_id(conn);
  if (!client2 || !server2) return fail("session lost across migration");
  if (auto st = await_established(*client2, 8s); !st.ok()) {
    return fail(st.to_string());
  }
  if (auto st = await_established(*server2, 8s); !st.ok()) {
    return fail(st.to_string());
  }

  while (true) {
    auto got = client2->recv(500ms);
    if (!got.ok()) break;
    ledger.record_delivered(kRev, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }

  // Post-fault sanity traffic proves the resumed connection still carries
  // data both ways.
  for (int i = 0; i < 2; ++i) {
    const std::string body = "post" + std::to_string(i);
    if (auto st = client2->send(span_of(body), 2s); !st.ok()) {
      return fail("post-fault send: " + st.to_string());
    }
    ledger.record_sent(kFwd, span_of(body));
    auto got = server2->recv(2s);
    if (!got.ok()) return fail("post-fault recv: " + got.status().to_string());
    ledger.record_delivered(kFwd, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }

  if (auto st = ledger.check(/*require_complete=*/true); !st.ok()) {
    return fail(st.to_string());
  }
  const auto trace = injector.transitions();
  if (auto st = check_fsm_trace(trace); !st.ok()) {
    return fail(st.to_string());
  }

  const auto counters = net.counters();
  result.net_datagrams_dropped = counters.datagrams_dropped;
  const auto cli_stats =
      realm.node(node_name(cli_node)).controller().stats();
  const auto srv_stats =
      realm.node(node_name(srv_node)).controller().stats();
  result.ctrl_retransmissions =
      cli_stats.ctrl_retransmissions + srv_stats.ctrl_retransmissions;
  result.stats = "client: " + cli_stats.to_string() +
                 "\nserver: " + srv_stats.to_string();
  result.pass = true;
  return result;
}

Plan minimize_plan(const ChaosCase& failing, int* reruns) {
  Plan current = failing.plan;
  bool shrunk = true;
  while (shrunk && current.rules.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < current.rules.size(); ++i) {
      Plan candidate = current;
      candidate.rules.erase(candidate.rules.begin() +
                            static_cast<std::ptrdiff_t>(i));
      ChaosCase retry = failing;
      retry.plan = candidate;
      if (reruns) ++*reruns;
      if (!run_case(retry).pass) {
        current = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return current;
}

std::vector<std::string> known_sites() {
  return {std::begin(kFaultSites), std::end(kFaultSites)};
}

Rule planted_duplicate_replay_rule() {
  Rule rule;
  rule.site = "session.resume.replay";
  rule.hit = 1;
  rule.action = Action::kDuplicate;
  return rule;
}

}  // namespace naplet::fault
