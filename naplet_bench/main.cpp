// naplet-bench entry point: one workload, one seed, one measured window.
//
//   naplet_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--out-dir <dir>]
//
// --trace 0: set the workload up several times (median setup_s), measure
// once with tracing off, and report the end-to-end metrics.
// --trace 1: measure untraced, then again on a fresh set-up with spans on,
// and report the per-layer metrics; the span records go to
// <out-dir>/trace-<workload>-<seed>.csv.
//
// Human-readable lines go to stdout first; the last line is one JSON object
// with every metric, the run stamp and the correctness counts (run.py
// checks it against BENCHMARK.json).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/wire.hpp"
#include "crypto/dh.hpp"
#include "workloads.hpp"

namespace naplet::nbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ",";
    out += json_str(ms[i].name) + ":{\"value\":" + json_num(ms[i].value) +
           ",\"unit\":" + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ops_per_s(const Measurement& m) {
  return ratio(static_cast<double>(m.completed()), m.wall_s);
}

/// Median over the slices of one per-slice value, skipping slices that
/// have no value (NaN).
template <typename Field>
double slice_median(const std::vector<Slice>& ss, Field field) {
  std::vector<double> xs;
  for (const Slice& s : ss) {
    if (!std::isnan(s.*field)) xs.push_back(s.*field);
  }
  return median(std::move(xs));
}

/// Which one-second slices the window's medians are taken over: not the
/// first (a fresh realm still runs slower in it), and of the rest the half
/// in which the hypervisor gave the least host CPU to other guests.
std::vector<bool> counted_slices(const std::vector<Slice>& ss) {
  std::vector<std::size_t> order;
  for (std::size_t i = 1; i < ss.size(); ++i) order.push_back(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ss[a].steal_pct < ss[b].steal_pct;
                   });
  std::vector<bool> counted(ss.size(), false);
  for (std::size_t i = 0; i < (order.size() + 1) / 2; ++i) {
    counted[order[i]] = true;
  }
  return counted;
}

std::vector<Slice> quiet_slices(const Measurement& m) {
  const std::vector<Slice> all = slices(m);
  const std::vector<bool> counted = counted_slices(all);
  std::vector<Slice> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (counted[i]) out.push_back(all[i]);
  }
  return out;
}

/// Rates and p50s are medians of their one-second values over the quiet
/// slices, so neither a burst of host interference that covers less than
/// half the window nor the noisier half of the window moves them.
std::vector<Metric> end_to_end(const Measurement& m,
                               const std::vector<double>& setups,
                               double rss_mb, std::uint64_t attempted,
                               std::uint64_t failed) {
  const double failed_share =
      std::min(1.0, ratio(static_cast<double>(failed),
                          static_cast<double>(attempted)));
  const std::vector<Slice> ss = quiet_slices(m);
  return {
      {"setup_s", median(setups), "s"},
      {"ops_per_s", slice_median(ss, &Slice::ops_per_s), "1/s"},
      {"op_p50_ms", slice_median(ss, &Slice::op_p50_ms), "ms"},
      {"event_p50_ms", slice_median(ss, &Slice::event_p50_ms), "ms"},
      {"rss_mb", rss_mb, "MB"},
      {"ok_share", 1.0 - failed_share, "ratio"},
  };
}

/// Figures of the untraced window that swing too far with the host's
/// load to gate on: the whole-window tails, and the process CPU per op,
/// which on the latency-bound lossy_hop mostly prices thread wake-ups
/// inside the virtual machine. Every run reports them, and traced runs
/// carry them as per-layer metrics.
std::vector<Metric> ungated(const Workload& w, Measurement m) {
  return {{"tail.op_ms", percentile(m.op.ms, w.tail_percentile()), "ms"},
          {"tail.event_p99_ms", percentile(m.event.ms, 99), "ms"},
          {"proc.cpu_ms_per_op",
           slice_median(quiet_slices(m), &Slice::cpu_ms_per_op), "ms"}};
}

/// Time the crypto layer's public calls with this workload's DH group and
/// control-message size (spans crypto.*).
void crypto_probes(const util::Bytes& ctrl_payload) {
  Span root(kOpProbe);
  const crypto::DhGroup group = nsock::ControllerConfig{}.dh_group;
  for (int i = 0; i < 16; ++i) {
    auto mine = [&] {
      Span s(kCryptoKeygen);
      return crypto::DhKeyPair::generate(group);
    }();
    auto peer = crypto::DhKeyPair::generate(group);
    if (!mine.ok() || !peer.ok()) throw std::runtime_error("DH keygen");
    Span s(kCryptoSessionKey);
    if (!mine->session_key(peer->public_value()).ok()) {
      throw std::runtime_error("DH session key");
    }
  }
  const util::Bytes key(32, 0x42);
  static volatile std::uint8_t sink = 0;  // keeps the MACs observable
  for (int i = 0; i < 4096; ++i) {
    Span s(kCryptoHmac);
    sink = sink ^ nsock::compute_mac(key, ctrl_payload)[0];
  }
}

const obs::HistogramSnapshot* hist(const Measurement& m, const char* name) {
  return m.merged.histogram(name);
}

double hist_mean(const Measurement& m, const char* name) {
  const auto* h = hist(m, name);
  return h == nullptr ? 0.0 : h->mean();
}

double hist_pct(const Measurement& m, const char* name, double p) {
  const auto* h = hist(m, name);
  return h == nullptr ? 0.0 : h->percentile(p);
}

double counter(const Measurement& m, const char* name) {
  const auto* c = m.merged.counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value);
}

std::vector<Metric> per_layer(const Measurement& m,
                              const std::array<SpanAgg, kSpanCount>& spans,
                              double untraced_ops_per_s, double kb_per_session,
                              std::uint64_t spans_total) {
  const auto p50_us = [&](SpanId id) {
    return spans[id].hist.percentile_ns(50) / 1000.0;
  };
  const double connects = static_cast<double>(m.connects);
  const double msgs = static_cast<double>(m.messages);
  const double ops = static_cast<double>(m.completed());
  const auto self_us_per_op = [&](const char* layer) {
    double ns = 0;
    for (int i = 0; i < kSpanCount; ++i) {
      if (i == kOpProbe) continue;
      const std::string name = kSpanNames[static_cast<std::size_t>(i)];
      if (name.rfind(layer, 0) == 0) {
        ns += static_cast<double>(spans[static_cast<std::size_t>(i)].self_ns);
      }
    }
    return ratio(ns / 1000.0, ops);
  };
  double hop_parts_ns = 0;
  for (SpanId id : {kCorePrepare, kCoreExport, kCoreImport, kCoreComplete,
                    kAgentLocation}) {
    hop_parts_ns += static_cast<double>(spans[id].total_ns);
  }
  const double hop_ns = static_cast<double>(spans[kOpHop].total_ns);
  double phases_ms = 0;
  for (double v : m.connect_phase_ms) phases_ms += v;
  const double traced_ops_per_s = ops_per_s(m);

  return {
      {"core.connect_us", p50_us(kCoreConnect), "us"},
      {"core.accept_us", p50_us(kCoreAccept), "us"},
      {"core.close_us", p50_us(kCoreClose), "us"},
      {"connect.management_ms", ratio(m.connect_phase_ms[0], connects), "ms"},
      {"connect.security_ms", ratio(m.connect_phase_ms[1], connects), "ms"},
      {"connect.key_exchange_ms", ratio(m.connect_phase_ms[2], connects), "ms"},
      {"connect.handshake_ms", ratio(m.connect_phase_ms[3], connects), "ms"},
      {"connect.open_socket_ms", ratio(m.connect_phase_ms[4], connects), "ms"},
      {"core.prepare_migration_us", p50_us(kCorePrepare), "us"},
      {"core.export_sessions_us", p50_us(kCoreExport), "us"},
      {"core.import_sessions_us", p50_us(kCoreImport), "us"},
      {"core.complete_migration_us", p50_us(kCoreComplete), "us"},
      {"core.export_bytes",
       ratio(m.export_bytes_total, static_cast<double>(m.exports)), "bytes"},
      {"ctrl.suspend_us", hist_mean(m, "nsock_suspend_latency_us"), "us"},
      {"ctrl.drain_us", hist_mean(m, "nsock_drain_time_us"), "us"},
      {"ctrl.handoff_us", hist_mean(m, "nsock_handoff_time_us"), "us"},
      {"ctrl.resume_us", hist_mean(m, "nsock_resume_latency_us"), "us"},
      {"ctrl.replayed_bytes", hist_mean(m, "nsock_replayed_buffer_bytes"),
       "bytes"},
      {"core.suspend_us", p50_us(kCoreSuspend), "us"},
      {"core.resume_us", p50_us(kCoreResume), "us"},
      {"core.send_us", p50_us(kCoreSend), "us"},
      {"core.recv_wait_us", p50_us(kCoreRecvWait), "us"},
      {"data.writes_per_msg",
       ratio(static_cast<double>(m.data.stream_write_ops), msgs), "count"},
      {"data.reads_per_msg",
       ratio(static_cast<double>(m.data.stream_read_ops), msgs), "count"},
      {"data.wakeups_per_msg",
       ratio(static_cast<double>(m.data.recv_wakeups), msgs), "count"},
      {"data.copied_bytes_per_msg",
       ratio(static_cast<double>(m.data.payload_bytes_copied), msgs), "bytes"},
      {"data.frames_coalesced_per_msg",
       ratio(static_cast<double>(m.data.frames_coalesced), msgs), "count"},
      {"crypto.dh_keygen_us", p50_us(kCryptoKeygen), "us"},
      {"crypto.dh_session_key_us", p50_us(kCryptoSessionKey), "us"},
      {"crypto.hmac_ctrl_us", p50_us(kCryptoHmac), "us"},
      {"rudp.rtt_us_p50", hist_pct(m, "rudp_rtt_us", 50), "us"},
      {"rudp.rtt_us_p99", hist_pct(m, "rudp_rtt_us", 99), "us"},
      {"rudp.retransmits_per_send", hist_mean(m, "rudp_retransmits_per_send"),
       "count"},
      {"rudp.fast_retransmits", counter(m, "rudp_fast_retransmits"), "count"},
      {"rudp.sack_blocks", counter(m, "rudp_sack_blocks"), "count"},
      {"rudp.retx_ratio",
       ratio(static_cast<double>(m.ctrl_retransmissions),
             static_cast<double>(m.ctrl_messages_sent)),
       "ratio"},
      {"net.datagrams_dropped", static_cast<double>(m.datagrams_dropped),
       "count"},
      {"agent.location_us", p50_us(kAgentLocation), "us"},
      {"table.shard_max_over_mean", m.shard_max_over_mean, "ratio"},
      {"table.kb_per_session", kb_per_session, "KB"},
      {"proc.threads", static_cast<double>(m.threads), "count"},
      {"proc.cpu_util", ratio(m.cpu_s, m.wall_s), "cpu_s/s"},
      {"trace.overhead_pct",
       100.0 * ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s),
       "%"},
      {"trace.spans", static_cast<double>(spans_total), "count"},
      {"self.core_us_per_op", self_us_per_op("core."), "us"},
      {"self.agent_us_per_op", self_us_per_op("agent."), "us"},
      {"self.harness_us_per_op", self_us_per_op("op."), "us"},
      {"coverage.connect_pct", 100.0 * ratio(phases_ms, m.connect_ms_total),
       "%"},
      {"coverage.connect_base_ms", m.connect_ms_total, "ms"},
      {"coverage.hop_pct", 100.0 * ratio(hop_parts_ns, hop_ns), "%"},
      {"coverage.hop_base_ms", hop_ns / 1e6, "ms"},
  };
}

struct Stamp {
  std::vector<std::pair<std::string, std::string>> fields;
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i) out += ",";
      out += json_str(fields[i].first) + ":" + json_str(fields[i].second);
    }
    return out + "}";
  }
};

std::string runtime_stamp() {
  const nsock::ControllerConfig config;  // what every workload runs
  std::string dh =
      "DH group " + std::to_string(static_cast<int>(config.dh_group));
  switch (config.dh_group) {
    case crypto::DhGroup::kModp768: dh = "DH MODP-768"; break;
    case crypto::DhGroup::kModp1536: dh = "DH MODP-1536"; break;
    case crypto::DhGroup::kModp2048: dh = "DH MODP-2048"; break;
  }
  return std::string(config.reactor.enabled ? "reactor" : "threaded") +
         ", security " + (config.security ? "on" : "off") + ", " + dh +
         " (default ControllerConfig)";
}

Stamp make_stamp(const Workload& w, const Args& a) {
#ifdef NDEBUG
  const char* ndebug = "yes";
#else
  const char* ndebug = "no (Debug build: lock-rank validator on, numbers "
                       "not comparable)";
#endif
  return {{{"workload", w.name()},
           {"seed", std::to_string(a.seed)},
           {"seconds", json_num(a.seconds)},
           {"nproc", std::to_string(std::thread::hardware_concurrency())},
           {"compiler", NAPLET_BENCH_COMPILER},
           {"build_type", NAPLET_BENCH_BUILD_TYPE},
           {"ndebug", ndebug},
           {"network", w.network()},
           {"runtime", runtime_stamp()}}};
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const Stamp stamp = make_stamp(*w, a);
  for (const auto& [k, v] : stamp.fields) {
    std::printf("stamp %-10s %s\n", k.c_str(), v.c_str());
  }

  Gate gate;
  std::vector<double> setups;
  // Memory is read after the first set-up, before any sample buffer of
  // the benchmark's own grows.
  double rss_mb = 0;
  double kb_per_session = 0;
  const auto timed_setup = [&] {
    const std::size_t rss0 = rss_bytes();
    const std::int64_t t0 = now_ns();
    w->setup(a.seed);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (setups.size() > 1) return;
    const std::size_t rss1 = rss_bytes();
    rss_mb = static_cast<double>(rss1) / (1024.0 * 1024.0);
    if (rss1 > rss0 && w->resident_sessions() > 0) {
      kb_per_session = static_cast<double>(rss1 - rss0) / 1024.0 /
                       static_cast<double>(w->resident_sessions());
    }
  };

  std::vector<Metric> e2e;
  std::vector<Metric> reported;  // not gated: tails, CPU per op
  std::vector<Slice> per_second;  // of the untraced window
  std::vector<Metric> layers;
  std::uint64_t attempted = 0;
  double steal = 0;  // host CPU stolen during the (untraced) window, %
  if (!a.trace) {
    for (int i = 0; i < w->setup_repeats(); ++i) {
      if (i > 0) w->teardown();
      timed_setup();
    }
    const HostTicks before = host_ticks();
    Measurement m = w->measure(a.seconds, gate);
    steal = steal_pct(before, host_ticks());
    w->teardown();
    attempted = m.attempted;
    e2e = end_to_end(m, setups, rss_mb, attempted, gate.failures());
    reported = ungated(*w, m);
    per_second = slices(m);
  } else {
    timed_setup();
    const HostTicks before = host_ticks();
    Measurement plain = w->measure(a.seconds, gate);
    steal = steal_pct(before, host_ticks());
    w->teardown();
    attempted = plain.attempted;
    e2e = end_to_end(plain, setups, rss_mb, attempted, gate.failures());
    reported = ungated(*w, plain);
    per_second = slices(plain);

    timed_setup();
    Tracer tracer(200'000);
    g_tracer = &tracer;
    Measurement traced = w->measure(a.seconds, gate);
    crypto_probes(w->sample_ctrl_payload());
    g_tracer = nullptr;
    w->teardown();
    attempted += traced.attempted;
    layers = per_layer(traced, tracer.merged(), ops_per_s(plain),
                       kb_per_session, tracer.spans());
    layers.insert(layers.begin(), reported.begin(), reported.end());
    std::filesystem::create_directories(a.out_dir);
    const std::string path = a.out_dir + "/trace-" + w->name() + "-" +
                             std::to_string(a.seed) + ".csv";
    if (tracer.write_csv(path)) {
      std::printf("trace: %llu spans, %llu kept in %s\n",
                  static_cast<unsigned long long>(tracer.spans()),
                  static_cast<unsigned long long>(tracer.kept()),
                  path.c_str());
    }
  }
  const std::uint64_t failed = gate.failures();

  std::printf("host CPU stolen by other guests during the window: %.1f%%\n",
              steal);
  std::printf("set-up times (s):");
  for (double t : setups) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf("per second (end-to-end metrics are the medians over the "
              "slices marked *):\n");
  std::printf("    %8s %10s %12s %13s %8s\n", "ops/s", "op p50 ms",
              "event p50 ms", "cpu ms/op", "steal %");
  const std::vector<bool> counted = counted_slices(per_second);
  for (std::size_t i = 0; i < per_second.size(); ++i) {
    const Slice& s = per_second[i];
    std::printf("  %c %8.1f %10.4f %12.4f %13.4f %8.1f\n",
                counted[i] ? '*' : ' ', s.ops_per_s, s.op_p50_ms,
                s.event_p50_ms, s.cpu_ms_per_op, s.steal_pct);
  }
  print_metrics(a.trace ? "end-to-end (untraced pass):" : "end-to-end:", e2e);
  print_metrics("reported, not gated:", reported);
  std::printf("end-to-end under their per-workload names:\n");
  std::vector<Metric> named = e2e;
  named.insert(named.end(), reported.begin(), reported.end());
  for (const auto& alias : w->aliases()) {
    for (const Metric& m : named) {
      if (m.name == alias.generic) {
        std::printf("  %-32s %16.6f %s  (= %s)\n", alias.name,
                    m.value * alias.scale, alias.unit, alias.generic);
      }
    }
  }
  std::printf("  %-32s %16.6f\n", "error_rate",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0);
  std::printf("  %-32s %16.6f KB (first set-up, RSS growth)\n",
              "rss_per_session_kb", kb_per_session);
  if (a.trace) print_metrics("per-layer (traced pass):", layers);

  std::printf("{\"workload\":%s,\"trace\":%d,\"correct\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,\"end_to_end\":%s,\"per_layer\":%s,"
              "\"stamp\":%s}\n",
              json_str(w->name()).c_str(), a.trace ? 1 : 0,
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(e2e).c_str(), json_metrics(layers).c_str(),
              stamp.json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace naplet::nbench

int main(int argc, char** argv) {
  naplet::nbench::Args args;
  if (!naplet::nbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: naplet_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  try {
    return naplet::nbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "naplet_bench: %s\n", e.what());
    return 1;
  }
}
