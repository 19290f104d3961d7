// naplet-bench building blocks: timing and statistics helpers, process
// probes, the correctness gate, and the in-memory span tracer.
//
// The tracer only ever wraps calls the benchmark itself makes into the
// layers' public functions (core, agent, crypto); nothing inside src/ is
// instrumented. With tracing off every Span is one null-pointer test.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace naplet::nbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seeded input generator (splitmix64): the same seed gives the same
/// message sizes, op order and placements on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated percentile, p in [0, 100]; sorts `xs`. 0 if empty.
double percentile(std::vector<double>& xs, double p);
double median(std::vector<double> xs);

double process_cpu_s();
std::size_t rss_bytes();
int thread_count();

/// Host CPU ticks from /proc/stat: all of them, and those stolen by the
/// hypervisor for other guests (the CPUs here are shared).
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostTicks host_ticks();
/// Share of host CPU time stolen between two readings, in percent.
double steal_pct(const HostTicks& from, const HostTicks& to);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Correctness gate shared by every load thread of a run: failed
/// operations and violated checks both count, and any count fails the run.
class Gate {
 public:
  void fail(const std::string& what);
  void check(bool cond, const std::string& what) {
    if (!cond) fail(what);
  }
  void check(const util::Status& st, const std::string& what) {
    if (!st.ok()) fail(what + ": " + st.to_string());
  }
  [[nodiscard]] std::uint64_t failures() const { return failures_.load(); }

 private:
  std::atomic<std::uint64_t> failures_{0};
  std::mutex mu_;
};

// ---- tracing ---------------------------------------------------------------

/// Span names; the prefix before the dot is the layer. "op.*" spans are
/// the benchmark's own operations (roots); everything else wraps one
/// public call into the named layer.
enum SpanId : std::uint16_t {
  kOpConnect,
  kOpClose,
  kOpRpc,
  kOpHop,
  kOpSuspendResume,
  kOpReconnect,
  kOpProbe,
  kCoreConnect,
  kCoreAccept,
  kCoreClose,
  kCoreSuspend,
  kCoreResume,
  kCoreSend,
  kCoreRecvWait,
  kCorePrepare,
  kCoreExport,
  kCoreImport,
  kCoreComplete,
  kAgentLocation,
  kCryptoKeygen,
  kCryptoSessionKey,
  kCryptoHmac,
  kSpanCount
};

inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "op.connect",          "op.close",
    "op.rpc",              "op.hop",
    "op.suspend_resume",   "op.reconnect",
    "op.crypto_probe",     "core.connect",
    "core.accept",         "core.close",
    "core.suspend",        "core.resume",
    "core.send",           "core.recv_wait",
    "core.prepare_migration", "core.export_sessions",
    "core.import_sessions", "core.complete_migration",
    "agent.location",      "crypto.dh_keygen",
    "crypto.dh_session_key", "crypto.hmac_ctrl"};

/// Log-linear duration histogram: 32 sub-buckets per power of two of
/// nanoseconds (about 3% resolution), mergeable across threads.
class LogHist {
 public:
  void add(std::uint64_t ns);
  void merge(const LogHist& other);
  /// p in [0, 100]; bucket midpoint, in nanoseconds. 0 when empty.
  [[nodiscard]] double percentile_ns(double p) const;

 private:
  static constexpr int kSub = 32;
  std::array<std::uint64_t, 64 * kSub> buckets_{};
  std::uint64_t count_ = 0;
};

struct SpanAgg {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // duration minus the time child spans cover
  LogHist hist;
  void merge(const SpanAgg& other);
};

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;
  std::int32_t parent = -1;  // index into the same thread's records
  std::uint16_t name = 0;
  std::uint16_t thread = 0;
};

/// Spans are aggregated online per name (count, total, self time,
/// histogram) and the first `keep` records are retained verbatim for the
/// trace file written when the run ends.
class Tracer {
 public:
  explicit Tracer(std::size_t keep);

  void begin(SpanId name, std::uint64_t op);
  void end();

  [[nodiscard]] std::array<SpanAgg, kSpanCount> merged() const;
  [[nodiscard]] std::uint64_t spans() const { return begun_.load(); }
  [[nodiscard]] std::uint64_t kept() const;
  /// CSV: id,parent,op,name,thread,start_ns,end_ns (ids are thread:index).
  bool write_csv(const std::string& path) const;

 private:
  struct Open {
    std::int64_t start_ns;
    std::uint64_t child_ns;
    std::int32_t record;
    std::uint16_t name;
  };
  struct Thread {
    std::uint16_t id = 0;
    std::vector<SpanRecord> records;
    std::array<SpanAgg, kSpanCount> agg{};
    std::vector<Open> stack;
  };
  Thread& local();

  const std::uint64_t id_;
  const std::size_t keep_;
  std::atomic<std::uint64_t> begun_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

/// The active tracer; set only while no load thread is running.
inline Tracer* g_tracer = nullptr;

/// RAII span around one call. A no-op when tracing is off.
class Span {
 public:
  explicit Span(SpanId name, std::uint64_t op = 0) : tracer_(g_tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, op);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace naplet::nbench
