// The three naplet-bench workloads. Each one is a closed loop driven by at
// most four load threads, against realms built with the shipped default
// ControllerConfig (threaded runtime, security on, DH MODP-768).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/controller.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"

namespace naplet::nbench {

/// Latencies with the time each operation completed, so a window can be
/// cut into one-second slices.
struct Series {
  std::vector<double> ms;
  std::vector<std::int64_t> done_ns;

  void add(double v) {
    ms.push_back(v);
    done_ns.push_back(now_ns());
  }
  void append(const Series& other);
  [[nodiscard]] std::size_t size() const { return ms.size(); }
};

/// One second of a measured window: the operations completed in it and
/// the process CPU time spent in it.
struct Slice {
  double ops_per_s = 0;
  double op_p50_ms = 0;      // NaN when no op completed in the slice
  double event_p50_ms = 0;   // NaN when no event completed in the slice
  double cpu_ms_per_op = 0;  // infinite when no op completed
  double steal_pct = 0;      // host CPU given to other guests
};

/// What one measured window produced. The generic end-to-end metrics are
/// computed from `op` (the workload's closed-loop operation) and `event`
/// (its secondary operation); the rest feeds the per-layer report of a
/// traced run.
struct Measurement {
  Series op;
  Series event;
  bool events_are_ops = false;  // ops_per_s counts events as well
  std::uint64_t attempted = 0;
  double wall_s = 0;
  double cpu_s = 0;
  int threads = 0;
  // Slice boundaries of the window (steady clock) and the process CPU
  // time and host CPU ticks read at each.
  std::vector<std::int64_t> slice_ns;
  std::vector<double> slice_cpu_s;
  std::vector<HostTicks> slice_host;

  // Connect phases (ConnectBreakdown) over every connect in the window,
  // and the connect latencies (connect + accept) they are a share of.
  std::array<double, 5> connect_phase_ms{};
  std::uint64_t connects = 0;
  double connect_ms_total = 0;

  // Migration export payloads.
  std::uint64_t exports = 0;
  double export_bytes_total = 0;

  // Data path, summed over every session that carried requests.
  nsock::DataPathStats data{};
  std::uint64_t messages = 0;  // requests + replies

  // Control plane, merged over every node.
  obs::Snapshot merged;  // histograms and counters merged by name
  std::uint64_t ctrl_messages_sent = 0;
  std::uint64_t ctrl_retransmissions = 0;
  std::uint64_t datagrams_dropped = 0;
  double shard_max_over_mean = 0;

  /// Operations ops_per_s counts.
  [[nodiscard]] std::uint64_t completed() const {
    return op.size() + (events_are_ops ? event.size() : 0);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Network description for the run stamp.
  [[nodiscard]] virtual std::string network() const = 0;
  /// Percentile reported as op_tail_ms.
  [[nodiscard]] virtual double tail_percentile() const = 0;
  /// How often setup is repeated to report a median setup_s.
  [[nodiscard]] virtual int setup_repeats() const { return 15; }

  /// Build the realm and its resident sessions from `seed` (timed as
  /// setup_s). Throws std::runtime_error when the realm cannot come up.
  virtual void setup(std::uint64_t seed) = 0;
  /// Closed-loop measurement for `seconds`, then the end-of-run checks.
  virtual Measurement measure(double seconds, Gate& gate) = 0;
  /// Stop the realm.
  virtual void teardown() = 0;
  /// Sessions resident after setup (for memory per session).
  [[nodiscard]] virtual std::size_t resident_sessions() const = 0;
  /// A control message of the size this workload sends (crypto probe).
  [[nodiscard]] virtual util::Bytes sample_ctrl_payload() const = 0;

  /// Per-workload names of the generic metrics (connect_ms_p50, ...):
  /// {generic name, workload name, scale to its unit, its unit}.
  struct Alias {
    const char* generic;
    const char* name;
    double scale;
    const char* unit;
  };
  [[nodiscard]] virtual std::vector<Alias> aliases() const = 0;
};

/// The window cut at its slice boundaries (a trailing part shorter than a
/// slice is left out).
std::vector<Slice> slices(const Measurement& m);

std::unique_ptr<Workload> make_workload(const std::string& name);
std::vector<std::string> workload_names();

}  // namespace naplet::nbench
