#include "bench.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace naplet::nbench {

double percentile(std::vector<double>& xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return percentile(xs, 50); }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

/// Value of a "Key:   123 kB" line in /proc/self/status, or -1.
long proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtol(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return -1;
}

}  // namespace

std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

int thread_count() { return static_cast<int>(proc_status_field("Threads")); }

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": the all-CPU line comes first
  HostTicks t;
  std::uint64_t v = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice)
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const HostTicks& from, const HostTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

void Gate::fail(const std::string& what) {
  const std::uint64_t n = failures_.fetch_add(1) + 1;
  if (n <= 8) {
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(stderr, "correctness gate: %s\n", what.c_str());
  }
}

// ---- LogHist ----------------------------------------------------------------

void LogHist::add(std::uint64_t ns) {
  std::size_t idx;
  if (ns < kSub) {
    idx = ns;
  } else {
    const int e = 63 - std::countl_zero(ns);  // e >= 5
    const std::uint64_t sub = (ns >> (e - 5)) & (kSub - 1);
    idx = static_cast<std::size_t>(e - 4) * kSub + sub;
  }
  ++buckets_[idx];
  ++count_;
}

void LogHist::merge(const LogHist& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LogHist::percentile_ns(double p) const {
  if (count_ == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, p / 100.0 * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen < target) continue;
    if (i < kSub) return static_cast<double>(i);
    const int e = static_cast<int>(i / kSub) + 4;
    const double width = static_cast<double>(1ULL << (e - 5));
    const double lower = static_cast<double>(kSub + i % kSub) * width;
    return lower + width / 2;
  }
  return 0;
}

void SpanAgg::merge(const SpanAgg& other) {
  count += other.count;
  total_ns += other.total_ns;
  self_ns += other.self_ns;
  hist.merge(other.hist);
}

// ---- Tracer -----------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_tracer_ids{1};
}  // namespace

Tracer::Tracer(std::size_t keep)
    : id_(g_tracer_ids.fetch_add(1)), keep_(keep) {}

Tracer::Thread& Tracer::local() {
  thread_local std::uint64_t owner = 0;
  thread_local Thread* mine = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<Thread>());
    mine = threads_.back().get();
    mine->id = static_cast<std::uint16_t>(threads_.size() - 1);
    mine->stack.reserve(8);
    owner = id_;
  }
  return *mine;
}

void Tracer::begin(SpanId name, std::uint64_t op) {
  Thread& t = local();
  Open open{now_ns(), 0, -1, name};
  if (begun_.fetch_add(1, std::memory_order_relaxed) < keep_) {
    open.record = static_cast<std::int32_t>(t.records.size());
    SpanRecord rec;
    rec.start_ns = open.start_ns;
    rec.op = op;
    rec.parent = t.stack.empty() ? -1 : t.stack.back().record;
    rec.name = name;
    rec.thread = t.id;
    t.records.push_back(rec);
  }
  t.stack.push_back(open);
}

void Tracer::end() {
  Thread& t = local();
  const Open open = t.stack.back();
  t.stack.pop_back();
  const std::int64_t end = now_ns();
  const auto dur = static_cast<std::uint64_t>(end - open.start_ns);
  SpanAgg& agg = t.agg[open.name];
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += dur > open.child_ns ? dur - open.child_ns : 0;
  agg.hist.add(dur);
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
  if (open.record >= 0) {
    t.records[static_cast<std::size_t>(open.record)].end_ns = end;
  }
}

std::array<SpanAgg, kSpanCount> Tracer::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::array<SpanAgg, kSpanCount> out{};
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i].merge(t->agg[i]);
  }
  return out;
}

std::uint64_t Tracer::kept() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->records.size();
  return n;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,op,name,thread,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < t->records.size(); ++i) {
      const SpanRecord& r = t->records[i];
      char parent[32] = "";
      if (r.parent >= 0) {
        std::snprintf(parent, sizeof parent, "%u:%d", t->id, r.parent);
      }
      std::fprintf(f, "%u:%zu,%s,%llu,%s,%u,%lld,%lld\n", t->id, i, parent,
                   static_cast<unsigned long long>(r.op), kSpanNames[r.name],
                   t->id, static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace naplet::nbench
