// Telemetry counters, timers and latency histograms for the engine.
//
// A process-wide MetricsRegistry accumulates named statistics from any
// thread: pass wall times (hooked into compile_at_level via ScopedTimer),
// per-job durations, cache hit/miss counters, transformation counters, and
// log-bucketed latency histograms (obs/histogram.hpp) for the serving layer.
// Snapshots are name-sorted so exported JSON is deterministic for a given
// set of values; the *values* are wall-clock measurements and therefore
// intentionally live outside the deterministic study JSON
// (StudyResult::to_json) — they are exported separately (telemetry_json,
// --metrics, and ilpd's `metrics` verb).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace ilp::engine {

struct MetricStat {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // 0 for pure counters

  [[nodiscard]] double total_ms() const { return static_cast<double>(total_ns) / 1e6; }
  [[nodiscard]] double mean_us() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / 1e3 / static_cast<double>(count);
  }
};

class MetricsRegistry {
 public:
  // The process-wide registry used by the pass-timing hooks.
  static MetricsRegistry& global();

  // Adds one timed sample (count += 1, total_ns += ns).
  void add_time(std::string_view name, std::uint64_t ns);
  // Adds to a pure counter.
  void add_count(std::string_view name, std::uint64_t delta = 1);
  // High-water gauge: keeps the maximum value ever recorded under `name`.
  void record_max(std::string_view name, std::uint64_t value);

  // The histogram registered under `name`, created on first use.  The
  // reference stays valid for the registry's lifetime (reset() zeroes
  // histograms instead of destroying them), so callers may cache it and
  // record lock-free.
  obs::Histogram& histogram(std::string_view name);
  void record_hist(std::string_view name, std::uint64_t value) {
    histogram(name).record(value);
  }

  // Copies `name` into a process-lifetime intern table and returns a view of
  // the stable storage.  For ScopedTimer names built at runtime; literal
  // names don't need it.
  static std::string_view intern_name(std::string_view name);

  // Name-sorted snapshots.
  [[nodiscard]] std::vector<std::pair<std::string, MetricStat>> snapshot() const;
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> gauge_snapshot() const;
  [[nodiscard]] std::vector<std::pair<std::string, obs::Histogram::Snapshot>>
  hist_snapshot() const;
  [[nodiscard]] std::string to_json(int indent = 0) const;
  // Prometheus text exposition of every stat (counter/timer) and histogram.
  // Timers expose <name>_count + <name>_seconds_total; histograms are
  // nanosecond-recorded and exposed in seconds.
  [[nodiscard]] std::string to_prometheus() const;
  void reset();

 private:
  mutable std::mutex mu_;
  // std::map for heterogeneous (allocation-free) string_view lookup and
  // naturally sorted snapshots; the registry holds tens of entries.
  std::map<std::string, MetricStat, std::less<>> stats_;
  std::map<std::string, std::uint64_t, std::less<>> gauges_;  // max-hold
  std::map<std::string, std::unique_ptr<obs::Histogram>, std::less<>> hists_;
};

// Times a scope and records it into a registry (the global one by default).
// Used inside compile_at_level for per-pass wall times: the names form the
// "pass.<name>" namespace of the telemetry output.
//
// The name is held as a string_view — no copy, no allocation on the hot
// path — so it must outlive the scope: pass a string literal or a view
// interned via MetricsRegistry::intern_name().
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name,
                       MetricsRegistry& reg = MetricsRegistry::global())
      : reg_(reg), name_(name), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    reg_.add_time(name_, static_cast<std::uint64_t>(ns));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  MetricsRegistry& reg_;
  std::string_view name_;
  std::chrono::steady_clock::time_point start_;
};

// Monotonic wall-clock helper for coarse phase timing.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] std::chrono::steady_clock::time_point start() const { return start_; }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  [[nodiscard]] std::uint64_t micros() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  [[nodiscard]] std::uint64_t nanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ilp::engine
