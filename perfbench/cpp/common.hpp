// Shared pieces of the benchmark binary: arguments, the result record,
// sample statistics, the benchmark-owned span recorder, and the host record
// printed beside every run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;          // orders the inputs (see README.md)
  int seconds = 10;                // length of the timed phase
  bool trace = false;              // per-layer run instead of end-to-end
  std::uint64_t corpus_seed = 7000;  // ilpd warm corpus programs
};

// Where traced runs write their Chrome trace, under the current directory.
inline const std::string kTraceDir = ".bench_out";

// One run's outcome.  `attempted`/`failed` count operations (study cells,
// searches, requests) plus one per exact-count invariant; a failed oracle or
// invariant clears `correct`.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Metric name -> value; units live in main.cpp's metric tables.
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  // Records one invariant check: counted as an attempt, and as a failure
  // (with the reason on stderr) when it does not hold.
  void check(bool ok, const std::string& what);
  // Ok ratio over everything attempted so far.
  [[nodiscard]] double ok_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Prints `# <what> [v, ...]`: the per-pass or per-window figures a run's
// medians come from, as context beside the result.
void print_series(const char* what, const std::vector<double>& v);

// Exact sample statistics (linear interpolation between order statistics,
// the same rule as numpy's default and Python's statistics "inclusive").
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double gmean(const std::vector<double>& v);

// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

// Benchmark-owned span recorder for traced runs: spans live in memory and
// are written as one Chrome trace when the run ends.
class Spans {
 public:
  // Opens a span and returns its index; `parent` is an index or -1.
  int open(const char* name, int parent, std::uint64_t id);
  void close(int span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }
  // Records an already-measured span.
  void add(const char* name, int parent, std::uint64_t id, std::uint64_t start_ns,
           std::uint64_t end_ns, int tid = 0);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  void clear() { spans_.clear(); }
  // Sum of durations of spans called `name`.
  [[nodiscard]] std::uint64_t total_ns(const char* name) const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::uint64_t id;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int tid;
  };
  std::vector<Span> spans_;
};

// RAII span on a recorder; a null recorder records nothing.
class SpanScope {
 public:
  SpanScope(Spans* rec, const char* name, int parent, std::uint64_t id)
      : rec_(rec), index_(rec ? rec->open(name, parent, id) : -1) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int index() const { return index_; }

 private:
  Spans* rec_;
  int index_;
};

// CPU ticks of the whole host from /proc/stat (all CPUs): those stolen by
// the hypervisor for other guests, and all of them.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static CpuTicks now();
};

// Host context printed beside every run (never used to normalise).
struct HostSample {
  double loadavg1 = 0.0;
  CpuTicks ticks;
  double kernel_ms = 0.0;  // fixed CPU kernel, timed
};
HostSample sample_host();
std::string host_record_json(const HostSample& start, const HostSample& end);

// Workload entry points.
Result run_study_workload(const Args& args);
Result run_tune_workload(const Args& args);
Result run_ilpd_workload(const Args& args);

}  // namespace perfbench
