// perfbench — the repository benchmark binary.
//
//   perfbench --workload study_cold|tune_suite|ilpd_warm
//             --seed N --seconds S --trace 0|1 [--corpus-seed N]
//
// Prints context lines (`# host ...`, `# invariants ...`, `# trace ...`)
// and, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end table below, with --trace 1
// the per-layer table.  Exit status is 0 when the run completed, whether or
// not it was correct; usage errors exit 2.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric is printed by every workload (README.md lists
// what each one measures on each workload).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},      {"cells_per_s", "1/s"},
    {"study_speedup_gmean", "ratio"}, {"searches_per_s", "1/s"},
    {"search_ms_p50", "ms"},    {"search_ms_p90", "ms"},
    {"tune_gain_gmean", "ratio"}, {"requests_per_s", "1/s"},
    {"warm_us_p50", "us"},      {"warm_us_p90", "us"},
};

// Per-layer metrics; a layer that a workload's traced run does not reach
// prints 0.
constexpr MetricDef kPerLayer[] = {
    {"frontend.us_per_cell", "us"},
    {"opt.us_per_cell", "us"},
    {"trans.us_per_cell", "us"},
    {"trans.ir_growth", "ratio"},
    {"sched.us_per_cell", "us"},
    {"regalloc.us_per_cell", "us"},
    {"sim.us_per_cell", "us"},
    {"sim.minstr_per_s", "Minstr/s"},
    {"sim.kinstr_per_cell", "kinstr"},
    {"engine.cache_us_per_cell", "us"},
    {"engine.allocs_per_cell", "allocs"},
    {"engine.parallel_efficiency", "ratio"},
    {"harness.unattributed_share", "ratio"},
    {"tune.analyze_ms_per_search", "ms"},
    {"tune.measure_ms_per_search", "ms"},
    {"tune.search_self_ms_per_search", "ms"},
    {"tune.compiles_per_search", "count"},
    {"tune.sims_per_search", "count"},
    {"tune.pruned_ratio", "ratio"},
    {"tune.cache_hit_ratio", "ratio"},
    {"tune.model_mape", "ratio"},
    {"server.service_us_p50", "us"},
    {"server.transport_us_p50", "us"},
    {"server.queue_wait_us_p90", "us"},
    {"server.hot_hit_ratio", "ratio"},
    {"server.cells_executed", "count"},
    {"server.warm_blocked_share", "ratio"},
    {"server.rejected", "count"},
    {"obs.trace_overhead", "ratio"},
};

template <std::size_t N>
std::string metrics_json(Result& r, const MetricDef (&table)[N], bool zero_fill) {
  std::string out;
  char buf[64];
  for (const MetricDef& m : table) {
    auto it = r.metrics.find(m.name);
    if (it == r.metrics.end()) {
      if (!zero_fill) {
        r.check(false, std::string("workload did not measure ") + m.name);
        continue;
      }
      it = r.metrics.emplace(m.name, 0.0).first;
    }
    std::snprintf(buf, sizeof buf, "%.17g", it->second);
    out += (out.empty() ? "\"" : ", \"") + std::string(m.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload study_cold|tune_suite|ilpd_warm\n"
               "          --seed N --seconds S --trace 0|1 [--corpus-seed N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") args.workload = v;
    else if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atoi(v);
    else if (flag == "--trace") args.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--corpus-seed") args.corpus_seed = std::strtoull(v, nullptr, 10);
    else return usage(argv[0]);
  }
  if (argc % 2 == 0 || args.seconds <= 0) return usage(argv[0]);
  if (args.trace) ::mkdir(kTraceDir.c_str(), 0755);

  const HostSample host_start = sample_host();
  Result r;
  if (args.workload == "study_cold") r = run_study_workload(args);
  else if (args.workload == "tune_suite") r = run_tune_workload(args);
  else if (args.workload == "ilpd_warm") r = run_ilpd_workload(args);
  else return usage(argv[0]);
  const HostSample host_end = sample_host();
  std::printf("# host %s\n", host_record_json(host_start, host_end).c_str());

  const std::string metrics =
      args.trace ? metrics_json(r, kPerLayer, true) : metrics_json(r, kEndToEnd, false);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
