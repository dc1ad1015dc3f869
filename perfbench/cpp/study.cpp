// study_cold: the paper's experiment.  run_study over the 40 Table-2 nests x
// Conv..Lev4 x issue 1/2/4/8 (800 cells) on 2 workers, with a fresh
// in-memory ResultCache every pass.
//
// Untraced run: untimed warm-up passes (set-up), then timed passes for
// --seconds; after them the oracle pass recompiles every cell serially,
// checks its simulated final state against the IR interpreter run on the
// frontend's unoptimised IR, and checks its cycles and registers against the
// study result.  A serial timing pass after every timed pass times each
// cell again; the p50/p90 over the 800 cells of each cell's fastest time
// are the latency figures (the names this workload shares with the latency
// metrics of the others).
//
// Traced run: 2-worker and serial untraced passes, then serial replays of
// the 800 cells through the harness's public calls with benchmark-side spans
// around each (cache key/lookup, dsl::compile, compile_with_transforms,
// measure_register_usage, try_simulate_cycles, cache store).
// compile_with_transforms is split by the library's own pass.* timers.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "common.hpp"
#include "common/interp.hpp"
#include "engine/cache.hpp"
#include "engine/metrics.hpp"
#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "regalloc/regalloc.hpp"
#include "support/strings.hpp"

namespace perfbench {
namespace {

using namespace ilp;

constexpr int kJobs = 2;
constexpr std::uint64_t kCells = 800;  // 40 nests x 5 levels x 4 issue widths

struct Pass {
  double seconds = 0.0;
  StudyResult result;
};

Pass run_pass(const std::vector<Workload>& suite, int jobs) {
  engine::ResultCache cache;  // fresh memory tier: every cell is a miss
  StudyOptions o;
  o.jobs = jobs;
  o.cache = &cache;
  const std::uint64_t t0 = now_ns();
  Pass p;
  p.result = run_study(suite, o);
  p.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return p;
}

// Lev4 issue-8 speedup over Conv issue-1, per nest.
double speedup_gmean(const StudyResult& r) {
  std::vector<double> v;
  for (const LoopStudy& l : r.loops) v.push_back(l.speedup(OptLevel::Lev4, 3));
  return gmean(v);
}

// At issue 8: Lev4 cycles over the best level's cycles, per nest.
double level_gain_gmean(const StudyResult& r) {
  std::vector<double> v;
  for (const LoopStudy& l : r.loops) {
    std::uint64_t best = l.cycles[0][3];
    for (std::size_t li = 1; li < kLevels.size(); ++li)
      best = std::min(best, l.cycles[li][3]);
    v.push_back(static_cast<double>(l.cycles[4][3]) / static_cast<double>(best));
  }
  return gmean(v);
}

// Interpreter reference state of each nest's unoptimised IR.
struct Reference {
  Function base{"x"};
  RunOutcome state;
  bool ok = false;
};

std::vector<Reference> build_references(const std::vector<Workload>& suite) {
  std::vector<Reference> refs(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    DiagnosticEngine diags;
    auto r = dsl::compile(suite[i].source, diags);
    if (!r) continue;
    refs[i].base = std::move(r->fn);
    seed_arrays(refs[i].base, refs[i].state.memory);
    testing::InterpResult ir = testing::interpret(refs[i].base, refs[i].state.memory);
    refs[i].ok = ir.ok;
    refs[i].state.result.ok = ir.ok;
    refs[i].state.result.regs = std::move(ir.regs);
  }
  return refs;
}

// Serial compile + simulate wall time of every cell through the harness's
// cell path (try_compile_workload, try_simulate_cycles); each call to
// time_cells() lowers a cell's entry to its fastest time so far, in ms.
// The fastest of a cell's timings is its cost with the least interference
// from other guests on the host: on the shared host this was sized on, the
// per-pass median cell time swung 2x within one run.
void time_cells(const std::vector<Workload>& suite, std::vector<double>& best_ms) {
  best_ms.resize(suite.size() * kLevels.size() * kIssueWidths.size(), 1e300);
  std::size_t i = 0;
  for (const Workload& w : suite)
    for (OptLevel level : kLevels)
      for (int width : kIssueWidths) {
        const MachineModel m = MachineModel::issue(width);
        const std::uint64_t t0 = now_ns();
        if (auto c = try_compile_workload(w, level, m)) (void)try_simulate_cycles(c->fn, m);
        best_ms[i] = std::min(best_ms[i], static_cast<double>(now_ns() - t0) / 1e6);
        ++i;
      }
}

struct OracleOutcome {
  std::uint64_t bad_cells = 0;
  std::uint64_t instructions = 0;  // simulated, summed over cells
};

// Serial recompile of every cell: final state vs the interpreter, cycles and
// registers vs the study result.
OracleOutcome run_oracle(const std::vector<Workload>& suite,
                         const std::vector<Reference>& refs, const StudyResult& study) {
  OracleOutcome out;
  for (std::size_t loop = 0; loop < suite.size(); ++loop) {
    const LoopStudy& ls = study.loops[loop];
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi) {
        const MachineModel m = MachineModel::issue(kIssueWidths[wi]);
        auto compiled = try_compile_workload(suite[loop], kLevels[li], m);
        RunOutcome got;
        if (compiled) got = run_seeded(compiled->fn, m);
        std::string why;
        if (!refs[loop].ok) why = "interpreter failed on the unoptimised IR";
        else if (!compiled) why = compiled.error_message();
        else if (!got.result.ok) why = got.result.error;
        else why = compare_observable(refs[loop].base, refs[loop].state, got, 1e-6);
        if (why.empty() && got.result.cycles != ls.cycles[li][wi])
          why = strformat("cycles %" PRIu64 " vs study %" PRIu64, got.result.cycles,
                          ls.cycles[li][wi]);
        if (why.empty() && kIssueWidths[wi] == 8 &&
            (compiled->regs.int_regs != ls.regs[li].int_regs ||
             compiled->regs.fp_regs != ls.regs[li].fp_regs))
          why = "register usage differs from the study";
        if (!why.empty()) {
          ++out.bad_cells;
          std::fprintf(stderr, "perfbench: oracle: %s %s issue-%d: %s\n",
                       suite[loop].name.c_str(), level_name(kLevels[li]),
                       kIssueWidths[wi], why.c_str());
        }
        out.instructions += got.result.instructions;
      }
    }
  }
  return out;
}

// --- Traced replay -----------------------------------------------------------

const char* const kTransPasses[] = {
    "pass.unroll",     "pass.rename",      "pass.accexpand",
    "pass.indexpand",  "pass.searchexpand", "pass.combine",
    "pass.strengthred", "pass.treeheight",  "pass.cleanup"};


struct PassTimers {
  std::uint64_t opt = 0, trans = 0, sched = 0;
  static PassTimers now() {
    PassTimers t;
    for (const auto& [n, stat] : engine::MetricsRegistry::global().snapshot()) {
      if (n == "pass.conventional") t.opt += stat.total_ns;
      if (n == "pass.schedule" || n == "pass.modulo") t.sched += stat.total_ns;
      for (const char* p : kTransPasses)
        if (n == p) t.trans += stat.total_ns;
    }
    return t;
  }
};

struct Replay {
  double seconds = 0.0;
  PassTimers passes;            // pass.* time spent during the replay
  std::uint64_t allocs = 0;     // operator new calls in the compile calls
  double ir_growth_sum = 0.0;
  std::uint64_t mismatches = 0; // cells whose cycles/registers differ from run_study
};

// One serial pass over the 800 cells, mirroring the harness's cell path.
Replay replay(const std::vector<Workload>& suite, const StudyResult& study,
              Spans* spans) {
  Replay out;
  engine::ResultCache cache;
  const CompileOptions opts;
  const PassTimers before = PassTimers::now();
  AllocCounter::count = 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t id = 0;
  for (std::size_t loop = 0; loop < suite.size(); ++loop) {
    const Workload& w = suite[loop];
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi, ++id) {
        const MachineModel m = MachineModel::issue(kIssueWidths[wi]);
        SpanScope cell(spans, "cell", -1, id);
        std::uint64_t key = 0;
        {
          SpanScope s(spans, "engine.cache", cell.index(), id);
          key = study_cell_key(w, kLevels[li], m, opts);
          if (cache.lookup(key)) ++out.mismatches;  // fresh cache: must miss
        }
        Function fn{"x"};
        RegUsage regs;
        TransformStats ts;
        {
          CountAllocs counting;
          {
            SpanScope s(spans, "frontend", cell.index(), id);
            DiagnosticEngine diags;
            auto r = dsl::compile(w.source, diags);
            if (!r) {
              ++out.mismatches;
              continue;
            }
            fn = std::move(r->fn);
          }
          {
            SpanScope s(spans, "compile_with_transforms", cell.index(), id);
            compile_with_transforms(fn, TransformSet::for_level(kLevels[li]), m, opts,
                                    &ts);
          }
          {
            SpanScope s(spans, "regalloc", cell.index(), id);
            regs = measure_register_usage(fn);
          }
        }
        std::uint64_t cycles = 0;
        {
          SpanScope s(spans, "simulate", cell.index(), id);
          auto sim = try_simulate_cycles(fn, m);
          if (sim) cycles = *sim;
        }
        {
          SpanScope s(spans, "engine.cache", cell.index(), id);
          cache.store(key, strformat("v1 ok %" PRIu64 " %d %d", cycles, regs.int_regs,
                                     regs.fp_regs));
        }
        const LoopStudy& ls = study.loops[loop];
        if (cycles != ls.cycles[li][wi] ||
            (kIssueWidths[wi] == 8 && (regs.int_regs != ls.regs[li].int_regs ||
                                       regs.fp_regs != ls.regs[li].fp_regs)))
          ++out.mismatches;
        if (ts.ir_insts_before > 0)
          out.ir_growth_sum += static_cast<double>(ts.ir_insts_after) /
                               static_cast<double>(ts.ir_insts_before);
      }
    }
  }
  out.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  out.allocs = AllocCounter::count;
  const PassTimers after = PassTimers::now();
  out.passes.opt = after.opt - before.opt;
  out.passes.trans = after.trans - before.trans;
  out.passes.sched = after.sched - before.sched;
  return out;
}

// Runs passes until `seconds` have elapsed (at least `min_passes`).
std::vector<Pass> timed_passes(const std::vector<Workload>& suite, int jobs,
                               double seconds, int min_passes) {
  std::vector<Pass> passes;
  const std::uint64_t t0 = now_ns();
  while (static_cast<int>(passes.size()) < min_passes ||
         static_cast<double>(now_ns() - t0) / 1e9 < seconds)
    passes.push_back(run_pass(suite, jobs));
  return passes;
}

double median_seconds(const std::vector<Pass>& passes) {
  std::vector<double> s;
  for (const Pass& p : passes) s.push_back(p.seconds);
  return median(s);
}

// Every pass: 800 cells, none failed, JSON byte-identical to the first.
// Returns the number of passes that broke one of those.
std::uint64_t check_passes(Result& res, const std::vector<Pass>& passes,
                           const std::string& reference_json) {
  std::uint64_t bad = 0;
  for (const Pass& p : passes) {
    const bool ok = p.result.stats.cells == kCells && p.result.stats.failed_cells == 0 &&
                    p.result.to_json() == reference_json;
    if (!ok) ++bad;
    res.check(ok, "study pass: 800 cells, 0 failed, JSON identical across passes");
  }
  return bad;
}

}  // namespace

Result run_study_workload(const Args& args) {
  Result res;
  const std::vector<Workload>& suite = workload_suite();
  const std::vector<Reference> refs = build_references(suite);

  if (!args.trace) {
    // Set-up, seven times (a pass takes about 0.5 s).
    std::vector<double> setups;
    std::string reference_json;
    for (int i = 0; i < 7; ++i) {
      Pass p = run_pass(suite, kJobs);
      setups.push_back(p.seconds);
      if (i == 0) reference_json = p.result.to_json();
    }
    // Timed phase of --seconds: 2-worker passes alternating with serial
    // timing passes over every cell (at least 3 of each).
    std::vector<double> cell_ms;
    std::vector<Pass> passes;
    const std::uint64_t t0 = now_ns();
    while (passes.size() < 3 || static_cast<double>(now_ns() - t0) / 1e9 < args.seconds) {
      passes.push_back(run_pass(suite, kJobs));
      time_cells(suite, cell_ms);
    }
    const std::uint64_t bad_passes = check_passes(res, passes, reference_json);
    const StudyResult& study = passes.front().result;
    const OracleOutcome oracle = run_oracle(suite, refs, study);
    res.check(oracle.bad_cells == 0, "oracle: every cell matches the interpreter");

    // Operations are cells: a pass that broke an invariant loses all 800, an
    // oracle failure is a failure in every pass (the passes are identical).
    const std::uint64_t cells = kCells * passes.size();
    const std::uint64_t bad_cells =
        std::min(cells, kCells * bad_passes + oracle.bad_cells * passes.size());
    res.attempted += cells;
    res.failed += bad_cells;
    std::printf("# invariants {\"passes\": %zu, \"cells_per_pass\": %" PRIu64
                ", \"failed_cells\": %" PRIu64 ", \"oracle_bad_cells\": %" PRIu64 "}\n",
                passes.size(), study.stats.cells, study.stats.failed_cells,
                oracle.bad_cells);

    std::vector<double> pass_times;
    for (const Pass& p : passes) pass_times.push_back(p.seconds);
    print_series("setup_s", setups);
    print_series("pass_s", pass_times);
    const double cells_per_s = kCells / median(pass_times);
    const double cell_ms_p50 = quantile(cell_ms, 0.5);
    const double cell_ms_p90 = quantile(cell_ms, 0.9);
    res.set("setup_s", median(setups));
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("ok_ratio", res.ok_ratio());
    res.set("cells_per_s", cells_per_s);
    res.set("study_speedup_gmean", speedup_gmean(study));
    res.set("tune_gain_gmean", level_gain_gmean(study));
    // No searches or requests on this workload: those names report the
    // study's own rate and its serial per-cell latency (README.md).
    res.set("searches_per_s", cells_per_s);
    res.set("requests_per_s", cells_per_s);
    res.set("search_ms_p50", cell_ms_p50);
    res.set("search_ms_p90", cell_ms_p90);
    res.set("warm_us_p50", cell_ms_p50 * 1e3);
    res.set("warm_us_p90", cell_ms_p90 * 1e3);
    return res;
  }

  // --- traced run: a third of the time on 2-worker passes, then serial
  // passes alternating with traced replays, so host drift hits both alike.
  const double third = args.seconds / 3.0;
  const std::vector<Pass> parallel = timed_passes(suite, kJobs, third, 2);
  const std::string reference_json = parallel.front().result.to_json();
  const StudyResult& study = parallel.front().result;
  replay(suite, study, nullptr);  // warm the calling thread's compile context
  std::vector<Pass> serial;
  std::vector<Replay> replays;
  Spans spans;
  const std::uint64_t t0 = now_ns();
  while (replays.size() < 2 || static_cast<double>(now_ns() - t0) / 1e9 < 2 * third) {
    serial.push_back(run_pass(suite, 1));
    spans.clear();  // the trace keeps the last replay
    replays.push_back(replay(suite, study, &spans));
  }
  check_passes(res, parallel, reference_json);
  check_passes(res, serial, reference_json);
  const Replay& last = replays.back();
  for (const Replay& r : replays)
    res.check(r.mismatches == 0, "replayed cells match run_study exactly");

  const OracleOutcome oracle = run_oracle(suite, refs, study);
  res.check(oracle.bad_cells == 0, "oracle: every cell matches the interpreter");
  res.attempted += kCells * replays.size();

  const double cells = kCells;
  const auto per_cell_us = [&](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3 / cells;
  };
  const std::uint64_t frontend = spans.total_ns("frontend");
  const std::uint64_t regalloc = spans.total_ns("regalloc");
  const std::uint64_t sim = spans.total_ns("simulate");
  const std::uint64_t cache = spans.total_ns("engine.cache");
  const std::uint64_t cell_wall = spans.total_ns("cell");
  const std::uint64_t attributed = frontend + last.passes.opt + last.passes.trans +
                                   last.passes.sched + regalloc + sim + cache;
  std::vector<double> replay_s;
  for (const Replay& r : replays) replay_s.push_back(r.seconds);
  const double serial_cps = kCells / median_seconds(serial);
  const double traced_cps = kCells / median(replay_s);

  res.set("frontend.us_per_cell", per_cell_us(frontend));
  res.set("opt.us_per_cell", per_cell_us(last.passes.opt));
  res.set("trans.us_per_cell", per_cell_us(last.passes.trans));
  res.set("trans.ir_growth", last.ir_growth_sum / cells);
  res.set("sched.us_per_cell", per_cell_us(last.passes.sched));
  res.set("regalloc.us_per_cell", per_cell_us(regalloc));
  res.set("sim.us_per_cell", per_cell_us(sim));
  res.set("sim.minstr_per_s",
          static_cast<double>(oracle.instructions) / 1e6 / (static_cast<double>(sim) / 1e9));
  res.set("sim.kinstr_per_cell", static_cast<double>(oracle.instructions) / 1e3 / cells);
  res.set("engine.cache_us_per_cell", per_cell_us(cache));
  res.set("engine.allocs_per_cell", static_cast<double>(last.allocs) / cells);
  res.set("engine.parallel_efficiency",
          kCells / median_seconds(parallel) / (kJobs * serial_cps));
  res.set("harness.unattributed_share",
          1.0 - static_cast<double>(attributed) / static_cast<double>(cell_wall));
  res.set("obs.trace_overhead", (serial_cps - traced_cps) / serial_cps);

  const std::string path = kTraceDir + "/study_cold.trace.json";
  res.check(spans.write_chrome_trace(path), "write Chrome trace " + path);
  std::printf("# trace %s (%zu spans)\n", path.c_str(), spans.size());
  return res;
}

}  // namespace perfbench
