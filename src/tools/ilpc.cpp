// ilpc — command-line driver for the ILP transformation compiler.
//
// Usage:
//   ilpc [options] <source.ilp>
//   ilpc --workload <name>            (compile a built-in Table 2 nest)
//
// Options:
//   --level conv|lev1|lev2|lev3|lev4  transformation level (default lev4)
//   --issue N                         issue width (default 8)
//   --unroll N                        max unroll factor (default 8)
//   --nest p1,p2,...                  enable affine nest pre-passes, from
//                                     interchange|fuse|fission|tile (or "all")
//   --tile-size N                     tile size for --nest tile (default 16)
//   --emit-ir                         print the final IR
//   --emit-ir-before                  print the IR before optimization
//   --no-sim                          skip simulation
//   --profile                         cycle-accounting profile of the run
//                                     (per-cause slot table, occupancy, top
//                                     stall blocks/opcodes)
//   --explain                         profile Conv..Lev4 and report which
//                                     stall causes each level removed, plus
//                                     the list-vs-modulo diff at Lev4
//   --classify                        print the loop classification and exit
//   --list-workloads                  list the built-in Table 2 suite
//
// Study mode (runs Section 3.1's full 800-cell sweep through the engine):
//   --study                           run the Table 2 study and print means,
//                                     then the paper's report (Table 2,
//                                     Figures 8-15, Section 4 summary)
//   --jobs N                          pool workers (0 = hardware threads)
//   --seq                             serial execution (same as --jobs 1)
//   --json PATH                       write deterministic study JSON
//   --cache-dir DIR                   persistent per-cell result cache
//   --metrics PATH                    write engine telemetry JSON
//   --trace PATH                      write a Chrome trace of the sweep
//
// Autotune mode (beam search over {level, unroll, nest, tile, scheduler}):
//   --autotune                        tune the given source/workload
//   --beam N                          beam width (default 4)
//   --rounds N                        mutation rounds after the seeds (default 3)
//   --sim-fraction F                  share of each frontier simulated (0,1]
//   --max-sims N                      simulation budget, seeds included
//   --no-cost-model                   simulate every candidate (exhaustive)
//   (--issue/--jobs/--cache-dir/--json apply; the cache makes repeat and
//   overlapping tuning runs nearly free)
//
// Exit codes: 0 ok, 1 usage, 2 compile error, 3 simulation error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "engine/trace.hpp"
#include "frontend/classify.hpp"
#include "frontend/compile.hpp"
#include "frontend/parser.hpp"
#include "harness/experiment.hpp"
#include "harness/explain.hpp"
#include "harness/report.hpp"
#include "ir/printer.hpp"
#include "machine/machine.hpp"
#include "regalloc/regalloc.hpp"
#include "sim/simulator.hpp"
#include "trans/level.hpp"
#include "tune/tune.hpp"
#include "workloads/suite.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ilpc [--level conv|lev1|lev2|lev3|lev4] [--issue N] "
               "[--unroll N]\n"
               "            [--nest interchange,fuse,fission,tile|all] [--tile-size N]\n"
               "            [--scheduler list|modulo] [--emit-ir] [--emit-ir-before]\n"
               "            [--no-sim] [--profile] [--explain] [--classify]\n"
               "            (<source.ilp> | --workload <name> | --list-workloads)\n"
               "       ilpc --study [--scheduler list|modulo] [--jobs N | --seq] "
               "[--json PATH]\n"
               "            [--cache-dir DIR] [--metrics PATH] [--trace PATH]\n"
               "       ilpc --autotune [--beam N] [--rounds N] [--sim-fraction F]\n"
               "            [--max-sims N] [--no-cost-model] [--issue N] [--jobs N]\n"
               "            [--cache-dir DIR] [--json PATH] "
               "(<source.ilp> | --workload <name>)\n");
}

// Runs the full Table 2 study through the experiment engine and prints the
// paper's report from it.
int run_study_mode(ilp::SchedulerKind scheduler, int jobs, const std::string& json_path,
                   const std::string& cache_dir, const std::string& metrics_path,
                   const std::string& trace_path) {
  using namespace ilp;
  if (!trace_path.empty()) engine::TraceRecorder::global().enable();
  StudyOptions opts;
  opts.compile.scheduler = scheduler;
  opts.jobs = jobs;
  opts.cache_dir = cache_dir;
  const StudyResult s = run_study(opts);

  std::printf("study: %zu loops, %llu cells, %d jobs, %.2fs wall, cache hit rate %.1f%%\n",
              s.loops.size(), static_cast<unsigned long long>(s.stats.cells),
              s.stats.jobs, s.stats.wall_seconds, 100.0 * s.stats.cache_hit_rate());
  std::printf("%-6s", "level");
  for (const int w : kIssueWidths) std::printf("  issue-%d", w);
  std::printf("\n");
  for (const OptLevel l : kLevels) {
    std::printf("%-6s", level_name(l));
    for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi)
      std::printf("  %7.2f", s.mean_speedup(l, static_cast<int>(wi)));
    std::printf("\n");
  }
  std::fputs(render_paper_report(s).c_str(), stdout);
  int failed = 0;
  for (const auto& l : s.loops)
    if (!l.ok()) {
      std::fprintf(stderr, "FAILED %s: %s\n", l.name.c_str(), l.error.c_str());
      ++failed;
    }
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 3;
    }
    out << s.to_json();
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::trunc);
    if (out) out << s.telemetry_json();
  }
  if (!trace_path.empty())
    engine::TraceRecorder::global().write_chrome_trace(trace_path);
  return failed == 0 ? 0 : 3;
}

// Tunes one program: beam search over the transformation space on a thread
// pool, memoized through the (optionally persistent) result cache.
int run_autotune_mode(const std::string& source, const ilp::tune::TuneOptions& topts,
                      int jobs, const std::string& cache_dir,
                      const std::string& json_path) {
  using namespace ilp;
  engine::ThreadPool pool(jobs == 0 ? std::thread::hardware_concurrency()
                                    : static_cast<unsigned>(jobs));
  engine::ResultCache cache(cache_dir);
  const tune::TuneResult r = tune::autotune(source, topts, &pool, &cache);
  if (!r.ok) {
    std::fprintf(stderr, "autotune failed: %s\n", r.error.c_str());
    return 2;
  }
  std::printf("best    %s\n", r.best.name().c_str());
  std::printf("cycles  %llu (Lev4 baseline %llu, speedup %.3fx)%s\n",
              static_cast<unsigned long long>(r.best_cycles),
              static_cast<unsigned long long>(r.lev4_cycles), r.speedup_vs_lev4(),
              r.stopped_early ? "  [stopped early]" : "");
  std::printf("search  %d rounds, %llu candidates: %llu simulated, %llu pruned "
              "(%llu cache hits), model MAPE %.1f%%\n",
              r.rounds, static_cast<unsigned long long>(r.considered),
              static_cast<unsigned long long>(r.simulated),
              static_cast<unsigned long long>(r.pruned),
              static_cast<unsigned long long>(r.cache_hits), 100.0 * r.model_mape);
  for (const tune::CandidateEval& e : r.evals)
    if (e.simulated && e.ok && e.cycles == r.best_cycles &&
        e.config == r.best)
      std::printf("found   round %d\n", e.round);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 3;
    }
    out << r.to_json();
  }
  return 0;
}

// "--nest interchange,fuse" style comma list; "all" turns on every pass.
bool parse_nest_list(const char* s, ilp::NestOptions& out) {
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, ',')) {
    if (item == "interchange") out.interchange = true;
    else if (item == "fuse") out.fuse = true;
    else if (item == "fission") out.fission = true;
    else if (item == "tile") out.tile = true;
    else if (item == "all") out.interchange = out.fuse = out.fission = out.tile = true;
    else {
      std::fprintf(stderr, "unknown nest pass '%s'\n", item.c_str());
      return false;
    }
  }
  return true;
}

std::optional<ilp::OptLevel> parse_level(const char* s) {
  using ilp::OptLevel;
  if (!std::strcmp(s, "conv")) return OptLevel::Conv;
  if (!std::strcmp(s, "lev1")) return OptLevel::Lev1;
  if (!std::strcmp(s, "lev2")) return OptLevel::Lev2;
  if (!std::strcmp(s, "lev3")) return OptLevel::Lev3;
  if (!std::strcmp(s, "lev4")) return OptLevel::Lev4;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ilp;

  OptLevel level = OptLevel::Lev4;
  SchedulerKind scheduler = SchedulerKind::List;
  NestOptions nest;
  int issue = 8;
  int unroll = 8;
  bool emit_ir = false;
  bool emit_ir_before = false;
  bool do_sim = true;
  bool do_profile = false;
  bool do_explain = false;
  bool classify_only = false;
  bool study_mode = false;
  bool autotune_mode = false;
  tune::TuneOptions topts;
  int jobs = 1;
  std::string json_path;
  std::string cache_dir;
  std::string metrics_path;
  std::string trace_path;
  std::string source_path;
  std::string workload_name;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--level") {
      const auto l = parse_level(next());
      if (!l) {
        usage();
        return 1;
      }
      level = *l;
    } else if (a == "--scheduler") {
      const auto k = parse_scheduler_kind(next());
      if (!k) {
        usage();
        return 1;
      }
      scheduler = *k;
    } else if (a == "--issue") {
      issue = std::atoi(next());
      if (issue < 1) {
        usage();
        return 1;
      }
    } else if (a == "--unroll") {
      unroll = std::atoi(next());
    } else if (a == "--nest") {
      if (!parse_nest_list(next(), nest)) {
        usage();
        return 1;
      }
    } else if (a == "--tile-size") {
      nest.tile_size = std::atoi(next());
      if (nest.tile_size < 2) {
        usage();
        return 1;
      }
    } else if (a == "--emit-ir") {
      emit_ir = true;
    } else if (a == "--emit-ir-before") {
      emit_ir_before = true;
    } else if (a == "--no-sim") {
      do_sim = false;
    } else if (a == "--profile") {
      do_profile = true;
    } else if (a == "--explain") {
      do_explain = true;
    } else if (a == "--classify") {
      classify_only = true;
    } else if (a == "--study") {
      study_mode = true;
    } else if (a == "--autotune") {
      autotune_mode = true;
    } else if (a == "--beam") {
      topts.beam_width = std::atoi(next());
      if (topts.beam_width < 1) {
        usage();
        return 1;
      }
    } else if (a == "--rounds") {
      topts.max_rounds = std::atoi(next());
      if (topts.max_rounds < 0) {
        usage();
        return 1;
      }
    } else if (a == "--sim-fraction") {
      topts.sim_fraction = std::atof(next());
      if (topts.sim_fraction <= 0.0 || topts.sim_fraction > 1.0) {
        usage();
        return 1;
      }
    } else if (a == "--max-sims") {
      topts.max_sims = std::atoi(next());
      if (topts.max_sims < 1) {
        usage();
        return 1;
      }
    } else if (a == "--no-cost-model") {
      topts.use_cost_model = false;
    } else if (a == "--jobs") {
      jobs = std::atoi(next());
      if (jobs < 0) {
        usage();
        return 1;
      }
    } else if (a == "--seq") {
      jobs = 1;
    } else if (a == "--json") {
      json_path = next();
    } else if (a == "--cache-dir") {
      cache_dir = next();
    } else if (a == "--metrics") {
      metrics_path = next();
    } else if (a == "--trace") {
      trace_path = next();
    } else if (a == "--workload") {
      workload_name = next();
    } else if (a == "--list-workloads") {
      for (const auto& w : workload_suite())
        std::printf("%-14s %-8s size=%-3d iters=%-5lld nest=%d %s%s\n", w.name.c_str(),
                    w.group.c_str(), w.size, static_cast<long long>(w.iters), w.nest,
                    dsl::loop_type_name(w.type), w.conds ? " conds" : "");
      return 0;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      usage();
      return 1;
    } else {
      source_path = a;
    }
  }

  if (study_mode)
    return run_study_mode(scheduler, jobs, json_path, cache_dir, metrics_path,
                          trace_path);

  // Load the source text.
  std::string source;
  if (!workload_name.empty()) {
    const Workload* w = find_workload(workload_name);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload '%s' (try --list-workloads)\n",
                   workload_name.c_str());
      return 1;
    }
    source = w->source;
  } else if (!source_path.empty()) {
    std::ifstream in(source_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", source_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  } else {
    usage();
    return 1;
  }

  if (autotune_mode) {
    topts.issue = issue;
    return run_autotune_mode(source, topts, jobs, cache_dir, json_path);
  }

  DiagnosticEngine diags;
  if (classify_only) {
    const auto ast = dsl::parse(source, diags);
    if (!ast) {
      std::fprintf(stderr, "%s", diags.to_string().c_str());
      return 2;
    }
    for (const auto& l : dsl::classify_innermost_loops(*ast))
      std::printf("loop %-8s depth=%d stmts=%-3d %s%s\n", l.var.c_str(), l.nest_depth,
                  l.body_stmts, dsl::loop_type_name(l.type),
                  l.has_conds ? " conds" : "");
    return 0;
  }

  if (do_explain) {
    const MachineModel machine = MachineModel::issue(issue);
    CompileOptions opts;
    opts.unroll.max_factor = unroll;
    opts.nest = nest;
    opts.scheduler = scheduler;
    const std::string label =
        !workload_name.empty() ? workload_name
                               : (!source_path.empty() ? source_path : "program");
    auto report = explain_source(label, source, machine, opts);
    if (!report) {
      std::fprintf(stderr, "%s\n", report.error_message().c_str());
      return 3;
    }
    std::printf("%s", report->c_str());
    return 0;
  }

  auto compiled = dsl::compile(source, diags);
  if (!compiled) {
    std::fprintf(stderr, "%s", diags.to_string().c_str());
    return 2;
  }
  if (emit_ir_before) std::printf("%s\n", to_string(compiled->fn).c_str());

  const MachineModel machine = MachineModel::issue(issue);
  CompileOptions opts;
  opts.unroll.max_factor = unroll;
  opts.nest = nest;
  opts.scheduler = scheduler;
  TransformStats tstats;
  compile_with_transforms(compiled->fn, TransformSet::for_level(level), machine, opts,
                          &tstats);

  if (emit_ir) std::printf("%s\n", to_string(compiled->fn).c_str());

  const RegUsage regs = measure_register_usage(compiled->fn);
  std::printf("level=%s scheduler=%s issue=%d instructions=%zu registers=%d(int)+%d(fp)\n",
              level_name(level), scheduler_kind_name(scheduler), issue,
              compiled->fn.num_insts(), regs.int_regs, regs.fp_regs);
  if (nest.any())
    std::printf("nest: interchanged=%d fused=%d fissioned=%d tiled=%d\n",
                tstats.loops_interchanged, tstats.loops_fused, tstats.loops_fissioned,
                tstats.loops_tiled);

  if (do_sim) {
    CycleProfile profile;
    SimOptions sim_opts;
    if (do_profile) sim_opts.profile = &profile;
    const RunOutcome run = run_seeded(compiled->fn, machine, std::move(sim_opts));
    if (!run.result.ok) {
      std::fprintf(stderr, "simulation failed: %s\n", run.result.error.c_str());
      return 3;
    }
    std::printf("cycles=%llu dynamic-instructions=%llu ipc=%.2f\n",
                static_cast<unsigned long long>(run.result.cycles),
                static_cast<unsigned long long>(run.result.instructions),
                static_cast<double>(run.result.instructions) /
                    static_cast<double>(run.result.cycles));
    if (do_profile) std::printf("%s", format_profile(profile).c_str());
    for (const auto& [name, reg] : compiled->scalar_regs) {
      bool is_out = false;
      for (const Reg& r : compiled->fn.live_out())
        if (r == reg) is_out = true;
      if (!is_out) continue;
      if (reg.is_fp())
        std::printf("out %s = %.9g\n", name.c_str(), run.result.regs.get_fp(reg.id));
      else
        std::printf("out %s = %lld\n", name.c_str(),
                    static_cast<long long>(run.result.regs.get_int(reg.id)));
    }
  }
  return 0;
}
