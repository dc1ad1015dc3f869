// google-benchmark microbenchmarks of compiler-pass throughput: how fast each
// phase of the pipeline runs on representative workloads.
//
// The "HotPath" benchmarks isolate the per-cell pipeline the study spends its
// cold-cache time in — dependence-graph construction, list scheduling and
// cycle-accurate simulation on the largest Lev4/issue-8 superblock — plus one
// end-to-end cold study.  Their JSON output (--benchmark_format=json) is the
// perf-trajectory record checked in as BENCH_<pr>.json; CI runs them as a
// crash smoke without asserting timings.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc_hook.hpp"
#include "analysis/cfg.hpp"
#include "analysis/depgraph.hpp"
#include "analysis/dominators.hpp"
#include "analysis/liveness.hpp"
#include "analysis/loops.hpp"
#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "opt/constprop.hpp"
#include "opt/cse.hpp"
#include "opt/dce.hpp"
#include "opt/pipeline.hpp"
#include "regalloc/regalloc.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "support/compile_ctx.hpp"
#include "trans/accexpand.hpp"
#include "trans/combine.hpp"
#include "trans/indexpand.hpp"
#include "trans/level.hpp"
#include "trans/rename.hpp"
#include "trans/strengthred.hpp"
#include "trans/treeheight.hpp"
#include "trans/unroll.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace ilp;

const Workload& big_loop() { return *find_workload("NAS-5"); }
const Workload& small_loop() { return *find_workload("dotprod"); }

// The full Lev pipeline minus the final schedule, so the scheduling
// benchmarks start from unscheduled IR.
CompileOptions unscheduled() {
  CompileOptions opts;
  opts.schedule = false;
  return opts;
}

Function compiled_conv(const Workload& w) {
  DiagnosticEngine d;
  auto r = dsl::compile(w.source, d);
  run_conventional_optimizations(r->fn);
  return std::move(r->fn);
}

void BM_FrontendCompile(benchmark::State& state) {
  for (auto _ : state) {
    DiagnosticEngine d;
    auto r = dsl::compile(big_loop().source, d);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FrontendCompile);

void BM_ConventionalPipeline(benchmark::State& state) {
  for (auto _ : state) {
    DiagnosticEngine d;
    auto r = dsl::compile(big_loop().source, d);
    run_conventional_optimizations(r->fn);
    benchmark::DoNotOptimize(r->fn.num_insts());
  }
}
BENCHMARK(BM_ConventionalPipeline);

void BM_UnrollPlusRename(benchmark::State& state) {
  const Function base = compiled_conv(small_loop());
  for (auto _ : state) {
    Function fn = base;
    unroll_loops(fn);
    rename_registers(fn);
    benchmark::DoNotOptimize(fn.num_insts());
  }
}
BENCHMARK(BM_UnrollPlusRename);

void BM_ExpansionTransforms(benchmark::State& state) {
  Function base = compiled_conv(small_loop());
  unroll_loops(base);
  for (auto _ : state) {
    Function fn = base;
    accumulator_expansion(fn);
    induction_expansion(fn);
    benchmark::DoNotOptimize(fn.num_insts());
  }
}
BENCHMARK(BM_ExpansionTransforms);

void BM_Lev3Transforms(benchmark::State& state) {
  Function base = compiled_conv(small_loop());
  unroll_loops(base);
  rename_registers(base);
  for (auto _ : state) {
    Function fn = base;
    operation_combining(fn);
    strength_reduction(fn);
    tree_height_reduction(fn);
    benchmark::DoNotOptimize(fn.num_insts());
  }
}
BENCHMARK(BM_Lev3Transforms);

void BM_SuperblockSchedule(benchmark::State& state) {
  DiagnosticEngine d;
  auto r = dsl::compile(big_loop().source, d);
  compile_at_level(r->fn, OptLevel::Lev4, MachineModel::issue(8), unscheduled());
  for (auto _ : state) {
    Function fn = r->fn;
    schedule_function(fn, MachineModel::issue(8));
    benchmark::DoNotOptimize(fn.num_insts());
  }
}
BENCHMARK(BM_SuperblockSchedule);

void BM_RegisterUsageMeasurement(benchmark::State& state) {
  DiagnosticEngine d;
  auto r = dsl::compile(big_loop().source, d);
  compile_at_level(r->fn, OptLevel::Lev4, MachineModel::issue(8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_register_usage(r->fn).total());
  }
}
BENCHMARK(BM_RegisterUsageMeasurement);

void BM_SimulatorThroughput(benchmark::State& state) {
  DiagnosticEngine d;
  auto r = dsl::compile(find_workload("NAS-3")->source, d);
  compile_at_level(r->fn, OptLevel::Lev4, MachineModel::issue(8));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const RunOutcome out = run_seeded(r->fn, MachineModel::issue(8));
    instructions += out.result.instructions;
    benchmark::DoNotOptimize(out.result.cycles);
  }
  state.counters["instrs/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput);

void BM_EndToEndWorkload(benchmark::State& state) {
  const Workload& w = *find_workload("add");
  for (auto _ : state) {
    const CompiledLoop c = compile_workload(w, OptLevel::Lev4, MachineModel::issue(8));
    benchmark::DoNotOptimize(simulate_cycles(c.fn, MachineModel::issue(8)));
  }
}
BENCHMARK(BM_EndToEndWorkload);

// ---- Hot-path suite -------------------------------------------------------
// Fixture: the largest workload of the suite (NAS-5, 71 statements) at Lev4
// for the issue-8 machine, unscheduled — the biggest superblock the study
// ever hands to DepGraph/list_schedule.

struct HotPathFixture {
  Function fn{"x"};
  BlockId big_block = kNoBlock;
  std::vector<BlockId> preheaders;

  HotPathFixture() {
    DiagnosticEngine d;
    auto r = dsl::compile(find_workload("NAS-5")->source, d);
    fn = std::move(r->fn);
    compile_at_level(fn, OptLevel::Lev4, MachineModel::issue(8), unscheduled());
    const Cfg cfg(fn);
    const Dominators dom(cfg);
    preheaders.assign(fn.num_blocks(), kNoBlock);
    for (const SimpleLoop& loop : find_simple_loops(cfg, dom))
      preheaders[loop.body] = loop.preheader;
    std::size_t best = 0;
    for (const Block& b : fn.blocks())
      if (b.insts.size() > best) {
        best = b.insts.size();
        big_block = b.id;
      }
  }
};

const HotPathFixture& hot_path() {
  static HotPathFixture f;
  return f;
}

void BM_HotPathDepGraphBuild(benchmark::State& state) {
  const HotPathFixture& f = hot_path();
  const MachineModel m = MachineModel::issue(8);
  const Cfg cfg(f.fn);
  const Liveness live(cfg);
  for (auto _ : state) {
    const DepGraph g(f.fn, f.big_block, m, live, f.preheaders[f.big_block]);
    benchmark::DoNotOptimize(g.edges().size());
  }
  state.counters["insts"] =
      static_cast<double>(f.fn.block(f.big_block).insts.size());
}
BENCHMARK(BM_HotPathDepGraphBuild);

void BM_HotPathListSchedule(benchmark::State& state) {
  const HotPathFixture& f = hot_path();
  const MachineModel m = MachineModel::issue(8);
  const Cfg cfg(f.fn);
  const Liveness live(cfg);
  const DepGraph g(f.fn, f.big_block, m, live, f.preheaders[f.big_block]);
  for (auto _ : state) {
    const BlockSchedule s = list_schedule(g, f.fn, f.big_block, m);
    benchmark::DoNotOptimize(s.makespan);
  }
}
BENCHMARK(BM_HotPathListSchedule);

// The acceptance metric for this PR's speedup target: dependence-graph
// construction plus list scheduling of the largest Lev4/issue-8 superblock.
void BM_HotPathDepGraphPlusSchedule(benchmark::State& state) {
  const HotPathFixture& f = hot_path();
  const MachineModel m = MachineModel::issue(8);
  const Cfg cfg(f.fn);
  const Liveness live(cfg);
  for (auto _ : state) {
    const DepGraph g(f.fn, f.big_block, m, live, f.preheaders[f.big_block]);
    const BlockSchedule s = list_schedule(g, f.fn, f.big_block, m);
    benchmark::DoNotOptimize(s.makespan);
  }
}
BENCHMARK(BM_HotPathDepGraphPlusSchedule);

void BM_HotPathScheduleFunction(benchmark::State& state) {
  const HotPathFixture& f = hot_path();
  const MachineModel m = MachineModel::issue(8);
  for (auto _ : state) {
    Function fn = f.fn;
    schedule_function(fn, m);
    benchmark::DoNotOptimize(fn.num_insts());
  }
}
BENCHMARK(BM_HotPathScheduleFunction);

// Interlock-heavy simulation: dotprod's loop-carried fadd recurrence on the
// issue-8 machine stalls most cycles, the case stall cycle-skipping targets.
void BM_HotPathSimulateStallHeavy(benchmark::State& state) {
  DiagnosticEngine d;
  auto r = dsl::compile(find_workload("dotprod")->source, d);
  compile_at_level(r->fn, OptLevel::Conv, MachineModel::issue(8));
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const RunOutcome out = run_seeded(r->fn, MachineModel::issue(8));
    cycles += out.result.cycles;
    benchmark::DoNotOptimize(out.result.stall_cycles);
  }
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HotPathSimulateStallHeavy);

void BM_HotPathSimulateLev4Issue8(benchmark::State& state) {
  const HotPathFixture& f = hot_path();
  Function fn = f.fn;
  schedule_function(fn, MachineModel::issue(8));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const RunOutcome out = run_seeded(fn, MachineModel::issue(8));
    instructions += out.result.instructions;
    benchmark::DoNotOptimize(out.result.cycles);
  }
  state.counters["instrs/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HotPathSimulateLev4Issue8);

// Study-shaped simulation: the 800 cells of the paper's study (every
// workload x Lev0-4 x issue 1/2/4/8), compiled once in the fixture; each
// iteration simulates all of them through try_simulate_cycles, the call
// run_study makes per cell.  Unlike the single-cell benchmarks above, the
// per-run set-up (decoding, seeding the arrays, the register file) weighs in
// here as it does in the study.  allocs/cell is exact, so CI asserts a
// budget on it.
struct StudyCellsFixture {
  struct Cell {
    Function fn{"x"};
    MachineModel machine;
  };
  std::vector<Cell> cells;
  std::uint64_t instructions = 0;  // simulated per pass over every cell

  StudyCellsFixture() {
    for (const Workload& w : workload_suite())
      for (OptLevel level : kLevels)
        for (int width : kIssueWidths) {
          Cell c;
          c.machine = MachineModel::issue(width);
          c.fn = compile_workload(w, level, c.machine).fn;
          instructions += run_seeded(c.fn, c.machine).result.instructions;
          cells.push_back(std::move(c));
        }
  }
};

void BM_HotPathSimulateStudyCells(benchmark::State& state) {
  static const StudyCellsFixture f;
  std::uint64_t instructions = 0;
  std::uint64_t allocs = 0;
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const allochook::Snapshot before = allochook::snapshot();
    for (const StudyCellsFixture::Cell& c : f.cells) {
      const Expected<std::uint64_t> cycles = try_simulate_cycles(c.fn, c.machine);
      if (!cycles) state.SkipWithError(cycles.error_message().c_str());
      benchmark::DoNotOptimize(cycles);
    }
    allocs += allochook::delta(before, allochook::snapshot()).count;
    instructions += f.instructions;
    cells += f.cells.size();
  }
  state.counters["instrs/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
  state.counters["allocs/cell"] =
      static_cast<double>(allocs) / static_cast<double>(std::max<std::uint64_t>(cells, 1));
}
BENCHMARK(BM_HotPathSimulateStudyCells)->Unit(benchmark::kMillisecond);

// ---- Compile-pipeline allocation benchmarks -------------------------------
// The full pass pipeline (conventional opts through scheduling, no
// simulation) on the largest workload, with heap-allocation counts from the
// operator-new interposer (alloc_hook.cpp) reported next to ns/compile.
// The Warm variant is the service steady state: every compile reuses the
// calling thread's pooled CompileContext, so pass scratch (dense maps,
// liveness rows, arena chunks) is already hot.  The ColdContext variant
// constructs a fresh context per compile — the difference is what the
// context pooling buys.

void BM_HotPathCompileLev4Issue8Warm(benchmark::State& state) {
  DiagnosticEngine d;
  auto r = dsl::compile(big_loop().source, d);
  const Function base = r->fn;
  const MachineModel m = MachineModel::issue(8);
  const TransformSet set = TransformSet::for_level(OptLevel::Lev4);
  {
    Function fn = base;  // prime the thread's context: measure steady state
    compile_with_transforms(fn, set, m, {});
  }
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    Function fn = base;
    const allochook::Snapshot before = allochook::snapshot();
    compile_with_transforms(fn, set, m, {});
    const allochook::Snapshot diff = allochook::delta(before, allochook::snapshot());
    allocs += diff.count;
    bytes += diff.bytes;
    benchmark::DoNotOptimize(fn.num_insts());
  }
  state.counters["allocs/compile"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.counters["alloc_bytes/compile"] =
      benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HotPathCompileLev4Issue8Warm);

void BM_HotPathCompileLev4Issue8ColdContext(benchmark::State& state) {
  DiagnosticEngine d;
  auto r = dsl::compile(big_loop().source, d);
  const Function base = r->fn;
  const MachineModel m = MachineModel::issue(8);
  const TransformSet set = TransformSet::for_level(OptLevel::Lev4);
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    Function fn = base;
    const allochook::Snapshot before = allochook::snapshot();
    CompileContext ctx;
    compile_with_transforms(fn, set, m, {}, nullptr, ctx);
    const allochook::Snapshot diff = allochook::delta(before, allochook::snapshot());
    allocs += diff.count;
    bytes += diff.bytes;
    benchmark::DoNotOptimize(fn.num_insts());
  }
  state.counters["allocs/compile"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.counters["alloc_bytes/compile"] =
      benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HotPathCompileLev4Issue8ColdContext);

// Full cold-cache study, serial: every cell recompiled, rescheduled and
// resimulated — the end-to-end wall-time figure the ROADMAP tracks.
void BM_HotPathColdStudySerial(benchmark::State& state) {
  for (auto _ : state) {
    StudyOptions opts;
    opts.jobs = 1;
    const StudyResult res = run_study(opts);
    benchmark::DoNotOptimize(res.loops.size());
    if (res.stats.failed_cells != 0) state.SkipWithError("study cell failed");
  }
}
BENCHMARK(BM_HotPathColdStudySerial)->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace

BENCHMARK_MAIN();
