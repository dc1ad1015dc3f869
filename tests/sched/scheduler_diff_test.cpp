// Differential tests: the optimized dependence graph + heap-based list
// scheduler must produce byte-identical schedules to the retained reference
// implementations (common/reference_sched.hpp) for every block of every
// workload in the study grid, and of the modulo backend's pipelined code.
// This is the contract that lets the hot path change its data structures
// freely: same issue_time, same order, same makespan.
#include <gtest/gtest.h>

#include "analysis/depgraph.hpp"
#include "common/reference_sched.hpp"
#include "harness/experiment.hpp"
#include "machine/machine.hpp"
#include "sched/modulo/modulo.hpp"
#include "sched/scheduler.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

// Compiles a workload with scheduling disabled so the test can schedule each
// block itself through both pipelines.
Expected<CompiledLoop> compile_unscheduled(const Workload& w, OptLevel level,
                                           const MachineModel& m) {
  CompileOptions opts;
  opts.schedule = false;
  return try_compile_workload(w, level, m, opts);
}

TEST(SchedulerDiff, BlockSchedulesMatchReferenceAcrossStudyGrid) {
  for (const Workload& w : workload_suite()) {
    for (OptLevel level : kLevels) {
      for (int width : kIssueWidths) {
        const MachineModel m = MachineModel::issue(width);
        auto compiled = compile_unscheduled(w, level, m);
        if (!compiled) continue;  // cell fails before scheduling either way
        const Function& fn = compiled->fn;
        const ScheduleAnalyses analyses(fn);
        for (const Block& b : fn.blocks()) {
          if (b.insts.size() < 2) continue;
          const DepGraph g(fn, b.id, m, analyses.live, analyses.preheaders[b.id]);
          const RefDepGraph rg(fn, b.id, m, analyses.live, analyses.preheaders[b.id]);
          const BlockSchedule got = list_schedule(g, fn, b.id, m);
          const BlockSchedule want = reference_list_schedule(rg, fn, b.id, m);
          ASSERT_EQ(got.order, want.order)
              << w.name << " " << level_name(level) << " issue-" << width
              << " block " << b.id;
          ASSERT_EQ(got.issue_time, want.issue_time)
              << w.name << " " << level_name(level) << " issue-" << width
              << " block " << b.id;
          ASSERT_EQ(got.makespan, want.makespan)
              << w.name << " " << level_name(level) << " issue-" << width
              << " block " << b.id;
        }
      }
    }
  }
}

// Whole-function check: schedule_function (shared analyses, heap scheduler)
// emits the same instruction sequence as the reference pipeline.
TEST(SchedulerDiff, ScheduleFunctionMatchesReferencePipeline) {
  for (const Workload& w : workload_suite()) {
    for (OptLevel level : kLevels) {
      for (int width : kIssueWidths) {
        const MachineModel m = MachineModel::issue(width);
        auto compiled = compile_unscheduled(w, level, m);
        if (!compiled) continue;
        Function opt_fn = compiled->fn;
        Function ref_fn = compiled->fn;
        schedule_function(opt_fn, m);
        reference_schedule_function(ref_fn, m);
        ASSERT_EQ(opt_fn.num_blocks(), ref_fn.num_blocks());
        for (const Block& b : opt_fn.blocks()) {
          const Block& rb = ref_fn.block(b.id);
          ASSERT_EQ(b.insts.size(), rb.insts.size())
              << w.name << " " << level_name(level) << " issue-" << width
              << " block " << b.id;
          for (std::size_t i = 0; i < b.insts.size(); ++i) {
            ASSERT_EQ(b.insts[i].uid, rb.insts[i].uid)
                << w.name << " " << level_name(level) << " issue-" << width
                << " block " << b.id << " position " << i;
          }
        }
      }
    }
  }
}

// Software-pipelined code is the scheduler's hardest input: the kernel block
// mixes instructions from several iterations with non-trivial cross-stage
// dependences, and the prologue/epilogue blocks are long and straight-line.
// Both pipelines must still agree on every block of the modulo backend's
// output.
TEST(SchedulerDiff, SoftwarePipelinedSchedulesMatchReference) {
  int loops_pipelined = 0;
  for (const Workload& w : workload_suite()) {
    for (OptLevel level : kLevels) {
      for (int width : {2, 8}) {
        const MachineModel m = MachineModel::issue(width);
        auto compiled = compile_unscheduled(w, level, m);
        if (!compiled) continue;
        Function opt_fn = compiled->fn;
        loops_pipelined += modulo_pipeline_function(opt_fn, m).loops_pipelined;
        Function ref_fn = opt_fn;  // identical pipelined IR into both schedulers
        schedule_function(opt_fn, m);
        reference_schedule_function(ref_fn, m);
        ASSERT_EQ(opt_fn.num_blocks(), ref_fn.num_blocks());
        for (const Block& b : opt_fn.blocks()) {
          const Block& rb = ref_fn.block(b.id);
          ASSERT_EQ(b.insts.size(), rb.insts.size())
              << w.name << " " << level_name(level) << " modulo issue-" << width
              << " block " << b.id;
          for (std::size_t i = 0; i < b.insts.size(); ++i) {
            ASSERT_EQ(b.insts[i].uid, rb.insts[i].uid)
                << w.name << " " << level_name(level) << " modulo issue-" << width
                << " block " << b.id << " position " << i;
          }
        }
      }
    }
  }
  EXPECT_GT(loops_pipelined, 0);
}

// Per-block differential over pipelined kernels through the raw scheduler
// entry points (DepGraph vs RefDepGraph), as the study-grid test does for
// the unpipelined IR.
TEST(SchedulerDiff, PipelinedBlockSchedulesMatchReference) {
  int loops_pipelined = 0;
  for (const Workload& w : workload_suite()) {
    const MachineModel m = MachineModel::issue(4);
    auto compiled = compile_unscheduled(w, OptLevel::Lev4, m);
    if (!compiled) continue;
    Function fn = compiled->fn;
    loops_pipelined += modulo_pipeline_function(fn, m).loops_pipelined;
    const ScheduleAnalyses analyses(fn);
    for (const Block& b : fn.blocks()) {
      if (b.insts.size() < 2) continue;
      const DepGraph g(fn, b.id, m, analyses.live, analyses.preheaders[b.id]);
      const RefDepGraph rg(fn, b.id, m, analyses.live, analyses.preheaders[b.id]);
      const BlockSchedule got = list_schedule(g, fn, b.id, m);
      const BlockSchedule want = reference_list_schedule(rg, fn, b.id, m);
      ASSERT_EQ(got.order, want.order) << w.name << " block " << b.id;
      ASSERT_EQ(got.issue_time, want.issue_time) << w.name << " block " << b.id;
      ASSERT_EQ(got.makespan, want.makespan) << w.name << " block " << b.id;
    }
  }
  EXPECT_GT(loops_pipelined, 0);
}

}  // namespace
}  // namespace ilp
