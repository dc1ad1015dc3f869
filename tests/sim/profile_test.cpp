// Properties of the cycle-accounting profiler (sim/profile.hpp):
//
//   * Conservation: every profile partitions the machine's whole slot
//     capacity — sum over causes == width * cycles exactly, per-block column
//     sums match the globals, the occupancy histogram sums to the cycle
//     count, and the per-opcode tallies match the issued/stalled totals.
//     Checked across the Table 2 suite, the nest suite, and a fuzz corpus,
//     at every level x width x scheduler.
//   * Off-path purity: SimOptions::profile == nullptr is byte-identical to
//     the pre-profiler simulator — cycles, instructions, branches, stalls,
//     the issue trace, final memory and registers all match exactly.
//   * Skip equivalence: the simulator's stall-cycle skipping attributes every
//     slot as the reference loop stepping each cycle does
//     (tests/common/reference_sim.hpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/nest_suite.hpp"
#include "common/reference_sim.hpp"
#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"
#include "trans/level.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

using testing::fuzz_seed_count;
using testing::random_nest_program;
using testing::random_program;

struct ProfiledRun {
  RunOutcome out;
  CycleProfile profile;
};

ProfiledRun run_profiled(const Function& fn, const MachineModel& m) {
  ProfiledRun r;
  SimOptions opts;
  opts.profile = &r.profile;
  r.out = run_seeded(fn, m, std::move(opts));
  return r;
}

// The reference loop on the same seeded memory, stepping every stall cycle.
ProfiledRun run_profiled_per_cycle(const Function& fn, const MachineModel& m) {
  ProfiledRun r;
  SimOptions opts;
  opts.profile = &r.profile;
  seed_arrays(fn, r.out.memory);
  r.out.result = testing::reference_run(m, opts, fn, r.out.memory,
                                        testing::StallStepping::PerCycle);
  return r;
}

// The full invariant bundle for one successful run.
void expect_conserves(const ProfiledRun& r, const std::string& label) {
  ASSERT_TRUE(r.out.result.ok) << label << ": " << r.out.result.error;
  EXPECT_EQ(r.profile.check_conservation(), "") << label;
  EXPECT_EQ(r.profile.cycles, r.out.result.cycles) << label;
  EXPECT_EQ(r.profile.slots[static_cast<std::size_t>(StallCause::Issued)],
            r.out.result.instructions)
      << label;
  // Full-stall cycles are exactly the zero-occupancy bin.
  EXPECT_EQ(r.profile.occupancy[0], r.out.result.stall_cycles) << label;
}

void expect_same_profile(const CycleProfile& a, const CycleProfile& b,
                         const std::string& label) {
  EXPECT_EQ(a.width, b.width) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.slots, b.slots) << label;
  EXPECT_EQ(a.block_slots, b.block_slots) << label;
  EXPECT_EQ(a.issued_by_opcode, b.issued_by_opcode) << label;
  EXPECT_EQ(a.stall_by_opcode, b.stall_by_opcode) << label;
  EXPECT_EQ(a.occupancy, b.occupancy) << label;
}

// Acceptance grid: all 40 workloads x Lev0-4 x widths 1/2/4/8 x both
// scheduling backends conserve exactly.
TEST(ProfileConservation, WorkloadGridBothSchedulers) {
  for (const Workload& w : workload_suite()) {
    for (OptLevel level : kLevels) {
      for (int width : kIssueWidths) {
        for (SchedulerKind sched : {SchedulerKind::List, SchedulerKind::Modulo}) {
          const MachineModel m = MachineModel::issue(width);
          CompileOptions copts;
          copts.scheduler = sched;
          auto compiled = try_compile_workload(w, level, m, copts);
          if (!compiled) continue;
          const std::string label =
              w.name + " " + level_name(level) + " issue-" +
              std::to_string(width) +
              (sched == SchedulerKind::Modulo ? " modulo" : " list");
          expect_conserves(run_profiled(compiled->fn, m), label);
        }
      }
    }
  }
}

// Nest-restructured code (fuse/interchange/tile enabled) conserves too; the
// restructured CFGs have the multi-loop shapes the per-block matrix indexes.
TEST(ProfileConservation, NestSuiteWithRestructuring) {
  CompileOptions copts;
  copts.nest.fuse = true;
  copts.nest.interchange = true;
  copts.nest.tile = true;
  for (const Workload& w : nest_suite()) {
    for (OptLevel level : {OptLevel::Conv, OptLevel::Lev2, OptLevel::Lev4}) {
      for (int width : {1, 8}) {
        const MachineModel m = MachineModel::issue(width);
        auto compiled = try_compile_workload(w, level, m, copts);
        if (!compiled) continue;
        expect_conserves(run_profiled(compiled->fn, m),
                         w.name + " nest " + level_name(level) + " issue-" +
                             std::to_string(width));
      }
    }
  }
}

// Fuzz corpus: random programs through the full pipeline.  Width and
// scheduler rotate with the seed so the corpus covers the whole grid while
// every level sees every seed; the simulator's attribution must agree slot
// for slot with the reference stepping every stall cycle.
TEST(ProfileConservation, FuzzCorpusAndSkipEquivalence) {
  const std::uint64_t n = fuzz_seed_count(200);
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    const std::string src = seed % 3 == 0 ? random_nest_program(seed)
                                          : random_program(seed);
    const int width = kIssueWidths[seed % kIssueWidths.size()];
    const SchedulerKind sched =
        seed % 2 == 0 ? SchedulerKind::Modulo : SchedulerKind::List;
    for (OptLevel level : kLevels) {
      DiagnosticEngine diags;
      auto r = dsl::compile(src, diags);
      ASSERT_TRUE(r.has_value()) << diags.to_string() << "\n" << src;
      const MachineModel m = MachineModel::issue(width);
      CompileOptions copts;
      copts.scheduler = sched;
      compile_at_level(r->fn, level, m, copts);
      const std::string label = "seed=" + std::to_string(seed) + " " +
                                level_name(level) + " issue-" +
                                std::to_string(width);
      const ProfiledRun skip_on = run_profiled(r->fn, m);
      expect_conserves(skip_on, label);
      const ProfiledRun skip_off = run_profiled_per_cycle(r->fn, m);
      expect_conserves(skip_off, label + " noskip");
      expect_same_profile(skip_on.profile, skip_off.profile, label);
    }
  }
}

// Profiling off must be byte-identical to profiling on in every observable:
// the profiled instantiation may only *add* bookkeeping, never perturb
// timing, trace, memory or registers.  fp_tolerance 0 makes the memory and
// live-out comparison exact.
TEST(ProfileOffPath, ByteIdenticalObservables) {
  for (const Workload& w : workload_suite()) {
    for (OptLevel level : {OptLevel::Conv, OptLevel::Lev4}) {
      const MachineModel m = MachineModel::issue(8);
      auto compiled = try_compile_workload(w, level, m);
      if (!compiled) continue;
      const std::string label = w.name + " " + level_name(level);

      std::vector<IssueEvent> trace_on, trace_off;
      CycleProfile profile;
      SimOptions on;
      on.profile = &profile;
      on.trace = &trace_on;
      SimOptions off;
      off.trace = &trace_off;
      const RunOutcome a = run_seeded(compiled->fn, m, std::move(on));
      const RunOutcome b = run_seeded(compiled->fn, m, std::move(off));

      ASSERT_TRUE(a.result.ok) << label;
      ASSERT_TRUE(b.result.ok) << label;
      EXPECT_EQ(a.result.cycles, b.result.cycles) << label;
      EXPECT_EQ(a.result.instructions, b.result.instructions) << label;
      EXPECT_EQ(a.result.branches, b.result.branches) << label;
      EXPECT_EQ(a.result.stall_cycles, b.result.stall_cycles) << label;
      ASSERT_EQ(trace_on.size(), trace_off.size()) << label;
      for (std::size_t i = 0; i < trace_on.size(); ++i) {
        EXPECT_EQ(trace_on[i].uid, trace_off[i].uid) << label;
        EXPECT_EQ(trace_on[i].cycle, trace_off[i].cycle) << label;
      }
      EXPECT_EQ(compare_observable(compiled->fn, a, b, /*fp_tolerance=*/0.0), "")
          << label;
    }
  }
}

// The same identity, untraced (so both runs fast-forward repeating
// iterations), on loops that leave their steady state mid-run: a profiled
// run's fallback to precise timing restores the profile as exactly as the
// scoreboard, and a failed run stops at the same instruction either way.
TEST(ProfileOffPath, SteadyStateBreaks) {
  for (const testing::SteadyStateCase& c : testing::steady_state_breaks()) {
    for (int width : {1, 2, 4, 8}) {
      const MachineModel m = MachineModel::issue(width);
      const std::string label = c.name + " issue-" + std::to_string(width);
      const ProfiledRun on = run_profiled(c.fn, m);
      const RunOutcome off = run_seeded(c.fn, m);
      EXPECT_EQ(on.out.result.ok, off.result.ok) << label;
      EXPECT_EQ(on.out.result.error, off.result.error) << label;
      EXPECT_EQ(on.out.result.cycles, off.result.cycles) << label;
      EXPECT_EQ(on.out.result.instructions, off.result.instructions) << label;
      EXPECT_EQ(on.out.result.branches, off.result.branches) << label;
      EXPECT_EQ(on.out.result.stall_cycles, off.result.stall_cycles) << label;
      EXPECT_EQ(on.out.result.ff_instructions, off.result.ff_instructions) << label;
      EXPECT_GT(off.result.ff_instructions, 0u) << label;
      EXPECT_TRUE(on.out.memory == off.memory) << label;
      if (!off.result.ok) continue;
      EXPECT_EQ(compare_observable(c.fn, on.out, off, /*fp_tolerance=*/0.0), "") << label;
      expect_conserves(on, label);
      expect_same_profile(on.profile, run_profiled_per_cycle(c.fn, m).profile, label);
    }
  }
}

// Targeted attribution checks on hand-built programs with known timelines.

// Figure 1's loop: six instructions per iteration ending in a taken branch.
// On a wide machine the dominant losses are the redirect squash and the
// load-use interlocks; drain appears exactly once (the RET cycle).
TEST(ProfileAttribution, Fig1LoopShapes) {
  const Function fn = testing::make_fig1_loop(64);
  const ProfiledRun r = run_profiled(fn, testing::infinite_issue());
  expect_conserves(r, "fig1");
  const auto slot = [&](StallCause c) {
    return r.profile.slots[static_cast<std::size_t>(c)];
  };
  EXPECT_GT(slot(StallCause::BranchFetch), 0u);
  EXPECT_GT(slot(StallCause::MemWait), 0u);  // fadd waits on its two loads
  EXPECT_GT(slot(StallCause::Drain), 0u);
  // Drain is confined to the final cycle's leftover slots.
  EXPECT_LT(slot(StallCause::Drain), static_cast<std::uint64_t>(r.profile.width));
}

// A load stalled behind an aliasing store is memory latency, not a register
// interlock: issue-1 machine, store latency 6 -> five full mem_wait cycles.
TEST(ProfileAttribution, AliasingStoreIsMemWait) {
  Function fn("alias");
  const std::int32_t A = fn.add_array({"A", 1000, 8, 4, false});
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  b.set_block(entry);
  const Reg idx = b.ldi(0);
  const Reg v1 = b.ldi(7);
  b.st(idx, fn.array(A)->base, v1, A);
  const Reg got = b.ld(idx, fn.array(A)->base, A);
  fn.add_live_out(got);
  b.ret();
  fn.renumber();

  MachineModel m = MachineModel::issue(1);
  m.lat_store = 6;
  const ProfiledRun r = run_profiled(fn, m);
  expect_conserves(r, "alias");
  EXPECT_EQ(r.profile.slots[static_cast<std::size_t>(StallCause::MemWait)], 5u);
  EXPECT_EQ(r.profile.slots[static_cast<std::size_t>(StallCause::RawWait)], 0u);
  // The blocked head was the load.
  EXPECT_EQ(r.profile.stall_by_opcode[static_cast<std::size_t>(Opcode::LD)], 5u);
}

// A register chain with no memory in sight is raw_wait; and a value loaded
// from memory then consumed counts its consumer's wait as mem_wait (the
// latest producer was a load).
TEST(ProfileAttribution, RawVersusLoadProducer) {
  const Function expr = testing::make_fig7_expr();
  const ProfiledRun r = run_profiled(expr, testing::infinite_issue());
  expect_conserves(r, "fig7");
  EXPECT_GT(r.profile.slots[static_cast<std::size_t>(StallCause::RawWait)], 0u);
  EXPECT_EQ(r.profile.slots[static_cast<std::size_t>(StallCause::MemWait)], 0u);
}

}  // namespace
}  // namespace ilp
