// Equivalence tests for the simulator's stall cycle-skipping: skipping
// straight to the blocking operand's ready cycle must leave every observable —
// cycles, instructions, branches, stall_cycles, the issue trace, final memory
// and registers — identical to per-cycle evaluation, which only the reference
// loop (tests/common/reference_sim.hpp) still performs.  Also regression-tests
// the simulator's store forwarding against aliasing stores and many distinct
// addresses.
#include <gtest/gtest.h>

#include <vector>

#include "common/reference_sim.hpp"
#include "harness/experiment.hpp"
#include "ir/builder.hpp"
#include "machine/machine.hpp"
#include "sim/simulator.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

struct TracedRun {
  RunOutcome out;
  std::vector<IssueEvent> trace;
};

// The simulator, which always skips stalls.
TracedRun run_traced(const Function& fn, const MachineModel& m) {
  TracedRun r;
  SimOptions opts;
  opts.trace = &r.trace;
  r.out = run_seeded(fn, m, std::move(opts));
  return r;
}

// The reference loop on the same seeded memory, stepping every stall cycle.
TracedRun run_traced_per_cycle(const Function& fn, const MachineModel& m) {
  TracedRun r;
  SimOptions opts;
  opts.trace = &r.trace;
  seed_arrays(fn, r.out.memory);
  r.out.result = testing::reference_run(m, opts, fn, r.out.memory,
                                        testing::StallStepping::PerCycle);
  return r;
}

void expect_equivalent(const Function& fn, const MachineModel& m,
                       const std::string& label) {
  const TracedRun on = run_traced(fn, m);
  const TracedRun off = run_traced_per_cycle(fn, m);
  ASSERT_EQ(on.out.result.ok, off.out.result.ok) << label;
  if (!on.out.result.ok) return;
  EXPECT_EQ(on.out.result.cycles, off.out.result.cycles) << label;
  EXPECT_EQ(on.out.result.instructions, off.out.result.instructions) << label;
  EXPECT_EQ(on.out.result.branches, off.out.result.branches) << label;
  EXPECT_EQ(on.out.result.stall_cycles, off.out.result.stall_cycles) << label;
  ASSERT_EQ(on.trace.size(), off.trace.size()) << label;
  for (std::size_t i = 0; i < on.trace.size(); ++i) {
    EXPECT_EQ(on.trace[i].uid, off.trace[i].uid) << label << " event " << i;
    EXPECT_EQ(on.trace[i].cycle, off.trace[i].cycle) << label << " event " << i;
  }
  EXPECT_EQ(compare_observable(fn, on.out, off.out), "") << label;
}

// Every workload, compiled at every level, simulated with skipping and per
// cycle on narrow and wide machines.  Widths 1 and 8 bracket the grid: width 1
// maximizes stall runs (best case for skipping), width 8 exercises partial
// issue cycles before a stall.
TEST(CycleSkip, EquivalentAcrossWorkloads) {
  for (const Workload& w : workload_suite()) {
    for (OptLevel level : kLevels) {
      for (int width : {1, 8}) {
        const MachineModel m = MachineModel::issue(width);
        auto compiled = try_compile_workload(w, level, m);
        if (!compiled) continue;
        expect_equivalent(compiled->fn, m,
                          w.name + " " + level_name(level) + " issue-" +
                              std::to_string(width));
      }
    }
  }
}

// Two stores to the same address: the load must wait for the *latest* store's
// completion, i.e. the newest in-flight entry for the address, not the first.  Uses a long store latency so a wrong answer visibly changes
// the cycle count.
TEST(CycleSkip, LoadWaitsForLatestAliasingStore) {
  Function fn("alias");
  const std::int32_t A = fn.add_array({"A", 1000, 8, 4, false});
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  b.set_block(entry);
  const Reg idx = b.ldi(0);
  const Reg v1 = b.ldi(7);
  const Reg v2 = b.ldi(9);
  b.st(idx, fn.array(A)->base, v1, A);
  b.st(idx, fn.array(A)->base, v2, A);  // the newer in-flight store to A[0]
  const Reg got = b.ld(idx, fn.array(A)->base, A);
  fn.add_live_out(got);
  b.ret();
  fn.renumber();

  MachineModel m = MachineModel::issue(1);
  m.lat_store = 6;

  const TracedRun on = run_traced(fn, m);
  const TracedRun off = run_traced_per_cycle(fn, m);
  ASSERT_TRUE(on.out.result.ok) << on.out.result.error;
  ASSERT_TRUE(off.out.result.ok) << off.out.result.error;
  // Issue-1 timeline: ldi@0, ldi@1, ldi@2, st@3, st@4, ld waits until the
  // second store completes at 4+6=10, ret@11 -> 12 cycles, 5 full stalls.
  EXPECT_EQ(on.out.result.cycles, 12u);
  EXPECT_EQ(on.out.result.stall_cycles, 5u);
  EXPECT_EQ(on.out.result.cycles, off.out.result.cycles);
  EXPECT_EQ(on.out.result.stall_cycles, off.out.result.stall_cycles);
  EXPECT_EQ(on.out.result.regs.get_int(got.id), 9);
}

// Stores to many distinct addresses (8-byte stride, so half the memory
// window's slots stay unwritten) stream through the store queue; the loads
// that follow must still observe the right per-address ready cycles and
// values.
TEST(CycleSkip, ManyDistinctAddressesSurviveTableGrowth) {
  constexpr std::int64_t kN = 1000;
  Function fn("growth");
  const std::int32_t A = fn.add_array({"A", 1000, 8, kN, false});
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId store_loop = b.create_block("stores");
  const BlockId load_pre = b.create_block("load_pre");
  const BlockId load_loop = b.create_block("loads");
  const BlockId exit = b.create_block("exit");

  b.set_block(entry);
  const Reg i = b.ldi(0);
  const Reg limit = b.ldi(8 * kN);
  const Reg sum = b.ldi(0);
  b.jump(store_loop);

  b.set_block(store_loop);
  b.st(i, fn.array(A)->base, i, A);
  b.iaddi_to(i, i, 8);
  b.br(Opcode::BLT, i, limit, store_loop);

  b.set_block(load_pre);
  b.ldi_to(i, 0);
  b.jump(load_loop);

  b.set_block(load_loop);
  const Reg v = b.ld(i, fn.array(A)->base, A);
  b.iadd_to(sum, sum, v);
  b.iaddi_to(i, i, 8);
  b.br(Opcode::BLT, i, limit, load_loop);

  b.set_block(exit);
  b.ret();
  fn.add_live_out(sum);
  fn.renumber();

  const MachineModel m = MachineModel::issue(4);
  expect_equivalent(fn, m, "growth");
}

}  // namespace
}  // namespace ilp
