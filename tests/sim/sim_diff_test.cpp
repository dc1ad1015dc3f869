// Differential test of the simulator against the block-walking reference loop
// it replaced (tests/common/reference_sim.hpp).  The simulator executes a
// decoded program over a dense array memory and fast-forwards repeating loop
// iterations; the reference walks the IR, keeps every cell in the flat map
// and times every instruction.  Every observable must be identical: each
// SimResult field (error string included), the final memory, the full issue
// trace and every CycleProfile field — on the workload grid under both
// schedulers, the nest suite, a random-program corpus (scaled by
// ILP_FUZZ_SEEDS), against the reference skipping stalls and stepping them
// one cycle at a time, with a long store latency, initial register values,
// every error path, and loops that leave their steady state mid-run.  Each
// program runs three ways: tracing every issue (which keeps the simulator
// from fast-forwarding), untraced, and profiled.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/nest_suite.hpp"
#include "common/reference_sim.hpp"
#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "ir/builder.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"
#include "trans/level.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

using testing::fuzz_seed_count;
using testing::random_program;
using testing::StallStepping;

// How the simulator under test runs: recording the whole issue trace, which
// times every instruction precisely; untraced, so repeating iterations are
// fast-forwarded; or profiled (untraced too).
enum class Mode { Traced, Untraced, Profiled };

struct Side {
  SimResult result;
  Memory memory;
  std::vector<IssueEvent> trace;
  CycleProfile profile;
};

// The seeded cells copied into a memory that never had a window mapped, so
// the reference runs on the flat map alone and Memory::operator== compares
// across the two representations.
Memory flat_copy(const Memory& seeded) {
  Memory out;
  seeded.for_each_cell([&](std::int64_t addr, std::uint64_t bits) {
    out.store_int(addr, std::bit_cast<std::int64_t>(bits));
  });
  return out;
}

// One run of each simulator on identically seeded memory, the reference
// stepping stalls as `stepping` says; both record what `mode` says.
std::pair<Side, Side> run_both(const Function& fn, const MachineModel& m,
                               const SimOptions& base, Mode mode,
                               StallStepping stepping = StallStepping::Skip) {
  Side got, want;
  seed_arrays(fn, got.memory);
  want.memory = flat_copy(got.memory);
  SimOptions got_opts = base;
  SimOptions want_opts = base;
  if (mode == Mode::Profiled) {
    got_opts.profile = &got.profile;
    want_opts.profile = &want.profile;
  } else if (mode == Mode::Traced) {
    got_opts.trace = &got.trace;
    want_opts.trace = &want.trace;
    got_opts.trace_limit = want_opts.trace_limit = std::size_t{1} << 22;
  }
  got.result = Simulator(m, got_opts).run(fn, got.memory);
  want.result = testing::reference_run(m, want_opts, fn, want.memory, stepping);
  return {std::move(got), std::move(want)};
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  return true;
}

void expect_same(const Side& got, const Side& want, const std::string& label) {
  EXPECT_EQ(got.result.ok, want.result.ok) << label;
  EXPECT_EQ(got.result.error, want.result.error) << label;
  EXPECT_EQ(got.result.cycles, want.result.cycles) << label;
  EXPECT_EQ(got.result.instructions, want.result.instructions) << label;
  EXPECT_EQ(got.result.branches, want.result.branches) << label;
  EXPECT_EQ(got.result.stall_cycles, want.result.stall_cycles) << label;
  EXPECT_EQ(got.result.regs.ints, want.result.regs.ints) << label;
  EXPECT_TRUE(same_bits(got.result.regs.fps, want.result.regs.fps)) << label;
  EXPECT_EQ(got.memory.footprint(), want.memory.footprint()) << label;
  EXPECT_TRUE(got.memory == want.memory) << label;
  EXPECT_TRUE(want.memory == got.memory) << label;

  ASSERT_EQ(got.trace.size(), want.trace.size()) << label;
  for (std::size_t i = 0; i < got.trace.size(); ++i) {
    ASSERT_EQ(got.trace[i].uid, want.trace[i].uid) << label << " event " << i;
    ASSERT_EQ(got.trace[i].cycle, want.trace[i].cycle) << label << " event " << i;
  }

  const CycleProfile& a = got.profile;
  const CycleProfile& b = want.profile;
  EXPECT_EQ(a.width, b.width) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.slots, b.slots) << label;
  EXPECT_EQ(a.block_names, b.block_names) << label;
  EXPECT_EQ(a.block_slots, b.block_slots) << label;
  EXPECT_EQ(a.issued_by_opcode, b.issued_by_opcode) << label;
  EXPECT_EQ(a.stall_by_opcode, b.stall_by_opcode) << label;
  EXPECT_EQ(a.occupancy, b.occupancy) << label;
}

// Traced, untraced and profiled runs of `fn`, each against the reference.
// Returns the untraced run's result, whose ff_instructions shows how much
// of it was fast-forwarded.
SimResult expect_matches_reference(const Function& fn, const MachineModel& m,
                                   const std::string& label, const SimOptions& base = {},
                                   StallStepping stepping = StallStepping::Skip) {
  SimResult untraced;
  for (Mode mode : {Mode::Traced, Mode::Untraced, Mode::Profiled}) {
    const auto [got, want] = run_both(fn, m, base, mode, stepping);
    expect_same(got, want,
                label + (mode == Mode::Traced     ? ""
                         : mode == Mode::Untraced ? " untraced"
                                                  : " profiled"));
    if (mode == Mode::Untraced) untraced = got.result;
  }
  return untraced;
}

std::string cell_label(const std::string& name, OptLevel level, int width,
                       SchedulerKind sched) {
  return name + " " + level_name(level) + " issue-" + std::to_string(width) +
         (sched == SchedulerKind::Modulo ? " modulo" : " list");
}

// The BENCH_8 grid: all workloads x Lev0-4 x both schedulers, one width per
// instance so ctest runs the widths in parallel.
class SimDiffGrid : public ::testing::TestWithParam<int> {};

TEST_P(SimDiffGrid, WorkloadsBothSchedulers) {
  const int width = GetParam();
  const MachineModel m = MachineModel::issue(width);
  std::uint64_t instructions = 0;
  std::uint64_t ff_instructions = 0;
  for (const Workload& w : workload_suite()) {
    for (OptLevel level : kLevels) {
      for (SchedulerKind sched : {SchedulerKind::List, SchedulerKind::Modulo}) {
        CompileOptions copts;
        copts.scheduler = sched;
        auto compiled = try_compile_workload(w, level, m, copts);
        ASSERT_TRUE(compiled.has_value()) << compiled.error_message();
        const SimResult r =
            expect_matches_reference(compiled->fn, m, cell_label(w.name, level, width, sched));
        instructions += r.instructions;
        ff_instructions += r.ff_instructions;
      }
    }
  }
  // The untraced runs compared above are mostly fast-forwarded: the
  // comparison covers the fast path, not just the precise loop.
  EXPECT_GT(ff_instructions * 10, instructions * 9);
}

INSTANTIATE_TEST_SUITE_P(Widths, SimDiffGrid, ::testing::ValuesIn(kIssueWidths));

// Nest-restructured CFGs (fused, interchanged, tiled loops), against the
// reference skipping stalls and stepping them per cycle.
TEST(SimDiff, NestSuiteSkipOnAndOff) {
  CompileOptions copts;
  copts.nest.fuse = true;
  copts.nest.interchange = true;
  copts.nest.tile = true;
  for (const Workload& w : nest_suite()) {
    for (OptLevel level : kLevels) {
      for (int width : {1, 8}) {
        const MachineModel m = MachineModel::issue(width);
        auto compiled = try_compile_workload(w, level, m, copts);
        ASSERT_TRUE(compiled.has_value()) << compiled.error_message();
        for (StallStepping stepping : {StallStepping::Skip, StallStepping::PerCycle}) {
          expect_matches_reference(
              compiled->fn, m,
              cell_label(w.name, level, width, SchedulerKind::List) +
                  (stepping == StallStepping::Skip ? "" : " noskip"),
              {}, stepping);
        }
      }
    }
  }
}

// Random programs through the full pipeline: width and scheduler rotate
// with the seed, every level sees every seed, odd seeds run the reference
// per cycle, and every fourth seed starts from nonzero registers.
TEST(SimDiff, FuzzCorpus) {
  const std::uint64_t n = fuzz_seed_count(200);
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    const std::string src = random_program(seed);
    const int width = kIssueWidths[seed % kIssueWidths.size()];
    const SchedulerKind sched = seed % 2 == 0 ? SchedulerKind::Modulo : SchedulerKind::List;
    const MachineModel m = MachineModel::issue(width);
    const StallStepping stepping =
        seed % 2 == 0 ? StallStepping::Skip : StallStepping::PerCycle;
    SimOptions opts;
    if (seed % 4 == 0) {
      opts.init_ints = {3, -7, 11, static_cast<std::int64_t>(seed)};
      opts.init_fps = {0.5, -1.25, static_cast<double>(seed)};
    }
    for (OptLevel level : kLevels) {
      DiagnosticEngine diags;
      auto r = dsl::compile(src, diags);
      ASSERT_TRUE(r.has_value()) << diags.to_string() << "\n" << src;
      CompileOptions copts;
      copts.scheduler = sched;
      compile_at_level(r->fn, level, m, copts);
      expect_matches_reference(
          r->fn, m, "seed=" + std::to_string(seed) + " " + cell_label("", level, width, sched),
          opts, stepping);
    }
  }
}

// A store latency of 6 keeps up to issue_width x 6 stores in flight, so
// loads search a deep store queue; narrow and wide machines, the reference
// skipping stalls and stepping them per cycle.
TEST(SimDiff, LongStoreLatency) {
  for (int width : {1, 8}) {
    MachineModel m = MachineModel::issue(width);
    m.lat_store = 6;
    for (const Workload& w : workload_suite()) {
      for (OptLevel level : {OptLevel::Conv, OptLevel::Lev4}) {
        auto compiled = try_compile_workload(w, level, m);
        ASSERT_TRUE(compiled.has_value()) << compiled.error_message();
        for (StallStepping stepping : {StallStepping::Skip, StallStepping::PerCycle}) {
          expect_matches_reference(
              compiled->fn, m,
              cell_label(w.name, level, width, SchedulerKind::List) + " lat_store=6" +
                  (stepping == StallStepping::Skip ? "" : " noskip"),
              {}, stepping);
        }
      }
    }
  }
}

// Back-to-back stores to one address keep several entries for it in flight;
// the loads behind them must wait for the newest.  A loop repeats the
// pattern so the store queue wraps many times.
TEST(SimDiff, AliasingStoresInFlight) {
  Function fn("alias");
  const std::int32_t A = fn.add_array({"A", 0x10000, 4, 4, false});
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId loop = b.create_block("loop");
  const BlockId exit = b.create_block("exit");
  b.set_block(entry);
  const Reg i = b.ldi(0);
  const Reg zero = b.ldi(0);
  const Reg sum = b.ldi(0);
  b.set_block(loop);
  const std::int64_t base = fn.array(A)->base;
  b.st(zero, base, i, A);
  const Reg i2 = b.iaddi(i, 5);
  b.st(zero, base, i2, A);
  b.st(zero, base + 4, i, A);
  const Reg got = b.ld(zero, base, A);
  b.iadd_to(sum, sum, got);
  b.st(zero, base, sum, A);
  const Reg again = b.ld(zero, base, A);
  b.iadd_to(sum, sum, again);
  b.iaddi_to(i, i, 1);
  b.bri(Opcode::BLT, i, 50, loop);
  b.set_block(exit);
  fn.add_live_out(sum);
  b.ret();
  fn.renumber();

  for (int lat_store : {1, 3, 6}) {
    for (int width : {1, 2, 4, 8}) {
      MachineModel m = MachineModel::issue(width);
      m.lat_store = lat_store;
      for (StallStepping stepping : {StallStepping::Skip, StallStepping::PerCycle}) {
        expect_matches_reference(fn, m,
                                 "alias lat_store=" + std::to_string(lat_store) + " issue-" +
                                     std::to_string(width) +
                                     (stepping == StallStepping::Skip ? "" : " noskip"),
                                 {}, stepping);
      }
    }
  }
}

// Registers read before any write take their values from init_ints /
// init_fps (shorter than the register file, and longer).
TEST(SimDiff, InitialRegisters) {
  Function fn("init");
  const std::int32_t A = fn.add_array({"A", 0x10000, 4, 8, true});
  IRBuilder b(fn);
  b.set_block(b.create_block("entry"));
  const Reg i0 = b.new_int_reg();
  const Reg i1 = b.new_int_reg();
  const Reg f0 = b.new_fp_reg();
  const Reg f1 = b.new_fp_reg();
  const Reg sum = b.iadd(i0, i1);
  const Reg prod = b.fmul(f0, f1);
  const Reg idx = b.ldi(4);
  b.fst(idx, fn.array(A)->base, prod, A);
  const Reg back = b.fld(idx, fn.array(A)->base, A);
  const Reg total = b.fadd(back, b.itof(sum));
  fn.add_live_out(sum);
  fn.add_live_out(total);
  b.ret();
  fn.renumber();

  for (int width : {1, 4}) {
    SimOptions opts;
    opts.init_ints = {40};
    opts.init_fps = {1.5, -2.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0};
    const MachineModel m = MachineModel::issue(width);
    expect_matches_reference(fn, m, "init issue-" + std::to_string(width), opts);
    const auto [got, want] = run_both(fn, m, opts, Mode::Traced);
    ASSERT_TRUE(got.result.ok) << got.result.error;
    EXPECT_EQ(got.result.regs.get_int(sum.id), 40);
    EXPECT_EQ(got.result.regs.get_fp(total.id), 1.5 * -2.0 + 40.0);
  }
}

// ---- Leaving the steady state: the fallback to precise timing. ----------

// Loops whose iterations are fast-forwarded until, mid-run, a branch flips,
// a store->load alias appears or an op faults; narrow and wide machines,
// with the store latency at 1 and 3, against the reference skipping stalls
// and stepping them per cycle.
TEST(SimDiff, SteadyStateBreaks) {
  for (const testing::SteadyStateCase& c : testing::steady_state_breaks()) {
    for (int lat_store : {1, 3}) {
      for (int width : {1, 2, 4, 8}) {
        MachineModel m = MachineModel::issue(width);
        m.lat_store = lat_store;
        for (StallStepping stepping : {StallStepping::Skip, StallStepping::PerCycle}) {
          const std::string label = c.name + " lat_store=" + std::to_string(lat_store) +
                                    " issue-" + std::to_string(width) +
                                    (stepping == StallStepping::Skip ? "" : " noskip");
          const SimResult r = expect_matches_reference(c.fn, m, label, {}, stepping);
          // The break comes after iterations were fast-forwarded.  (With
          // the longer store latency a store may still be in flight at the
          // loop head, which keeps that loop precise.)
          if (lat_store == 1) {
            EXPECT_GT(r.ff_instructions, 0u) << label;
          }
        }
      }
    }
  }
}

// Every budget across a few iterations in the middle of a fast-forwarded
// loop: the budget runs out mid-period, at a period boundary, and just
// after, each failing where the reference fails.
TEST(SimDiff, BudgetRunsOutMidPeriod) {
  for (const testing::SteadyStateCase& c : testing::steady_state_breaks()) {
    for (int width : {1, 8}) {
      const MachineModel m = MachineModel::issue(width);
      const RunOutcome full = run_seeded(c.fn, m);
      ASSERT_GT(full.result.ff_instructions, 0u) << c.name;
      const std::uint64_t mid = full.result.instructions / 3;
      for (std::uint64_t budget = mid; budget < mid + 24; ++budget) {
        SimOptions opts;
        opts.max_instructions = budget;
        const std::string label =
            c.name + " issue-" + std::to_string(width) + " budget=" + std::to_string(budget);
        const SimResult r = expect_matches_reference(c.fn, m, label, opts);
        EXPECT_FALSE(r.ok) << label;
        EXPECT_GT(r.ff_instructions, 0u) << label;
      }
    }
  }
}

// ---- Error paths: same error string, cycles and partial state. ----------

// entry: x = a <op> 0, where the divisor arrives through a register.
Function make_divide_by_zero(Opcode op) {
  Function fn("div0");
  IRBuilder b(fn);
  b.set_block(b.create_block("entry"));
  const Reg a = b.ldi(17);
  const Reg z = b.ldi(0);
  const Reg q = op == Opcode::IDIV ? b.idiv(a, z) : b.irem(a, z);
  fn.add_live_out(q);
  b.ret();
  fn.renumber();
  return fn;
}

TEST(SimDiff, DivisionByZero) {
  for (Opcode op : {Opcode::IDIV, Opcode::IREM}) {
    const Function fn = make_divide_by_zero(op);
    for (int width : {1, 8}) {
      const MachineModel m = MachineModel::issue(width);
      expect_matches_reference(fn, m, "div0 issue-" + std::to_string(width));
      const auto [got, want] = run_both(fn, m, {}, Mode::Traced);
      EXPECT_FALSE(got.result.ok);
      EXPECT_EQ(got.result.error, "integer division by zero");
    }
  }
}

TEST(SimDiff, FtoiOutOfRange) {
  Function fn("ftoi");
  IRBuilder b(fn);
  b.set_block(b.create_block("entry"));
  const Reg big = b.fmuli(b.fldi(1e18), 100.0);
  const Reg i = b.ftoi(big);
  fn.add_live_out(i);
  b.ret();
  fn.renumber();
  for (int width : {1, 8}) {
    const MachineModel m = MachineModel::issue(width);
    expect_matches_reference(fn, m, "ftoi issue-" + std::to_string(width));
    const auto [got, want] = run_both(fn, m, {}, Mode::Traced);
    EXPECT_FALSE(got.result.ok);
    EXPECT_EQ(got.result.error, "ftoi out of range");
  }
}

// A budget of exactly the dynamic count minus one fails on the last
// instruction; the exact count succeeds.
TEST(SimDiff, InstructionBudgetOneShort) {
  for (const char* name : {"dotprod", "NAS-5"}) {
    for (int width : {1, 8}) {
      const MachineModel m = MachineModel::issue(width);
      auto compiled = try_compile_workload(*find_workload(name), OptLevel::Lev4, m);
      ASSERT_TRUE(compiled.has_value()) << compiled.error_message();
      const RunOutcome full = run_seeded(compiled->fn, m);
      ASSERT_TRUE(full.result.ok) << full.result.error;
      const std::string label = std::string(name) + " issue-" + std::to_string(width);

      SimOptions short_budget;
      short_budget.max_instructions = full.result.instructions - 1;
      expect_matches_reference(compiled->fn, m, label + " budget-1", short_budget);
      const auto [got, want] = run_both(compiled->fn, m, short_budget, Mode::Traced);
      EXPECT_FALSE(got.result.ok);
      EXPECT_EQ(got.result.error,
                "instruction budget exceeded (" +
                    std::to_string(full.result.instructions - 1) + ")");

      SimOptions exact;
      exact.max_instructions = full.result.instructions;
      expect_matches_reference(compiled->fn, m, label + " budget", exact);
    }
  }
}

// Falling through the last block, and a taken branch into trailing empty
// blocks, both run off the end.
TEST(SimDiff, FallsOffEnd) {
  Function through("through");
  {
    IRBuilder b(through);
    b.set_block(b.create_block("entry"));
    const Reg x = b.iaddi(b.ldi(1), 2);
    through.add_live_out(x);
    b.create_block("empty");
    through.renumber();
  }
  Function branch("branch");
  {
    IRBuilder b(branch);
    const BlockId entry = b.create_block("entry");
    const BlockId body = b.create_block("body");
    const BlockId tail = b.create_block("tail");
    b.create_block("tail2");
    b.set_block(entry);
    const Reg i = b.ldi(0);
    b.set_block(body);
    b.iaddi_to(i, i, 1);
    b.bri(Opcode::BGE, i, 3, tail);
    b.jump(body);
    branch.renumber();
  }
  for (const Function* fn : {&through, &branch}) {
    for (int width : {1, 2, 8}) {
      const MachineModel m = MachineModel::issue(width);
      expect_matches_reference(*fn, m, fn->name() + " issue-" + std::to_string(width));
      const auto [got, want] = run_both(*fn, m, {}, Mode::Traced);
      EXPECT_FALSE(got.result.ok);
      EXPECT_EQ(got.result.error, "fell off end of function");
    }
  }
}

TEST(SimDiff, EmptyFunction) {
  const Function fn("empty");
  const MachineModel m = MachineModel::issue(4);
  expect_matches_reference(fn, m, "empty");
  const auto [got, want] = run_both(fn, m, {}, Mode::Profiled);
  EXPECT_FALSE(got.result.ok);
  EXPECT_EQ(got.result.error, "empty function");
  EXPECT_EQ(got.result.cycles, 0u);
}

}  // namespace
}  // namespace ilp
