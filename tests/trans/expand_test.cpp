// Tests for the three expansion transformations (paper Figures 2-5).
#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "trans/accexpand.hpp"
#include "trans/indexpand.hpp"
#include "trans/rename.hpp"
#include "trans/searchexpand.hpp"
#include "trans/unroll.hpp"

namespace ilp {
namespace {

using ilp::testing::cycles_per_iteration;
using ilp::testing::infinite_issue;

// ---------------- Accumulator expansion --------------------------------------

TEST(AccExpand, ExpandsUnrolledDotProduct) {
  Function fn = ilp::testing::make_fig3_loop(24);
  unroll_loops(fn, {3, 160});
  EXPECT_EQ(accumulator_expansion(fn), 1);
  EXPECT_TRUE(verify(fn).ok) << verify(fn).message;
}

TEST(AccExpand, RequiresMultipleAccumulationInstructions) {
  Function fn = ilp::testing::make_fig3_loop(24);  // not unrolled: k == 1
  EXPECT_EQ(accumulator_expansion(fn), 0);
}

TEST(AccExpand, PreservesSum) {
  for (std::int64_t n : {1, 2, 3, 7, 24}) {
    Function plain = ilp::testing::make_fig3_loop(n);
    Function exp = ilp::testing::make_fig3_loop(n);
    unroll_loops(exp, {3, 160});
    accumulator_expansion(exp);
    rename_registers(exp);
    const RunOutcome a = run_seeded(plain, infinite_issue());
    const RunOutcome b = run_seeded(exp, infinite_issue());
    ASSERT_EQ(compare_observable(plain, a, b), "") << "n=" << n;
  }
}

TEST(AccExpand, RemovesAccumulatorFromCriticalPath) {
  // Figure 3: unroll+rename stays limited by the fadd recurrence; expansion
  // breaks it.  Compare steady-state cycles per 3-iteration group.
  auto lev2 = [](std::int64_t n) {
    Function fn = ilp::testing::make_fig3_loop(n);
    unroll_loops(fn, {3, 160});
    rename_registers(fn);
    schedule_function(fn, infinite_issue());
    return fn;
  };
  auto lev4 = [](std::int64_t n) {
    Function fn = ilp::testing::make_fig3_loop(n);
    unroll_loops(fn, {3, 160});
    accumulator_expansion(fn);
    induction_expansion(fn);
    rename_registers(fn);
    schedule_function(fn, infinite_issue());
    return fn;
  };
  const double c2 = cycles_per_iteration(lev2, 51, 150, infinite_issue());
  const double c4 = cycles_per_iteration(lev4, 51, 150, infinite_issue());
  EXPECT_LT(c4, c2);
  EXPECT_LE(c4, 8.0 / 3.0 + 1e-9);  // paper: 2.7 with both expansions
}

TEST(AccExpand, MixedAddSubAccumulator) {
  // acc += A[i]; acc -= B[i];  both count as inc/dec instructions.
  auto make = [](std::int64_t n, bool expand) {
    Function fn("mix");
    fn.add_array({"A", 0, 4, n, true});
    fn.add_array({"B", 1000, 4, n, true});
    IRBuilder b(fn);
    const BlockId e = b.create_block("entry");
    const BlockId loop = b.create_block("loop");
    const BlockId x = b.create_block("exit");
    b.set_block(e);
    const Reg i = b.ldi(0);
    const Reg lim = b.ldi(4 * n);
    const Reg acc = b.fldi(0.0);
    b.jump(loop);
    b.set_block(loop);
    const Reg va = b.fld(i, 0, 0);
    b.fadd_to(acc, acc, va);
    const Reg vb = b.fld(i, 1000, 1);
    b.append(make_binary(Opcode::FSUB, acc, acc, vb));
    b.iaddi_to(i, i, 4);
    b.br(Opcode::BLT, i, lim, loop);
    b.set_block(x);
    b.ret();
    fn.add_live_out(acc);
    fn.renumber();
    if (expand) {
      EXPECT_EQ(accumulator_expansion(fn), 1);
    }
    return fn;
  };
  for (std::int64_t n : {1, 4, 9}) {
    const Function plain = make(n, false);
    const Function exp = make(n, true);
    const RunOutcome a = run_seeded(plain, infinite_issue());
    const RunOutcome b = run_seeded(exp, infinite_issue());
    ASSERT_EQ(compare_observable(plain, a, b), "") << "n=" << n;
  }
}

TEST(AccExpand, RejectsValueUsedOutsideAccumulation) {
  // acc feeds a store each iteration: a prefix-sum, not an accumulator.
  Function fn("prefix");
  fn.add_array({"A", 0, 4, 8, true});
  fn.add_array({"P", 1000, 4, 8, true});
  IRBuilder b(fn);
  const BlockId e = b.create_block("entry");
  const BlockId loop = b.create_block("loop");
  const BlockId x = b.create_block("exit");
  b.set_block(e);
  const Reg i = b.ldi(0);
  const Reg acc = b.fldi(0.0);
  b.jump(loop);
  b.set_block(loop);
  const Reg v1 = b.fld(i, 0, 0);
  b.fadd_to(acc, acc, v1);
  b.fst(i, 1000, acc, 1);  // read of acc outside the accumulation
  const Reg v2 = b.fld(i, 4, 0);
  b.fadd_to(acc, acc, v2);
  b.iaddi_to(i, i, 8);
  b.bri(Opcode::BLT, i, 32, loop);
  b.set_block(x);
  b.ret();
  fn.renumber();
  EXPECT_EQ(accumulator_expansion(fn), 0);
}

TEST(AccExpand, ProductExpansionBehindOption) {
  auto make = [](std::int64_t n) {
    Function fn("prod");
    fn.add_array({"A", 0, 4, n, true});
    IRBuilder b(fn);
    const BlockId e = b.create_block("entry");
    const BlockId loop = b.create_block("loop");
    const BlockId x = b.create_block("exit");
    b.set_block(e);
    const Reg i = b.ldi(0);
    const Reg acc = b.fldi(1.0);
    b.jump(loop);
    b.set_block(loop);
    for (int u = 0; u < 2; ++u) {
      const Reg v = b.fld(i, 4 * u, 0);
      b.append(make_binary(Opcode::FMUL, acc, acc, v));
    }
    b.iaddi_to(i, i, 8);
    b.bri(Opcode::BLT, i, 4 * n, loop);
    b.set_block(x);
    b.ret();
    fn.add_live_out(acc);
    fn.renumber();
    return fn;
  };
  Function off = make(8);
  EXPECT_EQ(accumulator_expansion(off, {false}), 0);
  Function on1 = make(8);
  EXPECT_EQ(accumulator_expansion(on1, {true}), 1);
  const Function plain = make(8);
  const RunOutcome a = run_seeded(plain, infinite_issue());
  const RunOutcome b = run_seeded(on1, infinite_issue());
  EXPECT_EQ(compare_observable(plain, a, b), "");
}

// ---------------- Induction variable expansion -------------------------------

TEST(IndExpand, Figure5dReaches2CyclesPerIteration) {
  auto make = [](std::int64_t n) {
    Function fn = ilp::testing::make_fig5_loop(n);
    unroll_loops(fn, {3, 160});
    induction_expansion(fn);
    rename_registers(fn);
    schedule_function(fn, infinite_issue());
    return fn;
  };
  const double cpi = cycles_per_iteration(make, 51, 150, infinite_issue());
  EXPECT_DOUBLE_EQ(cpi, 2.0);  // paper Figure 5d: 6 cycles / 3 iterations
}

TEST(IndExpand, WithoutItUnrolledLoopIsSlower) {
  auto make = [](std::int64_t n) {
    Function fn = ilp::testing::make_fig5_loop(n);
    unroll_loops(fn, {3, 160});
    rename_registers(fn);
    schedule_function(fn, infinite_issue());
    return fn;
  };
  const double cpi = cycles_per_iteration(make, 51, 150, infinite_issue());
  EXPECT_NEAR(cpi, 8.0 / 3.0, 1e-9);  // paper Figure 5c: 8 cycles / 3 iters
}

TEST(IndExpand, PreservesBehaviourAcrossTripCounts) {
  for (std::int64_t n : {1, 2, 3, 4, 5, 11, 24}) {
    Function plain = ilp::testing::make_fig5_loop(n);
    Function exp = ilp::testing::make_fig5_loop(n);
    unroll_loops(exp, {3, 160});
    induction_expansion(exp);
    rename_registers(exp);
    const RunOutcome a = run_seeded(plain, infinite_issue());
    const RunOutcome b = run_seeded(exp, infinite_issue());
    ASSERT_EQ(compare_observable(plain, a, b), "") << "n=" << n;
  }
}

TEST(IndExpand, EightTimesUnrollMatchesPaperScaling) {
  // Paper: the same loop unrolled 8 times runs at 1.6 cycles/iteration after
  // renaming but 0.8 after induction variable expansion... for Figure 1's
  // simpler loop shape.  We assert the ordering and a large gain.
  auto lev2 = [](std::int64_t n) {
    Function fn = ilp::testing::make_fig5_loop(n);
    unroll_loops(fn, {8, 400});
    rename_registers(fn);
    schedule_function(fn, infinite_issue());
    return fn;
  };
  auto lev4 = [](std::int64_t n) {
    Function fn = ilp::testing::make_fig5_loop(n);
    unroll_loops(fn, {8, 400});
    induction_expansion(fn);
    rename_registers(fn);
    schedule_function(fn, infinite_issue());
    return fn;
  };
  const double c2 = cycles_per_iteration(lev2, 80, 400, infinite_issue());
  const double c4 = cycles_per_iteration(lev4, 80, 400, infinite_issue());
  EXPECT_LT(c4, c2 * 0.75);
}

TEST(IndExpand, ExitValueOfIvIsRecovered) {
  // The IV is live after the loop; expansion must recover it (V = p0).
  Function fn("ivout");
  fn.add_array({"A", 0, 4, 64, true});
  IRBuilder b(fn);
  const BlockId e = b.create_block("entry");
  const BlockId loop = b.create_block("loop");
  const BlockId x = b.create_block("exit");
  b.set_block(e);
  const Reg j = b.ldi(0);
  const Reg i = b.ldi(0);
  b.jump(loop);
  b.set_block(loop);
  // Two updates of j per iteration; j's final value observed after the loop.
  const Reg v = b.fld(j, 0, 0);
  b.fst(j, 128, v, 0);
  b.iaddi_to(j, j, 4);
  const Reg w = b.fld(j, 0, 0);
  b.fst(j, 128, w, 0);
  b.iaddi_to(j, j, 4);
  b.iaddi_to(i, i, 1);
  b.bri(Opcode::BLT, i, 6, loop);
  b.set_block(x);
  b.ret();
  fn.add_live_out(j);
  fn.renumber();

  Function plain = fn;
  EXPECT_GE(induction_expansion(fn), 1);
  EXPECT_TRUE(verify(fn).ok) << verify(fn).message;
  const RunOutcome a = run_seeded(plain, infinite_issue());
  const RunOutcome c = run_seeded(fn, infinite_issue());
  EXPECT_EQ(compare_observable(plain, a, c), "");
}

// ---------------- Search variable expansion -----------------------------------

Function make_maxval(std::int64_t n) {
  Function fn("maxval");
  fn.add_array({"A", 0, 4, n, true});
  IRBuilder b(fn);
  const BlockId e = b.create_block("entry");
  const BlockId loop = b.create_block("loop");
  const BlockId x = b.create_block("exit");
  b.set_block(e);
  const Reg i = b.ldi(0);
  const Reg lim = b.ldi(4 * n);
  const Reg mx = b.fldi(-1e30);
  b.jump(loop);
  b.set_block(loop);
  const Reg v = b.fld(i, 0, 0);
  b.append(make_binary(Opcode::FMAX, mx, mx, v));
  b.iaddi_to(i, i, 4);
  b.br(Opcode::BLT, i, lim, loop);
  b.set_block(x);
  b.ret();
  fn.add_live_out(mx);
  fn.renumber();
  return fn;
}

TEST(SearchExpand, ExpandsUnrolledMaxLoop) {
  Function fn = make_maxval(32);
  unroll_loops(fn, {4, 160});
  EXPECT_EQ(search_expansion(fn), 1);
  EXPECT_TRUE(verify(fn).ok) << verify(fn).message;
}

TEST(SearchExpand, PreservesMaximum) {
  for (std::int64_t n : {1, 2, 3, 5, 13, 32}) {
    Function plain = make_maxval(n);
    Function exp = make_maxval(n);
    unroll_loops(exp, {4, 160});
    search_expansion(exp);
    rename_registers(exp);
    const RunOutcome a = run_seeded(plain, infinite_issue());
    const RunOutcome b = run_seeded(exp, infinite_issue());
    ASSERT_EQ(compare_observable(plain, a, b), "") << "n=" << n;
  }
}

TEST(SearchExpand, BreaksSearchRecurrence) {
  auto lev2 = [](std::int64_t n) {
    Function fn = make_maxval(n);
    unroll_loops(fn, {4, 160});
    rename_registers(fn);
    schedule_function(fn, infinite_issue());
    return fn;
  };
  auto lev4 = [](std::int64_t n) {
    Function fn = make_maxval(n);
    unroll_loops(fn, {4, 160});
    search_expansion(fn);
    induction_expansion(fn);
    rename_registers(fn);
    schedule_function(fn, infinite_issue());
    return fn;
  };
  const double c2 = cycles_per_iteration(lev2, 80, 400, infinite_issue());
  const double c4 = cycles_per_iteration(lev4, 80, 400, infinite_issue());
  EXPECT_LT(c4, c2);
}

TEST(SearchExpand, MinLoopAlsoExpands) {
  auto make_minval = [](std::int64_t n, bool expand) {
    Function fn("minval");
    fn.add_array({"A", 0, 4, n, true});
    IRBuilder b(fn);
    const BlockId e = b.create_block("entry");
    const BlockId loop = b.create_block("loop");
    const BlockId x = b.create_block("exit");
    b.set_block(e);
    const Reg i = b.ldi(0);
    const Reg mn = b.fldi(1e30);
    b.jump(loop);
    b.set_block(loop);
    for (int u = 0; u < 2; ++u) {
      const Reg v = b.fld(i, 4 * u, 0);
      b.append(make_binary(Opcode::FMIN, mn, mn, v));
    }
    b.iaddi_to(i, i, 8);
    b.bri(Opcode::BLT, i, 4 * n, loop);
    b.set_block(x);
    b.ret();
    fn.add_live_out(mn);
    fn.renumber();
    if (expand) {
      EXPECT_EQ(search_expansion(fn), 1);
    }
    return fn;
  };
  const Function plain = make_minval(16, false);
  const Function exp = make_minval(16, true);
  const RunOutcome a = run_seeded(plain, infinite_issue());
  const RunOutcome b = run_seeded(exp, infinite_issue());
  EXPECT_EQ(compare_observable(plain, a, b), "");
}

TEST(SearchExpand, RejectsMixedMaxMin) {
  Function fn("mixed");
  fn.add_array({"A", 0, 4, 16, true});
  IRBuilder b(fn);
  const BlockId e = b.create_block("entry");
  const BlockId loop = b.create_block("loop");
  const BlockId x = b.create_block("exit");
  b.set_block(e);
  const Reg i = b.ldi(0);
  const Reg m = b.fldi(0.0);
  b.jump(loop);
  b.set_block(loop);
  const Reg v = b.fld(i, 0, 0);
  b.append(make_binary(Opcode::FMAX, m, m, v));
  const Reg w = b.fld(i, 4, 0);
  b.append(make_binary(Opcode::FMIN, m, m, w));
  b.iaddi_to(i, i, 8);
  b.bri(Opcode::BLT, i, 64, loop);
  b.set_block(x);
  b.ret();
  fn.add_live_out(m);
  fn.renumber();
  EXPECT_EQ(search_expansion(fn), 0);
}

}  // namespace
}  // namespace ilp
