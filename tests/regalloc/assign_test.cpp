// Tests for physical register assignment with spilling.
#include "common/assign.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "frontend/compile.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "sim/simulator.hpp"
#include "trans/level.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

using ilp::testing::infinite_issue;

// Every physical register id must be below the file size.
void expect_within_file(const Function& fn, int k_int, int k_fp) {
  for (const auto& b : fn.blocks())
    for (const auto& in : b.insts) {
      auto check = [&](const Reg& r) {
        if (!r.valid()) return;
        const int k = r.cls == RegClass::Int ? k_int : k_fp;
        EXPECT_LT(r.id, static_cast<std::uint32_t>(k)) << to_string(in, &fn);
      };
      if (in.has_dest()) check(in.dst);
      check(in.src1);
      if (!in.src2_is_imm) check(in.src2);
    }
}

// Compares observable results where the allocated function's live-out list
// maps positionally onto the original's.
void expect_same_behaviour(const Function& plain, const Function& alloc,
                           double tol = 1e-9) {
  const RunOutcome a = run_seeded(plain, infinite_issue());
  const RunOutcome b = run_seeded(alloc, infinite_issue());
  ASSERT_TRUE(a.result.ok) << a.result.error;
  ASSERT_TRUE(b.result.ok) << b.result.error;
  for (const auto& arr : plain.arrays()) {
    for (std::int64_t i = 0; i < arr.length; ++i) {
      const std::int64_t addr = arr.base + i * arr.elem_size;
      if (arr.is_fp)
        ASSERT_NEAR(a.memory.load_fp(addr), b.memory.load_fp(addr), tol)
            << arr.name << "[" << i << "]";
      else
        ASSERT_EQ(a.memory.load_int(addr), b.memory.load_int(addr))
            << arr.name << "[" << i << "]";
    }
  }
  ASSERT_EQ(plain.live_out().size(), alloc.live_out().size());
  for (std::size_t i = 0; i < plain.live_out().size(); ++i) {
    const Reg pr = plain.live_out()[i];
    const Reg ar = alloc.live_out()[i];
    if (pr.cls == RegClass::Fp)
      EXPECT_NEAR(a.result.regs.get_fp(pr.id), b.result.regs.get_fp(ar.id), tol);
    else
      EXPECT_EQ(a.result.regs.get_int(pr.id), b.result.regs.get_int(ar.id));
  }
}

TEST(Assign, NoSpillWhenFileIsLarge) {
  Function fn = ilp::testing::make_fig3_loop(24);
  Function plain = fn;
  const AssignResult r = assign_registers(fn, {32, 32, 0x7f000000});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.spilled_int + r.spilled_fp, 0);
  EXPECT_TRUE(verify(fn).ok) << verify(fn).message;
  expect_within_file(fn, 32, 32);
  expect_same_behaviour(plain, fn);
}

TEST(Assign, SpillsWhenPressureExceedsFile) {
  // Many simultaneously live fp values (a wide sum of loads) against a tiny
  // fp file.
  Function fn;
  fn.add_array({"A", 0, 4, 16, true});
  fn.add_array({"O", 1000, 4, 1, true});
  IRBuilder b(fn);
  b.set_block(b.create_block("entry"));
  const Reg base = b.ldi(0);
  std::vector<Reg> vals;
  for (int i = 0; i < 12; ++i) vals.push_back(b.fld(base, 4 * i, 0));
  Reg acc = vals[0];
  for (int i = 1; i < 12; ++i) acc = b.fadd(acc, vals[static_cast<std::size_t>(i)]);
  b.fst(base, 1000, acc, 1);
  b.ret();
  fn.renumber();
  Function plain = fn;

  const AssignResult r = assign_registers(fn, {8, 4, 0x7f000000});
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.spilled_fp, 0);
  EXPECT_GT(r.spill_slots, 0);
  EXPECT_TRUE(verify(fn).ok) << verify(fn).message;
  expect_within_file(fn, 8, 4);
  expect_same_behaviour(plain, fn);
}

TEST(Assign, SpilledLiveOutStillObservable) {
  Function fn;
  fn.add_array({"A", 0, 4, 20, true});
  IRBuilder b(fn);
  b.set_block(b.create_block("entry"));
  const Reg base = b.ldi(0);
  // `early` is defined first, stays live across high pressure, and is the
  // function's observable output: a prime spill victim.
  const Reg early = b.fld(base, 0, 0);
  std::vector<Reg> vals;
  for (int i = 1; i < 10; ++i) vals.push_back(b.fld(base, 4 * i, 0));
  Reg acc = vals[0];
  for (std::size_t i = 1; i < vals.size(); ++i) acc = b.fadd(acc, vals[i]);
  const Reg out = b.fadd(acc, early);
  b.ret();
  fn.add_live_out(out);
  fn.add_live_out(early);
  fn.renumber();
  Function plain = fn;

  const AssignResult r = assign_registers(fn, {8, 3, 0x7f000000});
  ASSERT_TRUE(r.ok) << "rounds=" << r.rounds;
  expect_within_file(fn, 8, 3);
  expect_same_behaviour(plain, fn);
}

TEST(Assign, WholePipelineUnderVariousFileSizes) {
  for (const char* name : {"dotprod", "SDS-4", "maxval"}) {
    for (int k : {64, 24, 12}) {
      DiagnosticEngine d0;
      auto plain = dsl::compile(find_workload(name)->source, d0);
      ASSERT_TRUE(plain.has_value());
      DiagnosticEngine d1;
      auto opt = dsl::compile(find_workload(name)->source, d1);
      compile_at_level(opt->fn, OptLevel::Lev4, MachineModel::issue(8));
      const AssignResult r = assign_registers(opt->fn, {k, k, 0x7f000000});
      ASSERT_TRUE(r.ok) << name << " k=" << k;
      EXPECT_TRUE(verify(opt->fn).ok) << name << " k=" << k;
      expect_within_file(opt->fn, k, k);
      expect_same_behaviour(plain->fn, opt->fn, 1e-6);
    }
  }
}

TEST(Assign, SmallFileCostsCycles) {
  // Spill code must slow the loop down relative to a roomy file.
  auto cycles_with = [&](int k) {
    DiagnosticEngine d;
    auto r = dsl::compile(find_workload("dotprod")->source, d);
    compile_at_level(r->fn, OptLevel::Lev4, MachineModel::issue(8));
    const AssignResult ar = assign_registers(r->fn, {k, k, 0x7f000000});
    EXPECT_TRUE(ar.ok) << "k=" << k;
    const RunOutcome out = run_seeded(r->fn, MachineModel::issue(8));
    EXPECT_TRUE(out.result.ok);
    return out.result.cycles;
  };
  EXPECT_GT(cycles_with(8), cycles_with(64));
}

TEST(Assign, FailsGracefullyWhenFileTooSmall) {
  Function fn = ilp::testing::make_fig3_loop(8);
  const AssignResult r = assign_registers(fn, {2, 1, 0x7f000000});
  // Either it allocates (with heavy spilling) or reports failure — it must
  // not crash or mangle the IR silently.
  if (r.ok) {
    EXPECT_TRUE(verify(fn).ok);
    expect_within_file(fn, 2, 1);
  } else {
    SUCCEED();
  }
}

}  // namespace
}  // namespace ilp
