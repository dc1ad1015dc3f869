// Parameterized property sweeps (gtest TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/fixtures.hpp"
#include "ir/builder.hpp"
#include "support/strings.hpp"
#include "frontend/compile.hpp"
#include "ir/verifier.hpp"
#include "sim/simulator.hpp"
#include "trans/level.hpp"
#include "trans/strengthred.hpp"
#include "trans/unroll.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

using ilp::testing::infinite_issue;

// ---------------------------------------------------------------------------
// Unrolling: (factor, merge_counters, trip count) — semantics must hold for
// every residue class, including trips smaller than the factor.
// ---------------------------------------------------------------------------

class UnrollSweep
    : public ::testing::TestWithParam<std::tuple<int, bool, std::int64_t>> {};

TEST_P(UnrollSweep, PreservesFigure1Loop) {
  const auto [factor, merge, n] = GetParam();
  Function plain = ilp::testing::make_fig1_loop(n);
  Function unrolled = ilp::testing::make_fig1_loop(n);
  UnrollOptions opts;
  opts.max_factor = factor;
  opts.max_body_insts = 400;
  opts.merge_counter_updates = merge;
  unroll_loops(unrolled, opts);
  ASSERT_TRUE(verify(unrolled).ok) << verify(unrolled).message;
  const RunOutcome a = run_seeded(plain, infinite_issue());
  const RunOutcome b = run_seeded(unrolled, infinite_issue());
  EXPECT_EQ(compare_observable(plain, a, b), "");
}

INSTANTIATE_TEST_SUITE_P(
    FactorsMergesTrips, UnrollSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Bool(),
                       ::testing::Values<std::int64_t>(1, 2, 3, 4, 7, 8, 9, 16, 23)),
    [](const ::testing::TestParamInfo<UnrollSweep::ParamType>& info) {
      return "f" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "m" : "u") + "n" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Level x issue width on representative workloads: semantics preserved and
// cycles monotone in width.
// ---------------------------------------------------------------------------

// The workload name is a std::string, not a const char*: gtest prints a char
// pointer with its address, which would put a run-dependent value into the
// discovered test names.
class LevelWidthSweep
    : public ::testing::TestWithParam<std::tuple<std::string, OptLevel>> {};

TEST_P(LevelWidthSweep, SemanticsAndWidthMonotonicity) {
  const auto [name, level] = GetParam();
  const Workload* w = find_workload(name);
  ASSERT_NE(w, nullptr);

  DiagnosticEngine d0;
  auto base = dsl::compile(w->source, d0);
  ASSERT_TRUE(base.has_value());
  const RunOutcome want = run_seeded(base->fn, MachineModel::issue(8));
  ASSERT_TRUE(want.result.ok);

  std::uint64_t prev = UINT64_MAX;
  for (int width : {1, 2, 4, 8}) {
    DiagnosticEngine d1;
    auto r = dsl::compile(w->source, d1);
    const MachineModel m = MachineModel::issue(width);
    compile_at_level(r->fn, level, m);
    const RunOutcome got = run_seeded(r->fn, m);
    ASSERT_TRUE(got.result.ok) << name << " width=" << width;
    ASSERT_EQ(compare_observable(base->fn, want, got, 1e-6), "")
        << name << " width=" << width;
    EXPECT_LE(got.result.cycles, prev) << name << " width=" << width;
    prev = got.result.cycles;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsByLevel, LevelWidthSweep,
    ::testing::Combine(::testing::Values(std::string("dotprod"), std::string("maxval"),
                                         std::string("SDS-4"), std::string("CSS-1"),
                                         std::string("matrix300-1")),
                       ::testing::Values(OptLevel::Conv, OptLevel::Lev2, OptLevel::Lev4)),
    [](const ::testing::TestParamInfo<LevelWidthSweep::ParamType>& info) {
      std::string n = std::get<0>(info.param);
      for (char& c : n)
        if (c == '-') c = '_';
      return n + "_" + level_name(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Strength reduction: constant sweep as a parameterized property against the
// reference IDIV/IREM/IMUL semantics.
// ---------------------------------------------------------------------------

class StrengthSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(StrengthSweep, DivRemMulAgreeWithReference) {
  const std::int64_t c = GetParam();
  for (const Opcode op : {Opcode::IMUL, Opcode::IDIV, Opcode::IREM}) {
    for (std::int64_t x :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{12345},
          std::int64_t{-999999}, INT64_MAX, INT64_MIN + 1}) {
      Function plain;
      {
        IRBuilder b(plain);
        b.set_block(b.create_block("entry"));
        const Reg xr = plain.new_int_reg();
        const Reg r = plain.new_int_reg();
        b.append(make_binary_imm(op, r, xr, c));
        b.ret();
        plain.add_live_out(r);
        plain.renumber();
      }
      Function reduced = plain;
      strength_reduction(reduced);
      ASSERT_TRUE(verify(reduced).ok);
      SimOptions o1, o2;
      o1.init_ints = {x};
      o2.init_ints = {x};
      Memory m1, m2;
      const SimResult r1 = Simulator(infinite_issue(), std::move(o1)).run(plain, m1);
      const SimResult r2 = Simulator(infinite_issue(), std::move(o2)).run(reduced, m2);
      ASSERT_TRUE(r1.ok && r2.ok);
      ASSERT_EQ(r1.regs.get_int(plain.live_out()[0].id),
                r2.regs.get_int(reduced.live_out()[0].id))
          << opcode_name(op) << " c=" << c << " x=" << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Constants, StrengthSweep,
                         ::testing::Values<std::int64_t>(2, 3, 5, 6, 7, 8, 9, 10, 12, 15,
                                                         16, 24, 100, 255, 256, 1000,
                                                         4096, 1000003, -2, -3, -8, -10,
                                                         -100),
                         [](const ::testing::TestParamInfo<std::int64_t>& info) {
                           const std::int64_t v = info.param;
                           return (v < 0 ? "neg" : "c") + std::to_string(v < 0 ? -v : v);
                         });

// ---------------------------------------------------------------------------
// Trip-count sweep for the full Lev4 pipeline over a reduction (exercises
// preconditioning remainders against the expansions' preheader code).
// ---------------------------------------------------------------------------

class TripSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TripSweep, Lev4DotProductEveryTripCount) {
  const std::int64_t n = GetParam();
  const std::string src = strformat(R"(
program trip
array A[%lld] fp
array B[%lld] fp
scalar s fp out
loop i = 0 to %lld {
  s = s + A[i] * B[i];
}
)", static_cast<long long>(n + 1), static_cast<long long>(n + 1),
                                    static_cast<long long>(n - 1));
  DiagnosticEngine d0;
  auto base = dsl::compile(src, d0);
  ASSERT_TRUE(base.has_value());
  const RunOutcome want = run_seeded(base->fn, MachineModel::issue(8));
  DiagnosticEngine d1;
  auto opt = dsl::compile(src, d1);
  compile_at_level(opt->fn, OptLevel::Lev4, MachineModel::issue(8));
  const RunOutcome got = run_seeded(opt->fn, MachineModel::issue(8));
  ASSERT_EQ(compare_observable(base->fn, want, got, 1e-9), "") << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Trips, TripSweep,
                         ::testing::Range<std::int64_t>(1, 26),
                         [](const ::testing::TestParamInfo<std::int64_t>& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ilp
