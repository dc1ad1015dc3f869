// Differential oracle for the affine nest transformations (trans/nest/):
// every workload-suite source and hundreds of random DSL programs are run
// through the compiler's prefix stage (compile_prefix: the enabled nest
// passes in the pipeline's own order, then the conventional optimizations)
// under each nest-pass combination, and the IR interpreter's bit-exact
// observable-state digest (tests/common/interp.hpp) must match the
// untransformed program's.  The interpreter is an independent implementation
// of the simulator's functional semantics, so this also pins the two
// engines against each other on the whole workload suite.
//
// Legal nest transforms never reassociate floating point (interchange and
// tiling refuse loop-carried scalars; fusion and fission preserve each
// statement instance's computation), and neither do the conventional
// optimizations, so the digest comparison has no tolerance: any difference
// is a miscompile.
#include <gtest/gtest.h>

#include <string>

#include "common/fixtures.hpp"
#include "common/interp.hpp"
#include "common/nest_suite.hpp"
#include "frontend/compile.hpp"
#include "ir/printer.hpp"
#include "sim/simulator.hpp"
#include "trans/level.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

using testing::fuzz_seed_count;
using testing::random_nest_program;
using testing::random_program;
using testing::run_digest;

Function compile_src(const std::string& src) {
  DiagnosticEngine diags;
  auto r = dsl::compile(src, diags);
  EXPECT_TRUE(r.has_value()) << diags.to_string() << "\n" << src;
  return r ? std::move(r->fn) : Function{"empty"};
}

// The five pass combinations the oracle sweeps.  tile_size 4 (not the
// default 16) so the randomly drawn inner trips tile often enough to
// exercise the pass throughout the corpus.
struct Combo {
  const char* name;
  NestOptions opts;
};

std::vector<Combo> combos() {
  std::vector<Combo> cs;
  NestOptions o;
  o.interchange = true;
  cs.push_back({"interchange", o});
  o = NestOptions{};
  o.fuse = true;
  cs.push_back({"fuse", o});
  o = NestOptions{};
  o.fission = true;
  cs.push_back({"fission", o});
  o = NestOptions{};
  o.tile = true;
  o.tile_size = 4;
  cs.push_back({"tile", o});
  o = NestOptions{};
  o.interchange = o.fuse = o.fission = o.tile = true;
  o.tile_size = 4;
  cs.push_back({"all", o});
  return cs;
}

// Runs one source through every combo and checks the digest; accumulates
// per-pass application counts into `total`'s loops_* fields.
void check_all_combos(const std::string& src, const char* tag, TransformStats* total) {
  const Function base = compile_src(src);
  if (base.num_blocks() == 0) return;  // compile failure already reported
  bool base_ok = false;
  std::string base_err;
  const std::uint64_t want = run_digest(base, &base_ok, &base_err);
  ASSERT_TRUE(base_ok) << tag << ": baseline failed: " << base_err << "\n" << src;

  CompileContext ctx;
  for (const Combo& c : combos()) {
    Function fn = base;
    CompileOptions opts;
    opts.nest = c.opts;
    TransformStats stats;
    compile_prefix(fn, opts, stats, ctx);
    if (total != nullptr) {
      total->loops_interchanged += stats.loops_interchanged;
      total->loops_fused += stats.loops_fused;
      total->loops_fissioned += stats.loops_fissioned;
      total->loops_tiled += stats.loops_tiled;
    }
    bool ok = false;
    std::string err;
    const std::uint64_t got = run_digest(fn, &ok, &err);
    ASSERT_TRUE(ok) << tag << " [" << c.name << "]: transformed program failed: " << err
                    << "\n"
                    << src << "\n"
                    << to_string(fn);
    ASSERT_EQ(got, want) << tag << " [" << c.name << "]: digest mismatch ("
                         << stats.loops_interchanged << " interchanged, "
                         << stats.loops_fused << " fused, " << stats.loops_fissioned
                         << " fissioned, " << stats.loops_tiled << " tiled)\n"
                         << src << "\n"
                         << to_string(fn);
  }
}

// --- The oracle over the full workload suite --------------------------------

TEST(NestSemantics, WorkloadSuitePreservedUnderAllCombos) {
  for (const Workload& w : workload_suite())
    check_all_combos(w.source, w.name.c_str(), nullptr);
}

// The nest-restructuring workloads (BENCH_7's subjects) under the same
// oracle, and the coverage pin that every pass finds work in that suite.
TEST(NestSemantics, NestSuitePreservedAndEveryPassFires) {
  TransformStats total;
  for (const Workload& w : nest_suite())
    check_all_combos(w.source, w.name.c_str(), &total);
  EXPECT_GT(total.loops_interchanged, 0);
  EXPECT_GT(total.loops_fused, 0);
  EXPECT_GT(total.loops_fissioned, 0);
  EXPECT_GT(total.loops_tiled, 0);
}

// --- The oracle over the general fuzz corpus --------------------------------

TEST(NestSemantics, RandomProgramsPreservedUnderAllCombos) {
  const int n = fuzz_seed_count(200);
  TransformStats total;
  for (int seed = 1; seed <= n; ++seed) {
    const std::string src = random_program(static_cast<std::uint64_t>(seed));
    check_all_combos(src, "random_program", &total);
    if (::testing::Test::HasFatalFailure()) FAIL() << "seed " << seed;
  }
  // The general corpus contains adjacent conformable loops (every seed % 10
  // == 7 appends one), so at minimum fusion must find work here.
  EXPECT_GT(total.loops_fused, 0);
}

// --- The oracle over the nest-shaped corpus, and pass coverage --------------

TEST(NestSemantics, RandomNestProgramsPreservedAndEveryPassFires) {
  const int n = fuzz_seed_count(200);
  TransformStats total;
  for (int seed = 1; seed <= n; ++seed) {
    const std::string src = random_nest_program(static_cast<std::uint64_t>(seed));
    check_all_combos(src, "random_nest_program", &total);
    if (::testing::Test::HasFatalFailure()) FAIL() << "seed " << seed;
  }
  // The corpus is shaped so every pass finds work: transposed accesses for
  // interchange, conformable adjacent pairs for fusion, independent
  // statement groups for fission, legal nests with trip > tile_size for
  // tiling.  A pass that never fires is a silently dead pass.
  EXPECT_GT(total.loops_interchanged, 0);
  EXPECT_GT(total.loops_fused, 0);
  EXPECT_GT(total.loops_fissioned, 0);
  EXPECT_GT(total.loops_tiled, 0);
}

// --- Interpreter vs simulator: two engines, one contract --------------------

TEST(NestSemantics, InterpreterAgreesWithSimulatorOnWorkloads) {
  const MachineModel m = MachineModel::issue(8);
  for (const Workload& w : workload_suite()) {
    const Function fn = compile_src(w.source);
    ASSERT_GT(fn.num_blocks(), 0u) << w.name;

    const RunOutcome sim = run_seeded(fn, m);
    ASSERT_TRUE(sim.result.ok) << w.name << ": " << sim.result.error;

    RunOutcome interp;
    seed_arrays(fn, interp.memory);
    testing::InterpResult r = testing::interpret(fn, interp.memory);
    ASSERT_TRUE(r.ok) << w.name << ": " << r.error;
    interp.result.ok = true;
    interp.result.regs = std::move(r.regs);

    // Identical functional semantics: zero tolerance.
    const std::string diff = compare_observable(fn, sim, interp, 0.0);
    EXPECT_TRUE(diff.empty()) << w.name << ": " << diff;
  }
}

// --- Nest passes composed with the full transformation pipeline -------------

TEST(NestSemantics, FullPipelineWithNestPassesPreservesSemantics) {
  const int n = fuzz_seed_count(40);
  const MachineModel m = MachineModel::issue(8);
  for (int seed = 1; seed <= n; ++seed) {
    const std::string src = random_nest_program(static_cast<std::uint64_t>(seed));
    Function base = compile_src(src);
    ASSERT_GT(base.num_blocks(), 0u) << src;
    const RunOutcome want = run_seeded(base, m);
    ASSERT_TRUE(want.result.ok) << want.result.error << "\n" << src;

    Function fn = compile_src(src);
    CompileOptions opts;
    opts.nest.interchange = opts.nest.fuse = opts.nest.fission = opts.nest.tile = true;
    opts.nest.tile_size = 4;
    compile_at_level(fn, OptLevel::Lev4, m, opts);
    const RunOutcome got = run_seeded(fn, m);
    ASSERT_TRUE(got.result.ok) << got.result.error << "\n" << src;

    // Lev3+ reassociates expression trees, so this comparison (unlike the
    // digest oracle above) needs the usual fp tolerance.
    const std::string diff = compare_observable(fn, want, got, 1e-6);
    ASSERT_TRUE(diff.empty()) << "seed " << seed << ": " << diff << "\n" << src;
  }
}

}  // namespace
}  // namespace ilp
