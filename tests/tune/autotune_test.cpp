// Autotuner tests: deterministic search, the never-worse-than-Lev4 floor,
// cache-driven repeat tuning, the fixed-subgrid pruning audit, and the
// differential interpreter oracle over tuned fuzz programs.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "common/fixtures.hpp"
#include "common/interp.hpp"
#include "engine/cache.hpp"
#include "engine/metrics.hpp"
#include "engine/pool.hpp"
#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "sim/simulator.hpp"
#include "tune/tune.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

using testing::fuzz_seed_count;
using testing::random_program;
using testing::run_digest;

tune::TuneOptions small_budget() {
  tune::TuneOptions opts;
  opts.beam_width = 2;
  opts.max_rounds = 2;
  opts.max_sims = 16;
  return opts;
}

const std::string& suite_source(const char* name) {
  const Workload* w = find_workload(name);
  EXPECT_NE(w, nullptr) << name;
  return w->source;
}

// --- Determinism ------------------------------------------------------------

// The search must be a pure function of (source, options): rerunning it,
// running it on a thread pool, and running it against a warm cache must all
// produce byte-identical signatures (the signature covers every candidate,
// its round, prune/simulate flag, and cycles).
TEST(Autotune, DeterministicAcrossRerunsParallelismAndCacheWarmth) {
  const std::string& src = suite_source("APS-1");
  const tune::TuneResult serial = tune::autotune(src, small_budget());
  ASSERT_TRUE(serial.ok) << serial.error;
  EXPECT_GT(serial.lev4_cycles, 0u);

  const tune::TuneResult again = tune::autotune(src, small_budget());
  EXPECT_EQ(serial.signature(), again.signature());

  engine::ThreadPool pool(4);
  engine::ResultCache cache;
  const tune::TuneResult parallel =
      tune::autotune(src, small_budget(), &pool, &cache);
  EXPECT_EQ(serial.signature(), parallel.signature());

  const tune::TuneResult warm =
      tune::autotune(src, small_budget(), &pool, &cache);
  EXPECT_EQ(serial.signature(), warm.signature());
}

// --- The floor: best found is never worse than Lev4 -------------------------

TEST(Autotune, BestNeverWorseThanLev4OnWholeSuite) {
  engine::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  engine::ResultCache cache;
  for (const Workload& w : workload_suite()) {
    tune::TuneOptions opts = small_budget();
    opts.max_rounds = 1;
    const tune::TuneResult r = tune::autotune(w.source, opts, &pool, &cache);
    ASSERT_TRUE(r.ok) << w.name << ": " << r.error;
    ASSERT_GT(r.lev4_cycles, 0u) << w.name;
    // The Lev4 seed is always simulated, so this holds by construction; it
    // failing means the seed round or the ranking lost a result.
    EXPECT_LE(r.best_cycles, r.lev4_cycles) << w.name;
    EXPECT_GE(r.speedup_vs_lev4(), 1.0) << w.name;
  }
}

// --- Bookkeeping ------------------------------------------------------------

TEST(Autotune, CountsAreConsistentAndAuditTrailIsComplete) {
  const tune::TuneResult r = tune::autotune(suite_source("NAS-2"), small_budget());
  ASSERT_TRUE(r.ok) << r.error;
  // Every considered candidate lands in the audit trail exactly once:
  // simulated, pruned, or failed-to-analyze.
  EXPECT_EQ(r.evals.size(), r.considered);
  EXPECT_LE(r.simulated + r.pruned, r.considered);
  EXPECT_GE(r.simulated, kLevels.size());  // seeds are always simulated
  EXPECT_LE(r.simulated, static_cast<std::uint64_t>(small_budget().max_sims));
  std::uint64_t simulated = 0, pruned = 0, failed = 0;
  for (const tune::CandidateEval& e : r.evals) {
    if (e.simulated)
      ++simulated;
    else if (e.ok)
      ++pruned;
    else
      ++failed;
    if (e.simulated && e.ok) {
      EXPECT_GT(e.cycles, 0u) << e.config.name();
    }
  }
  EXPECT_EQ(simulated, r.simulated);
  EXPECT_EQ(pruned, r.pruned);
  EXPECT_EQ(simulated + pruned + failed, r.considered);
}

// --- Compile work: the plan tree's exact pass counts -------------------------

std::uint64_t pass_count(const char* name) {
  for (const auto& [n, stat] : engine::MetricsRegistry::global().snapshot())
    if (n == name) return stat.count;
  return 0;
}

// One search runs the frontend and Conv once per nest set it analyzes, the
// backend once per config, never measures registers, and measures each
// simulated config on the leaf analyze built: measure compiles nothing.
TEST(Autotune, SearchCompilesEachPrefixOnceAndEachConfigOnce) {
  const char* passes[] = {"pass.frontend", "pass.conventional", "pass.regalloc",
                          "pass.schedule"};
  std::uint64_t before[4];
  for (int i = 0; i < 4; ++i) before[i] = pass_count(passes[i]);

  const tune::TuneResult r = tune::autotune(suite_source("APS-1"), tune::TuneOptions{});
  ASSERT_TRUE(r.ok) << r.error;
  std::set<std::uint64_t> nest_sets;
  for (const tune::CandidateEval& e : r.evals) {
    ASSERT_TRUE(e.ok) << e.config.name();
    tune::TuneConfig prefix;
    prefix.nest = e.config.nest;
    if (!prefix.nest.tile) prefix.nest.tile_size = NestOptions{}.tile_size;
    nest_sets.insert(prefix.order_key());
  }
  EXPECT_GT(nest_sets.size(), 1u);
  EXPECT_GT(r.simulated, 0u);

  EXPECT_EQ(pass_count("pass.frontend") - before[0], nest_sets.size());
  EXPECT_EQ(pass_count("pass.conventional") - before[1], nest_sets.size());
  EXPECT_EQ(pass_count("pass.regalloc") - before[2], 0u);
  EXPECT_EQ(pass_count("pass.schedule") - before[3], r.evals.size());
}

TEST(Autotune, RepeatTuningIsServedFromTheCache) {
  engine::ResultCache cache;
  const std::string& src = suite_source("APS-3");
  const tune::TuneResult cold = tune::autotune(src, small_budget(), nullptr, &cache);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache_hits, 0u);

  std::uint64_t ok_sims = 0;
  for (const tune::CandidateEval& e : cold.evals)
    if (e.simulated && e.ok) ++ok_sims;

  const tune::TuneResult warm = tune::autotune(src, small_budget(), nullptr, &cache);
  ASSERT_TRUE(warm.ok) << warm.error;
  // Determinism means the second search simulates the same candidates, and
  // every successful measurement replays from the cache.
  EXPECT_EQ(warm.signature(), cold.signature());
  EXPECT_EQ(warm.cache_hits, ok_sims);
}

TEST(Autotune, CancelledStopsAfterSeedsWithBestSoFar) {
  tune::TuneOptions opts = small_budget();
  opts.cancelled = [] { return true; };
  const tune::TuneResult r = tune::autotune(suite_source("APS-1"), opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.stopped_early);
  EXPECT_EQ(r.rounds, 0);
  EXPECT_EQ(r.simulated, kLevels.size());  // exactly the seed round
  EXPECT_LE(r.best_cycles, r.lev4_cycles);
}

TEST(Autotune, BrokenSourceReportsErrorNotCrash) {
  const tune::TuneResult r = tune::autotune("loop { this is not a program",
                                            small_budget());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

// --- Pruning audit ----------------------------------------------------------

// The cost-model contract from the issue: on a fixed sub-grid, pruning must
// skip a substantial share of the grid while still finding the exhaustive
// best.  The audit measures the pruned-away set too (ground truth), so
// precision is exact, not sampled.
TEST(Autotune, PruningAuditEqualBestOnSubgrid) {
  engine::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  engine::ResultCache cache;
  tune::LocalEvaluator eval(&pool, &cache);
  const std::vector<tune::TuneConfig> grid = tune::default_audit_grid();
  for (const char* name : {"APS-1", "NAS-1", "SRS-1", "TFS-1"}) {
    const tune::PruningAudit a =
        tune::audit_pruning(suite_source(name), tune::TuneOptions{}, grid, eval);
    ASSERT_TRUE(a.ok) << name << ": " << a.error;
    EXPECT_EQ(a.grid_size, grid.size()) << name;
    EXPECT_GE(a.pruned_fraction(), 0.30) << name;
    EXPECT_TRUE(a.equal_best())
        << name << ": pruned best " << a.pruned_best << " vs exhaustive best "
        << a.exhaustive_best;
    EXPECT_GT(a.precision(), 0.0) << name;
  }
}

// --- Differential interpreter oracle over tuned fuzz programs ---------------

// For every tuned random program: the winning configuration must (a) run
// under the independent interpreter and produce a stable digest — the same
// config recompiled digests identically, pinning compile determinism — and
// (b) agree with the unoptimized baseline on observable state under the
// standard fp tolerance (Lev3+ winners legally reassociate fp reductions, so
// bit-exactness against the baseline is not required across configs).
TEST(Autotune, TunedFuzzProgramsPreserveSemantics) {
  const int n = fuzz_seed_count(12);
  engine::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  engine::ResultCache cache;
  const MachineModel m = MachineModel::issue(8);
  for (int seed = 1; seed <= n; ++seed) {
    const std::string src = random_program(static_cast<std::uint64_t>(seed));
    tune::TuneOptions opts = small_budget();
    opts.max_rounds = 1;
    const tune::TuneResult r = tune::autotune(src, opts, &pool, &cache);
    ASSERT_TRUE(r.ok) << "seed=" << seed << ": " << r.error << "\n" << src;
    ASSERT_LE(r.best_cycles, r.lev4_cycles) << "seed=" << seed;

    DiagnosticEngine diags;
    auto base = dsl::compile(src, diags);
    ASSERT_TRUE(base.has_value()) << diags.to_string();
    const RunOutcome want = run_seeded(base->fn, m);
    ASSERT_TRUE(want.result.ok) << want.result.error << "\n" << src;

    Workload w;
    w.name = "tuned-fuzz";
    w.source = src;
    const auto compile_winner = [&] {
      return try_compile_workload(w, r.best.level, m,
                                  tune::to_compile_options(r.best));
    };
    auto winner = compile_winner();
    ASSERT_TRUE(winner) << "seed=" << seed << ": " << winner.error_message();

    // (a) Interpreter digest: runs, and is reproducible across recompiles.
    bool ok = false;
    std::string err;
    const std::uint64_t digest = run_digest(winner->fn, &ok, &err);
    ASSERT_TRUE(ok) << "seed=" << seed << " config=" << r.best.name() << ": "
                    << err << "\n" << src;
    auto winner2 = compile_winner();
    ASSERT_TRUE(winner2);
    EXPECT_EQ(run_digest(winner2->fn), digest)
        << "seed=" << seed << " config=" << r.best.name();

    // (b) Interpreter state matches the simulator's baseline observables.
    RunOutcome interp;
    seed_arrays(winner->fn, interp.memory);
    testing::InterpResult ir = testing::interpret(winner->fn, interp.memory);
    ASSERT_TRUE(ir.ok) << ir.error;
    interp.result.ok = true;
    interp.result.regs = std::move(ir.regs);
    const std::string diff = compare_observable(base->fn, want, interp, 1e-6);
    ASSERT_EQ(diff, "") << "seed=" << seed << " config=" << r.best.name()
                        << "\n" << src;
  }
}

}  // namespace
}  // namespace ilp
