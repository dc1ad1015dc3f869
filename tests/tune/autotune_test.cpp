// Autotuner tests: deterministic search, the never-worse-than-Lev4 floor,
// cache-driven repeat tuning, the fixed-subgrid pruning audit, and the
// differential interpreter oracle over tuned fuzz programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/interp.hpp"
#include "engine/cache.hpp"
#include "engine/metrics.hpp"
#include "engine/pool.hpp"
#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "sim/profile.hpp"
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
      EXPECT_GT(e.cycles, 0u) << e.config().name();
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

// One search runs the frontend and Conv once per nest set it analyzes, a
// level stage once per (prefix code, level, unroll) and the backend once per
// distinct (level code, scheduler), never measures registers, and measures
// each simulated config on a leaf analyze built: measure compiles nothing.
// The distinct stages are counted independently, from one-shot prefixes and
// level forks of every config the search considered.
TEST(Autotune, SearchCompilesEachPrefixOnceAndEachConfigOnce) {
  const char* passes[] = {"pass.frontend", "pass.conventional", "pass.regalloc",
                          "pass.schedule", "pass.cleanup"};
  std::uint64_t before[5];
  for (int i = 0; i < 5; ++i) before[i] = pass_count(passes[i]);

  const Workload& w = *find_workload("APS-1");
  const tune::TuneResult r = tune::autotune(w.source, tune::TuneOptions{});
  ASSERT_TRUE(r.ok) << r.error;
  std::uint64_t delta[5];
  for (int i = 0; i < 5; ++i) delta[i] = pass_count(passes[i]) - before[i];

  // Prefixes by nest set, numbered by their first same-code prefix.
  std::map<std::uint64_t, std::pair<LoopPlan, std::size_t>> prefixes;
  std::vector<const LoopPlan*> prefix_codes;
  std::set<std::tuple<std::size_t, OptLevel, int>> level_stages;
  std::vector<LevelPlan> leaves;  // one per distinct (level code, scheduler)
  for (const tune::CandidateEval& e : r.evals) {
    ASSERT_TRUE(e.ok) << e.config().name();
    CompileOptions opts = tune::to_compile_options(e.config());
    if (!opts.nest.tile) opts.nest.tile_size = NestOptions{}.tile_size;
    tune::TuneConfig nest_only;
    nest_only.nest = opts.nest;
    auto it = prefixes.find(nest_only.order_key());
    if (it == prefixes.end()) {
      CompileOptions prefix_opts;
      prefix_opts.nest = opts.nest;
      auto plan = LoopPlan::build(w, prefix_opts);
      ASSERT_TRUE(plan) << plan.error_message();
      it = prefixes.emplace(nest_only.order_key(), std::make_pair(std::move(*plan), 0))
               .first;
      const LoopPlan& mine = it->second.first;
      const auto twin = std::find_if(prefix_codes.begin(), prefix_codes.end(),
                                     [&](const LoopPlan* p) { return p->same_prefix(mine); });
      it->second.second = static_cast<std::size_t>(twin - prefix_codes.begin());
      if (twin == prefix_codes.end()) prefix_codes.push_back(&mine);
    }
    level_stages.emplace(it->second.second, e.config().level, e.config().unroll);
    auto lv = it->second.first.level(e.config().level, opts);
    ASSERT_TRUE(lv) << lv.error_message();
    if (std::none_of(leaves.begin(), leaves.end(),
                     [&](const LevelPlan& l) { return l.same_leaves(*lv); }))
      leaves.push_back(std::move(*lv));
  }
  EXPECT_GT(prefixes.size(), prefix_codes.size());
  EXPECT_LT(level_stages.size(), r.evals.size());
  EXPECT_LT(leaves.size(), r.evals.size());
  EXPECT_GT(r.simulated, 0u);

  EXPECT_EQ(delta[0], prefixes.size());
  EXPECT_EQ(delta[1], prefixes.size());
  EXPECT_EQ(delta[2], 0u);
  EXPECT_EQ(delta[3], leaves.size());
  EXPECT_EQ(delta[4], level_stages.size());
}

// --- Code-addressed sharing --------------------------------------------------

// The exact sharing counters of one search: every config reaches a level
// stage, a schedule and (when simulated) a simulation, each either computed
// for it or already computed for a twin.  Shared measurements are not cache
// hits.
TEST(Autotune, SharingCountersArePinnedForOneSearch) {
  const char* counters[] = {"pass.cleanup", "tune.levels_shared", "pass.schedule",
                            "tune.schedules_shared", "pass.simulate", "tune.sims_shared"};
  std::uint64_t before[6];
  for (int i = 0; i < 6; ++i) before[i] = pass_count(counters[i]);
  const tune::TuneResult r = tune::autotune(suite_source("APS-1"), tune::TuneOptions{});
  ASSERT_TRUE(r.ok) << r.error;
  std::uint64_t d[6];
  for (int i = 0; i < 6; ++i) d[i] = pass_count(counters[i]) - before[i];

  EXPECT_EQ(r.evals.size(), 58u);
  EXPECT_EQ(r.simulated, 32u);
  EXPECT_EQ(r.cache_hits, 0u);
  EXPECT_EQ(d[0] + d[1], r.evals.size());
  EXPECT_EQ(d[2] + d[3], r.evals.size());
  EXPECT_EQ(d[4] + d[5], r.simulated);
  EXPECT_EQ(d[0], 33u);  // level stages
  EXPECT_EQ(d[2], 33u);  // schedules
  EXPECT_EQ(d[4], 15u);  // simulations
}

// Forwards to another evaluator, recording every config's analysis and
// measurement.
class RecordingEvaluator : public tune::Evaluator {
 public:
  explicit RecordingEvaluator(tune::Evaluator& inner) : inner_(inner) {}

  std::vector<Analysis> analyze(const std::string& source, int issue,
                                const std::vector<tune::TuneConfig>& cfgs) override {
    auto out = inner_.analyze(source, issue, cfgs);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
      analyses.emplace(cfgs[i].order_key(), std::make_pair(cfgs[i], out[i]));
    return out;
  }
  std::vector<Measurement> measure(const std::string& source, int issue,
                                   const std::vector<tune::TuneConfig>& cfgs) override {
    auto out = inner_.measure(source, issue, cfgs);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
      measurements.emplace(cfgs[i].order_key(), out[i]);
    return out;
  }

  std::map<std::uint64_t, std::pair<tune::TuneConfig, Analysis>> analyses;
  std::map<std::uint64_t, Measurement> measurements;

 private:
  tune::Evaluator& inner_;
};

// Exhaustive searches share prefixes, levels, schedules and simulations
// between twin configs on a pool; every config's features and cycles must
// still be those of a one-shot compile and simulation of that config alone.
TEST(Autotune, TwinConfigsMeasureLikeOneShotCompiles) {
  engine::ThreadPool pool(2);
  const MachineModel m = MachineModel::issue(tune::TuneOptions{}.issue);
  const char* shared[] = {"tune.levels_shared", "tune.schedules_shared",
                          "tune.sims_shared"};
  std::uint64_t before[3];
  for (int i = 0; i < 3; ++i) before[i] = pass_count(shared[i]);
  std::uint64_t nest_configs = 0, scheduler_differs = 0;
  for (const char* name : {"APS-1", "NAS-5", "SRS-1", "TFS-1"}) {
    const Workload& w = *find_workload(name);
    tune::LocalEvaluator local(&pool);
    RecordingEvaluator rec(local);
    tune::TuneOptions opts;
    opts.use_cost_model = false;
    const tune::TuneResult r = tune::autotune(w.source, opts, rec);
    ASSERT_TRUE(r.ok) << name << ": " << r.error;
    EXPECT_EQ(r.cache_hits, 0u) << name;
    for (const auto& [key, entry] : rec.analyses) {
      const auto& [c, a] = entry;
      const std::string where = std::string(name) + " " + c.name();
      auto fresh = try_compile_workload(w, c.level, m, tune::to_compile_options(c));
      ASSERT_EQ(a.ok, fresh.has_value()) << where;
      if (!a.ok) {
        EXPECT_EQ(a.error, fresh.error_message()) << where;
        continue;
      }
      const tune::IrFeatures f = tune::extract_features(fresh->fn, m);
      EXPECT_EQ(a.features.analytic_cycles, f.analytic_cycles) << where;
      EXPECT_EQ(a.features.load_slots, f.load_slots) << where;
      EXPECT_EQ(a.features.static_insts, f.static_insts) << where;
      EXPECT_EQ(a.features.blocks, f.blocks) << where;
      EXPECT_EQ(a.features.counted_loops, f.counted_loops) << where;
      EXPECT_EQ(a.features.default_loops, f.default_loops) << where;

      const auto meas = rec.measurements.find(key);
      if (meas == rec.measurements.end()) continue;
      const auto sim = try_simulate_profile(fresh->fn, m);
      ASSERT_TRUE(sim) << where << ": " << sim.error_message();
      ASSERT_TRUE(meas->second.ok) << where << ": " << meas->second.error;
      EXPECT_EQ(meas->second.cycles, sim->result.cycles) << where;
      EXPECT_EQ(meas->second.mem_wait, sim->profile.fraction(StallCause::MemWait)) << where;
      EXPECT_FALSE(meas->second.cache_hit) << where;
      if (c.nest.any()) ++nest_configs;
      tune::TuneConfig list = c;
      list.scheduler = SchedulerKind::List;
      const auto list_meas = rec.measurements.find(list.order_key());
      if (c.scheduler == SchedulerKind::Modulo && list_meas != rec.measurements.end() &&
          list_meas->second.cycles != meas->second.cycles)
        ++scheduler_differs;
    }
  }
  // The searches reached configs with nest flags on, configs whose scheduler
  // changes their cycles, and twins at every stage.
  EXPECT_GT(nest_configs, 0u);
  EXPECT_GT(scheduler_differs, 0u);
  for (int i = 0; i < 3; ++i) EXPECT_GT(pass_count(shared[i]) - before[i], 0u) << shared[i];
}

// A one-loop dot product: no nest pass finds anything to do, so every nest
// set compiles to the same prefix, level, leaf and simulation.
constexpr const char* kDotProduct =
    "program dot\narray A[64] fp\narray B[64] fp\nscalar s fp out\n"
    "loop i = 1 to 64 {\n  s = s + A[i] * B[i];\n}\n";

// Twins in one pool batch coalesce on one slot per stage however the jobs
// interleave; each config still gets its own measurement, stored under its
// own cache key, and none is a cache hit until the batch is measured again.
TEST(Autotune, TwinsInOneBatchCoalesceOnThePool) {
  engine::ThreadPool pool(4);
  engine::ResultCache cache;
  tune::LocalEvaluator eval(&pool, &cache);
  std::vector<tune::TuneConfig> batch;
  for (int flags = 0; flags < 16; ++flags) {
    tune::TuneConfig c;
    c.nest.interchange = (flags & 1) != 0;
    c.nest.fuse = (flags & 2) != 0;
    c.nest.fission = (flags & 4) != 0;
    c.nest.tile = (flags & 8) != 0;
    batch.push_back(c);
  }
  const char* counters[] = {"pass.frontend", "pass.cleanup", "pass.schedule",
                            "pass.simulate", "tune.levels_shared",
                            "tune.schedules_shared", "tune.sims_shared"};
  std::uint64_t before[7];
  for (int i = 0; i < 7; ++i) before[i] = pass_count(counters[i]);
  const int issue = tune::TuneOptions{}.issue;
  const auto analyses = eval.analyze(kDotProduct, issue, batch);
  const auto measured = eval.measure(kDotProduct, issue, batch);
  std::uint64_t d[7];
  for (int i = 0; i < 7; ++i) d[i] = pass_count(counters[i]) - before[i];

  EXPECT_EQ(d[0], batch.size());  // a prefix per nest set...
  EXPECT_EQ(d[1], 1u);            // ...one level stage, schedule and simulation
  EXPECT_EQ(d[2], 1u);
  EXPECT_EQ(d[3], 1u);
  EXPECT_EQ(d[4], batch.size() - 1);
  EXPECT_EQ(d[5], batch.size() - 1);
  EXPECT_EQ(d[6], batch.size() - 1);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(analyses[i].ok) << batch[i].name() << ": " << analyses[i].error;
    ASSERT_TRUE(measured[i].ok) << batch[i].name() << ": " << measured[i].error;
    EXPECT_EQ(analyses[i].features.analytic_cycles, analyses[0].features.analytic_cycles);
    EXPECT_EQ(measured[i].cycles, measured[0].cycles) << batch[i].name();
    EXPECT_FALSE(measured[i].cache_hit) << batch[i].name();
  }

  const auto again = eval.measure(kDotProduct, issue, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(again[i].cache_hit) << batch[i].name();
    EXPECT_EQ(again[i].cycles, measured[i].cycles) << batch[i].name();
  }
  EXPECT_EQ(pass_count("pass.simulate") - before[3], 1u);
}

// Every config the neighbor grids can reach survives the order-key encoding
// CandidateEval stores, and no two share a key.
TEST(Autotune, OrderKeyRoundTripsEveryReachableConfig) {
  std::set<std::uint64_t> keys;
  std::size_t n = 0;
  for (const OptLevel l : kLevels)
    for (const int u : tune::kUnrollGrid)
      for (const SchedulerKind s : {SchedulerKind::List, SchedulerKind::Modulo})
        for (int flags = 0; flags < 16; ++flags)
          for (const int ts : tune::kTileGrid) {
            tune::TuneConfig c;
            c.level = l;
            c.unroll = u;
            c.scheduler = s;
            c.nest.interchange = (flags & 1) != 0;
            c.nest.fuse = (flags & 2) != 0;
            c.nest.fission = (flags & 4) != 0;
            c.nest.tile = (flags & 8) != 0;
            c.nest.tile_size = ts;
            const std::uint64_t key = c.order_key();
            EXPECT_LT(key, std::uint64_t{1} << 28) << c.name();
            EXPECT_EQ(tune::TuneConfig::from_order_key(key), c) << c.name();
            EXPECT_EQ(tune::CandidateEval(c, 3).config(), c) << c.name();
            keys.insert(key);
            ++n;
          }
  EXPECT_EQ(keys.size(), n);
  EXPECT_EQ(tune::TuneConfig::from_order_key(tune::default_config().order_key()),
            tune::default_config());
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
