// End-to-end tests of the engine-backed study: parallel runs must be
// byte-identical to serial ones, warm caches must recall every cell with
// identical results, a bad workload must fail its own cells only, and the
// cell plans must run each shared stage — and each twin level's leaves —
// exactly once.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "engine/cache.hpp"
#include "engine/metrics.hpp"
#include "harness/experiment.hpp"

namespace ilp {
namespace {

std::vector<Workload> mini_suite() {
  std::vector<Workload> out;
  for (const char* name : {"add", "dotprod", "SDS-4", "maxval"})
    out.push_back(*find_workload(name));
  return out;
}

TEST(StudyEngine, ParallelRunIsByteIdenticalToSerial) {
  StudyOptions serial;
  serial.jobs = 1;
  const StudyResult a = run_study(mini_suite(), serial);

  StudyOptions parallel;
  parallel.jobs = 4;
  const StudyResult b = run_study(mini_suite(), parallel);

  ASSERT_EQ(a.loops.size(), b.loops.size());
  for (std::size_t i = 0; i < a.loops.size(); ++i) {
    EXPECT_EQ(a.loops[i].cycles, b.loops[i].cycles) << a.loops[i].name;
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      EXPECT_EQ(a.loops[i].regs[li].int_regs, b.loops[i].regs[li].int_regs);
      EXPECT_EQ(a.loops[i].regs[li].fp_regs, b.loops[i].regs[li].fp_regs);
    }
  }
  // The serialized study — the artifact the benches write — must match byte
  // for byte regardless of the worker count.
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(b.stats.jobs, 4);
}

TEST(StudyEngine, WarmCacheRecallsEveryCellIdentically) {
  engine::ResultCache cache;  // memory-only, shared across both runs
  StudyOptions opts;
  opts.jobs = 2;
  opts.cache = &cache;

  const StudyResult cold = run_study(mini_suite(), opts);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_EQ(cold.stats.cache_misses, cold.stats.cells);

  const StudyResult warm = run_study(mini_suite(), opts);
  EXPECT_EQ(warm.stats.cache_hits, warm.stats.cells);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  EXPECT_GT(warm.stats.cache_hit_rate(), 0.9);
  // Recalled cycles and registers are identical to the computed ones.
  EXPECT_EQ(cold.to_json(), warm.to_json());
}

TEST(StudyEngine, DiskCachePersistsAcrossCacheInstances) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ilp_study_cache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  StudyOptions opts;
  opts.jobs = 2;
  opts.cache_dir = dir.string();
  const StudyResult cold = run_study(mini_suite(), opts);
  EXPECT_EQ(cold.stats.cache_misses, cold.stats.cells);

  // A fresh ResultCache (fresh process, in effect) hits the disk tier.
  const StudyResult warm = run_study(mini_suite(), opts);
  EXPECT_EQ(warm.stats.cache_disk_hits, warm.stats.cells);
  EXPECT_EQ(cold.to_json(), warm.to_json());

  std::filesystem::remove_all(dir);
}

TEST(StudyEngine, BadWorkloadFailsItsCellsNotTheStudy) {
  std::vector<Workload> suite = mini_suite();
  Workload bad = suite[0];
  bad.name = "broken";
  bad.source = "program broken\nthis is not a valid DSL program\n";
  suite.insert(suite.begin() + 1, bad);

  for (const int jobs : {1, 4}) {
    StudyOptions opts;
    opts.jobs = jobs;
    const StudyResult s = run_study(suite, opts);
    ASSERT_EQ(s.loops.size(), 5u);
    EXPECT_FALSE(s.loops[1].ok());
    EXPECT_NE(s.loops[1].error.find("broken"), std::string::npos);
    EXPECT_EQ(s.stats.failed_cells, kLevels.size() * kIssueWidths.size());
    // Every healthy workload still produced a full result grid.
    for (const std::size_t i : {0ul, 2ul, 3ul, 4ul}) {
      EXPECT_TRUE(s.loops[i].ok()) << s.loops[i].error;
      EXPECT_GT(s.loops[i].base_cycles(), 0u);
      EXPECT_DOUBLE_EQ(s.loops[i].speedup(OptLevel::Conv, 0), 1.0);
    }
    // Failed cells read as speedup 0, never as aborts.
    EXPECT_DOUBLE_EQ(s.loops[1].speedup(OptLevel::Lev4, 3), 0.0);
  }
}

// Count of every global registry entry, for before/after deltas.
std::map<std::string, std::uint64_t> registry_counts() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, stat] : engine::MetricsRegistry::global().snapshot())
    out[name] = stat.count;
  return out;
}

std::uint64_t delta(const std::map<std::string, std::uint64_t>& before,
                    const std::map<std::string, std::uint64_t>& after,
                    const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

TEST(StudyEngine, CellPlansRunEachSharedStageOnce) {
  const std::vector<Workload> suite = mini_suite();
  const std::uint64_t n = suite.size();
  StudyOptions opts;
  opts.jobs = 1;
  const auto before = registry_counts();
  const StudyResult s = run_study(suite, opts);
  const auto after = registry_counts();
  ASSERT_EQ(s.stats.failed_cells, 0u);

  EXPECT_EQ(delta(before, after, "pass.frontend"), n);
  EXPECT_EQ(delta(before, after, "pass.conventional"), n);
  EXPECT_EQ(delta(before, after, "pass.unroll"), 4 * n);   // Lev1..Lev4
  EXPECT_EQ(delta(before, after, "pass.rename"), 3 * n);   // Lev2..Lev4
  EXPECT_EQ(delta(before, after, "pass.cleanup"), 5 * n);  // every level
  // add's Lev4 finds nothing to expand, so it twins Lev3 and shares its four
  // leaves; every other level is distinct.
  EXPECT_EQ(delta(before, after, "pass.schedule"), 20 * n - 4);
  EXPECT_EQ(delta(before, after, "pass.regalloc"), 20 * n - 4);
  EXPECT_EQ(delta(before, after, "pass.simulate"), 20 * n - 4);
  EXPECT_EQ(delta(before, after, "study.cells_shared"), 4u);
  EXPECT_EQ(s.stats.shared_cells, 4u);
  EXPECT_EQ(delta(before, after, "study.job"), n + 19);  // plan + leaf jobs

  // The per-level IR-size counters add up exactly as over one-shot compiles.
  for (const Workload& w : suite)
    for (const OptLevel level : kLevels)
      for (const int width : kIssueWidths)
        ASSERT_TRUE(try_compile_workload(w, level, MachineModel::issue(width)).has_value());
  const auto one_shot = registry_counts();
  for (const char* stage : {"before", "after"})
    for (const OptLevel level : kLevels) {
      const std::string name =
          std::string("trans.ir_insts_") + stage + "." + level_name(level);
      EXPECT_GT(delta(before, after, name), 0u) << name;
      EXPECT_EQ(delta(before, after, name), delta(after, one_shot, name)) << name;
    }
}

TEST(StudyEngine, PartiallyWarmCacheRunsOnlyTheMissingStages) {
  const std::vector<Workload> suite = mini_suite();
  const CompileOptions copts;
  engine::ResultCache full;
  StudyOptions cold_opts;
  cold_opts.cache = &full;
  const StudyResult cold = run_study(suite, cold_opts);

  // Pre-store one cell of loop 0, every width of loop 1's Lev3 and all of
  // loop 2; loop 3 starts empty.
  auto prestore = [&](engine::ResultCache& into) {
    auto copy_cell = [&](std::size_t loop, std::size_t li, std::size_t wi) {
      const std::uint64_t key = study_cell_key(
          suite[loop], kLevels[li], MachineModel::issue(kIssueWidths[wi]), copts);
      const auto payload = full.lookup(key);
      ASSERT_TRUE(payload.has_value());
      into.store(key, *payload);
    };
    copy_cell(0, 2, 2);
    for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi) copy_cell(1, 3, wi);
    for (std::size_t li = 0; li < kLevels.size(); ++li)
      for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi) copy_cell(2, li, wi);
  };
  const std::uint64_t stored = 1 + 4 + 20;

  for (const int jobs : {1, 4}) {
    engine::ResultCache cache;
    prestore(cache);
    StudyOptions opts;
    opts.jobs = jobs;
    opts.cache = &cache;
    const auto before = registry_counts();
    const StudyResult warm = run_study(suite, opts);
    const auto after = registry_counts();
    EXPECT_EQ(warm.to_json(), cold.to_json()) << jobs;
    EXPECT_EQ(warm.stats.cache_hits, stored) << jobs;
    EXPECT_EQ(warm.stats.cache_misses, warm.stats.cells - stored) << jobs;
    // Loop 2 never reaches the frontend; loop 1 skips its Lev3 stage; every
    // missed cell is scheduled once, but for the four of loop 0's Lev4 that
    // share its Lev3's leaves.
    EXPECT_EQ(delta(before, after, "pass.frontend"), suite.size() - 1) << jobs;
    EXPECT_EQ(delta(before, after, "pass.conventional"), suite.size() - 1) << jobs;
    EXPECT_EQ(delta(before, after, "pass.cleanup"), 5u + 4u + 5u) << jobs;
    EXPECT_EQ(delta(before, after, "pass.schedule"), warm.stats.cells - stored - 4)
        << jobs;
    EXPECT_EQ(warm.stats.shared_cells, 4u) << jobs;
  }
}

// Twin levels whose leaves are partly cached: in `add`, Lev4 twins Lev3.
// Whichever cells are stored, the study reads as cold, recalls exactly the
// stored cells, and shares only where a twin missed a width its
// representative computed.
TEST(StudyEngine, PartiallyWarmTwinLevelsMatchTheColdRun) {
  const std::vector<Workload> suite = mini_suite();
  const CompileOptions copts;
  engine::ResultCache full;
  StudyOptions cold_opts;
  cold_opts.cache = &full;
  const StudyResult cold = run_study(suite, cold_opts);

  struct Case {
    const char* name;
    std::vector<std::pair<std::size_t, std::size_t>> stored;  // (level, width) of add
    std::uint64_t shared;
  };
  const std::size_t lev3 = 3;
  const std::size_t lev4 = 4;
  const std::vector<Case> cases = {
      {"representative cached", {{lev3, 0}, {lev3, 1}, {lev3, 2}, {lev3, 3}}, 0},
      {"twin cached", {{lev4, 0}, {lev4, 1}, {lev4, 2}, {lev4, 3}}, 0},
      {"widths split", {{lev3, 0}, {lev3, 1}, {lev4, 2}, {lev4, 3}}, 2},
  };
  for (const Case& c : cases)
    for (const int jobs : {1, 4}) {
      engine::ResultCache cache;
      for (const auto& [li, wi] : c.stored) {
        const std::uint64_t key = study_cell_key(
            suite[0], kLevels[li], MachineModel::issue(kIssueWidths[wi]), copts);
        const auto payload = full.lookup(key);
        ASSERT_TRUE(payload.has_value());
        cache.store(key, *payload);
      }
      StudyOptions opts;
      opts.jobs = jobs;
      opts.cache = &cache;
      const auto before = registry_counts();
      const StudyResult warm = run_study(suite, opts);
      const auto after = registry_counts();
      const std::uint64_t stored = c.stored.size();
      EXPECT_EQ(warm.to_json(), cold.to_json()) << c.name << " " << jobs;
      EXPECT_EQ(warm.stats.cache_hits, stored) << c.name << " " << jobs;
      EXPECT_EQ(warm.stats.cache_misses, warm.stats.cells - stored) << c.name << " " << jobs;
      EXPECT_EQ(warm.stats.shared_cells, c.shared) << c.name << " " << jobs;
      EXPECT_EQ(delta(before, after, "study.cells_shared"), c.shared) << c.name << " " << jobs;
      // add's Lev3/Lev4 leaves run once per width either way.
      EXPECT_EQ(delta(before, after, "pass.simulate"), 3 * 20u + 3 * 4u + 4u)
          << c.name << " " << jobs;
    }
}

// A loop whose Lev3 and Lev4 compile to the same code, which divides by zero
// at run time.  A twin never takes a failed leaf from its representative: it
// computes the cell on its own plan, so each error names its own level, as a
// one-shot compile and simulation of that cell does.
TEST(StudyEngine, FailedTwinCellsNameTheirOwnLevel) {
  Workload w = mini_suite()[0];
  w.name = "divzero";
  w.source = R"(
program divzero
array A[1024] int
array C[1024] int
scalar z int
loop i = 0 to 1023 {
  C[i] = A[i] / z;
}
)";
  auto plan = LoopPlan::build(w);
  ASSERT_TRUE(plan.has_value()) << plan.error_message();
  const auto lev3 = plan->level(OptLevel::Lev3);
  const auto lev4 = plan->level(OptLevel::Lev4);
  ASSERT_TRUE(lev3 && lev4);
  ASSERT_TRUE(lev3->same_leaves(*lev4));

  const CompileOptions copts;
  for (const int jobs : {1, 4}) {
    engine::ResultCache cache;
    StudyOptions opts;
    opts.jobs = jobs;
    opts.cache = &cache;
    const StudyResult s = run_study({w}, opts);
    EXPECT_EQ(s.stats.failed_cells, kLevels.size() * kIssueWidths.size()) << jobs;
    EXPECT_EQ(s.stats.shared_cells, 0u) << jobs;
    for (const OptLevel level : kLevels)
      for (const int width : kIssueWidths) {
        const MachineModel m = MachineModel::issue(width);
        const auto compiled = try_compile_workload(w, level, m);
        ASSERT_TRUE(compiled.has_value()) << compiled.error_message();
        const auto cycles = try_simulate_cycles(compiled->fn, m);
        ASSERT_FALSE(cycles.has_value());
        const std::string expected =
            "workload 'divzero' at " + std::string(level_name(level)) + " issue-" +
            std::to_string(width) + ": " + cycles.error_message();
        if (level == OptLevel::Conv && width == 1) {
          EXPECT_EQ(s.loops[0].error, expected);
        }
        // The cell's cached payload ("v1 err <text>") carries its own error.
        const auto payload = cache.lookup(study_cell_key(w, level, m, copts));
        ASSERT_TRUE(payload.has_value());
        EXPECT_EQ(*payload, "v1 err " + expected) << jobs;
      }
  }
}

TEST(StudyEngine, CellKeyDiscriminatesEveryInput) {
  const Workload& w = *find_workload("dotprod");
  const MachineModel m8 = MachineModel::issue(8);
  const CompileOptions base;
  const auto key = study_cell_key(w, OptLevel::Lev4, m8, base);

  EXPECT_EQ(key, study_cell_key(w, OptLevel::Lev4, m8, base));  // deterministic
  EXPECT_NE(key, study_cell_key(w, OptLevel::Lev3, m8, base));
  EXPECT_NE(key, study_cell_key(w, OptLevel::Lev4, MachineModel::issue(4), base));

  Workload edited = w;
  edited.source += " ";
  EXPECT_NE(key, study_cell_key(edited, OptLevel::Lev4, m8, base));

  CompileOptions opts2;
  opts2.unroll.max_factor = 4;
  EXPECT_NE(key, study_cell_key(w, OptLevel::Lev4, m8, opts2));

  MachineModel slow_mul = m8;
  slow_mul.lat_fp_mul = 5;
  EXPECT_NE(key, study_cell_key(w, OptLevel::Lev4, slow_mul, base));
}

}  // namespace
}  // namespace ilp
