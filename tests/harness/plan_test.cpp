// Cell plans (harness/experiment.hpp) against one-shot compiles: every leaf
// of a plan — prefix run once, each level run once on a copy, each width
// scheduled on a copy of its level — must be the cell a fresh compile
// produces, down to instruction uids, register counters, transformation
// counters and every simulator output.  The fresh compile is the pipeline
// called directly (dsl::compile, compile_with_transforms,
// measure_register_usage), not try_compile_workload, which is itself a
// one-cell plan; failures must carry try_compile_workload's error text.
// The tuner's plan tree (tune::SearchPlan) is held to the same standard.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/nest_suite.hpp"
#include "engine/pool.hpp"
#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "ir/printer.hpp"
#include "sim/simulator.hpp"
#include "support/strings.hpp"
#include "tune/tune.hpp"

namespace ilp {
namespace {

using testing::fuzz_seed_count;
using testing::random_program;

struct Cell {
  CompiledLoop compiled;
  TransformStats stats;
  SimResult sim;
};

std::vector<std::uint32_t> uids(const Function& fn) {
  std::vector<std::uint32_t> out;
  for (const Block& b : fn.blocks())
    for (const Instruction& inst : b.insts) out.push_back(inst.uid);
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_same_stats(const TransformStats& a, const TransformStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.loops_interchanged, b.loops_interchanged) << where;
  EXPECT_EQ(a.loops_fused, b.loops_fused) << where;
  EXPECT_EQ(a.loops_fissioned, b.loops_fissioned) << where;
  EXPECT_EQ(a.loops_tiled, b.loops_tiled) << where;
  EXPECT_EQ(a.loops_unrolled, b.loops_unrolled) << where;
  EXPECT_EQ(a.regs_renamed, b.regs_renamed) << where;
  EXPECT_EQ(a.accs_expanded, b.accs_expanded) << where;
  EXPECT_EQ(a.inds_expanded, b.inds_expanded) << where;
  EXPECT_EQ(a.searches_expanded, b.searches_expanded) << where;
  EXPECT_EQ(a.ops_combined, b.ops_combined) << where;
  EXPECT_EQ(a.strength_reduced, b.strength_reduced) << where;
  EXPECT_EQ(a.trees_rebalanced, b.trees_rebalanced) << where;
  EXPECT_EQ(a.ir_insts_before, b.ir_insts_before) << where;
  EXPECT_EQ(a.ir_insts_after, b.ir_insts_after) << where;
  // schedule_ns is wall time, the one field that may differ.
  EXPECT_EQ(a.modulo.loops_seen, b.modulo.loops_seen) << where;
  EXPECT_EQ(a.modulo.loops_pipelined, b.modulo.loops_pipelined) << where;
  EXPECT_EQ(a.modulo.loops_fallback, b.modulo.loops_fallback) << where;
  EXPECT_EQ(a.modulo.backtracks, b.modulo.backtracks) << where;
  EXPECT_EQ(a.modulo.min_ii_sum, b.modulo.min_ii_sum) << where;
  EXPECT_EQ(a.modulo.achieved_ii_sum, b.modulo.achieved_ii_sum) << where;
  EXPECT_EQ(a.modulo.max_stages, b.modulo.max_stages) << where;
}

void expect_same_cell(const Cell& plan, const Cell& fresh, const std::string& where) {
  const Function& a = plan.compiled.fn;
  const Function& b = fresh.compiled.fn;
  EXPECT_EQ(to_string(a), to_string(b)) << where;
  EXPECT_EQ(uids(a), uids(b)) << where;
  EXPECT_EQ(a.num_regs(RegClass::Int), b.num_regs(RegClass::Int)) << where;
  EXPECT_EQ(a.num_regs(RegClass::Fp), b.num_regs(RegClass::Fp)) << where;
  expect_same_stats(plan.stats, fresh.stats, where);
  EXPECT_EQ(plan.compiled.regs.int_regs, fresh.compiled.regs.int_regs) << where;
  EXPECT_EQ(plan.compiled.regs.fp_regs, fresh.compiled.regs.fp_regs) << where;
  EXPECT_EQ(plan.sim.ok, fresh.sim.ok) << where;
  EXPECT_EQ(plan.sim.error, fresh.sim.error) << where;
  EXPECT_EQ(plan.sim.cycles, fresh.sim.cycles) << where;
  EXPECT_EQ(plan.sim.instructions, fresh.sim.instructions) << where;
  EXPECT_EQ(plan.sim.branches, fresh.sim.branches) << where;
  EXPECT_EQ(plan.sim.stall_cycles, fresh.sim.stall_cycles) << where;
  EXPECT_EQ(plan.sim.regs.ints, fresh.sim.regs.ints) << where;
  EXPECT_TRUE(same_bits(plan.sim.regs.fps, fresh.sim.regs.fps)) << where;
}

// The cell compiled from source in one pass, then simulated.
Cell one_shot(const Workload& w, OptLevel level, const MachineModel& m,
              const CompileOptions& opts) {
  Cell c;
  DiagnosticEngine diags;
  auto r = dsl::compile(w.source, diags);
  if (!r) return c;
  compile_with_transforms(r->fn, TransformSet::for_level(level), m, opts, &c.stats);
  c.compiled.fn = std::move(r->fn);
  c.compiled.regs = measure_register_usage(c.compiled.fn);
  c.sim = run_seeded(c.compiled.fn, m).result;
  return c;
}

// Runs `w`'s whole plan (every level x every width) and compares each leaf
// with a one-shot compile of the same cell.  Returns the number of leaves.
int check_plan(const Workload& w, const CompileOptions& opts) {
  auto plan = LoopPlan::build(w, opts);
  if (!plan) {
    ADD_FAILURE() << plan.error_message();
    return 0;
  }
  int leaves = 0;
  for (const OptLevel level : kLevels) {
    const auto lv = plan->level(level);
    for (const int width : kIssueWidths) {
      const MachineModel m = MachineModel::issue(width);
      const std::string where = strformat("%s %s issue-%d %s", w.name.c_str(),
                                          level_name(level), width,
                                          opts.scheduler == SchedulerKind::Modulo
                                              ? "modulo"
                                              : "list");
      if (!lv) {
        // A failing level fails with the one-cell path's text.
        EXPECT_EQ(lv.error_message(),
                  try_compile_workload(w, level, m, opts).error_message())
            << where;
        continue;
      }
      Cell leaf;
      auto leaf_c = lv->compile(m, &leaf.stats);
      if (!leaf_c) {
        ADD_FAILURE() << where << ": " << leaf_c.error_message();
        continue;
      }
      leaf.compiled = std::move(*leaf_c);
      leaf.sim = run_seeded(leaf.compiled.fn, m).result;
      expect_same_cell(leaf, one_shot(w, level, m, opts), where);
      ++leaves;
    }
  }
  return leaves;
}

TEST(CellPlan, StudySuiteLeavesMatchOneShotCompilesUnderList) {
  int leaves = 0;
  for (const Workload& w : workload_suite()) leaves += check_plan(w, {});
  EXPECT_EQ(leaves, 40 * 5 * 4);
}

TEST(CellPlan, StudySuiteLeavesMatchOneShotCompilesUnderModulo) {
  CompileOptions opts;
  opts.scheduler = SchedulerKind::Modulo;
  int leaves = 0;
  for (const Workload& w : workload_suite()) leaves += check_plan(w, opts);
  EXPECT_EQ(leaves, 40 * 5 * 4);
}

TEST(CellPlan, NestSuiteLeavesMatchWithEveryNestPassOn) {
  CompileOptions opts;
  opts.nest.fuse = opts.nest.interchange = opts.nest.tile = opts.nest.fission = true;
  int leaves = 0;
  for (const Workload& w : nest_suite()) leaves += check_plan(w, opts);
  EXPECT_EQ(leaves, static_cast<int>(nest_suite().size()) * 5 * 4);
}

// 200 random programs (scaled by ILP_FUZZ_SEEDS), odd seeds under the list
// scheduler and even seeds under modulo; one test per half.
void check_random_programs(int parity, SchedulerKind scheduler) {
  const int n = fuzz_seed_count(200);
  for (int seed = 1 + parity; seed <= n; seed += 2) {
    Workload w;
    w.name = strformat("random-%d", seed);
    w.source = random_program(static_cast<std::uint64_t>(seed));
    CompileOptions opts;
    opts.scheduler = scheduler;
    EXPECT_EQ(check_plan(w, opts), 5 * 4) << w.source;
    if (::testing::Test::HasFailure()) return;  // one program's diff is enough
  }
}

TEST(CellPlan, RandomProgramLeavesMatchUnderList) {
  check_random_programs(0, SchedulerKind::List);
}

TEST(CellPlan, RandomProgramLeavesMatchUnderModulo) {
  check_random_programs(1, SchedulerKind::Modulo);
}

// Every config one tuner mutation away from a paper seed: all levels, the
// unroll grid, both schedulers, each nest flag flipped, tiling at each tile
// size, and tiling switched off again with a non-default tile size (which
// shares the untiled prefix).
std::vector<tune::TuneConfig> tuner_configs() {
  std::map<std::uint64_t, tune::TuneConfig> out;
  for (const OptLevel seed_level : kLevels) {
    tune::TuneConfig seed;
    seed.level = seed_level;
    std::vector<tune::TuneConfig> reach;
    for (const OptLevel l : kLevels) {
      reach.push_back(seed);
      reach.back().level = l;
    }
    for (const int u : {1, 2, 4, 8, 16}) {
      reach.push_back(seed);
      reach.back().unroll = u;
    }
    for (const SchedulerKind k : {SchedulerKind::List, SchedulerKind::Modulo}) {
      reach.push_back(seed);
      reach.back().scheduler = k;
    }
    for (bool NestOptions::*flag : {&NestOptions::interchange, &NestOptions::fuse,
                                    &NestOptions::fission, &NestOptions::tile}) {
      reach.push_back(seed);
      reach.back().nest.*flag = true;
    }
    for (const int ts : {4, 8, 16, 32}) {
      reach.push_back(seed);
      reach.back().nest.tile = true;
      reach.back().nest.tile_size = ts;
    }
    reach.push_back(seed);
    reach.back().nest.tile_size = 8;
    for (const tune::TuneConfig& c : reach) out.emplace(c.order_key(), c);
  }
  std::vector<tune::TuneConfig> configs;
  for (const auto& [key, c] : out) configs.push_back(c);
  return configs;
}

void expect_same_features(const tune::IrFeatures& a, const tune::IrFeatures& b,
                          const std::string& where) {
  EXPECT_EQ(a.analytic_cycles, b.analytic_cycles) << where;
  EXPECT_EQ(a.load_slots, b.load_slots) << where;
  EXPECT_EQ(a.static_insts, b.static_insts) << where;
  EXPECT_EQ(a.blocks, b.blocks) << where;
  EXPECT_EQ(a.counted_loops, b.counted_loops) << where;
  EXPECT_EQ(a.default_loops, b.default_loops) << where;
}

// Each leaf of a search's tree — built concurrently on a pool, as the tuner's
// analyze jobs build them — against a direct compile of its config.
TEST(CellPlan, TunerLeavesMatchDirectCompiles) {
  const std::vector<tune::TuneConfig> configs = tuner_configs();
  const int issue = tune::TuneOptions{}.issue;
  const MachineModel m = MachineModel::issue(issue);
  engine::ThreadPool pool(4);
  int leaves = 0;
  for (const Workload& w : workload_suite()) {
    tune::SearchPlan plan(w.source, issue);
    std::vector<std::future<Expected<Function>>> built;
    for (const tune::TuneConfig& c : configs)
      built.push_back(pool.submit([&plan, c] { return plan.leaf(c); }));
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const tune::TuneConfig& c = configs[i];
      const std::string where = w.name + " " + c.name();
      const Expected<Function> leaf = built[i].get();
      const CompileOptions opts = tune::to_compile_options(c);
      if (!leaf) {
        EXPECT_EQ(leaf.error_message(),
                  try_compile_workload(w, c.level, m, opts).error_message())
            << where;
        continue;
      }
      DiagnosticEngine diags;
      auto fresh = dsl::compile(w.source, diags);
      ASSERT_TRUE(fresh.has_value()) << where;
      compile_with_transforms(fresh->fn, TransformSet::for_level(c.level), m, opts);
      EXPECT_EQ(to_string(*leaf), to_string(fresh->fn)) << where;
      EXPECT_EQ(uids(*leaf), uids(fresh->fn)) << where;
      expect_same_features(tune::extract_features(*leaf, m),
                           tune::extract_features(fresh->fn, m), where);
      ++leaves;
    }
    if (::testing::Test::HasFailure()) return;  // one nest's diff is enough
  }
  EXPECT_EQ(leaves, static_cast<int>(workload_suite().size() * configs.size()));
}

TEST(CellPlan, FrontendFailureIsTheOneShotError) {
  Workload w;
  w.name = "broken";
  w.source = "program broken\nthis is not a valid DSL program\n";
  const auto plan = LoopPlan::build(w);
  ASSERT_FALSE(plan.has_value());
  const auto fresh = try_compile_workload(w, OptLevel::Lev2, MachineModel::issue(4));
  ASSERT_FALSE(fresh.has_value());
  EXPECT_EQ(plan.error_message(), fresh.error_message());
  EXPECT_NE(plan.error_message().find("'broken' failed to compile"), std::string::npos);
}

}  // namespace
}  // namespace ilp
