// Exact-II oracle tests: for small loops the branch-and-bound checker
// enumerates the same schedule universe as IMS (same reservation table,
// same stage cap), so IMS can never beat it — achieved < optimal is a hard
// bug in one of the two.  Across the workload corpus we require achieved ==
// optimal for every tractable loop, or an explicit gap report; the heuristic
// is also cross-checked against the list backend's steady-state bar.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analysis/cfg.hpp"
#include "analysis/dominators.hpp"
#include "analysis/loops.hpp"
#include "common/fixtures.hpp"
#include "common/modulo_oracle.hpp"
#include "harness/experiment.hpp"
#include "sched/modulo/ims.hpp"
#include "sched/modulo/mdg.hpp"
#include "sched/modulo/modulo.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

using testing::make_fig1_loop;
using testing::make_fig3_loop;

TEST(ModuloOracle, Fig1OptimumIsMinII) {
  const Function fn = make_fig1_loop(64);
  const Cfg cfg(fn);
  const Dominators dom(cfg);
  const auto loops = find_simple_loops(cfg, dom);
  ASSERT_EQ(loops.size(), 1u);
  const MachineModel m = MachineModel::issue(4);
  const ModuloDepGraph g(fn, loops.front(), m);
  const ModuloOptions opts;
  const int min_ii = g.min_ii(m);
  const OracleResult o =
      oracle_optimal_ii(g, m, opts, min_ii, min_ii + opts.max_ii_over_min);
  ASSERT_TRUE(o.tractable);
  EXPECT_EQ(o.optimal_ii, min_ii);  // MinII (6) is achievable; oracle finds it
  const auto sched = ims_schedule(g, m, opts, min_ii, min_ii + opts.max_ii_over_min);
  ASSERT_TRUE(sched.has_value());
  EXPECT_EQ(sched->ii, o.optimal_ii);
}

TEST(ModuloOracle, Fig3OptimumMatchesIms) {
  const Function fn = make_fig3_loop(64);
  const Cfg cfg(fn);
  const Dominators dom(cfg);
  const auto loops = find_simple_loops(cfg, dom);
  ASSERT_EQ(loops.size(), 1u);
  for (const int width : {1, 2, 8}) {
    const MachineModel m = MachineModel::issue(width);
    const ModuloDepGraph g(fn, loops.front(), m);
    const ModuloOptions opts;
    const int min_ii = g.min_ii(m);
    const int max_ii = min_ii + opts.max_ii_over_min;
    const OracleResult o = oracle_optimal_ii(g, m, opts, min_ii, max_ii);
    ASSERT_TRUE(o.tractable) << "width " << width;
    const auto sched = ims_schedule(g, m, opts, min_ii, max_ii);
    ASSERT_TRUE(sched.has_value()) << "width " << width;
    EXPECT_EQ(sched->ii, o.optimal_ii) << "width " << width;
  }
}

// Sweeps every oracle-tractable loop the modulo backend actually sees in the
// study corpus (post-cleanup, pre-schedule IR at Conv and Lev1, where bodies
// are small enough for exhaustive search).  Invariants:
//   * IMS never beats the oracle (shared schedule universe) — hard failure;
//   * IMS never fails where the oracle proved a schedule exists — hard
//     failure (eviction search with our budget is complete enough in range);
//   * achieved == optimal, or the gap is reported explicitly and counted.
TEST(ModuloOracle, AchievedMatchesOptimalAcrossCorpus) {
  const ModuloOptions opts;
  int tractable_loops = 0;
  int gaps = 0;
  for (const Workload& w : workload_suite()) {
    for (OptLevel level : {OptLevel::Conv, OptLevel::Lev1}) {
      for (int width : kIssueWidths) {
        const MachineModel m = MachineModel::issue(width);
        CompileOptions copts;
        copts.schedule = false;  // analyze the exact IR the modulo pass sees
        auto compiled = try_compile_workload(w, level, m, copts);
        if (!compiled) continue;
        const Cfg cfg(compiled->fn);
        const Dominators dom(cfg);
        for (const SimpleLoop& loop : find_simple_loops(cfg, dom)) {
          if (loop.has_side_exits()) continue;
          const Block& body = compiled->fn.block(loop.body);
          if (body.insts.size() < 3 ||
              body.insts.size() > static_cast<std::size_t>(kOracleMaxNodes) + 1)
            continue;
          const ModuloDepGraph g(compiled->fn, loop, m);
          const int min_ii = g.min_ii(m);
          const int max_ii = min_ii + opts.max_ii_over_min;
          const OracleResult o = oracle_optimal_ii(g, m, opts, min_ii, max_ii);
          if (!o.tractable) continue;
          ++tractable_loops;
          const auto sched = ims_schedule(g, m, opts, min_ii, max_ii);
          const std::string tag = w.name + " " + level_name(level) + " issue-" +
                                  std::to_string(width) + " body=" +
                                  std::to_string(g.num_nodes());
          if (o.optimal_ii == 0) {
            // No schedule exists in [MinII, MaxII]: IMS must agree.
            EXPECT_FALSE(sched.has_value()) << tag;
            continue;
          }
          ASSERT_TRUE(sched.has_value())
              << tag << ": oracle found II=" << o.optimal_ii << " but IMS failed";
          ASSERT_GE(sched->ii, o.optimal_ii)
              << tag << ": IMS beat the exhaustive oracle — impossible";
          if (sched->ii != o.optimal_ii) {
            ++gaps;
            std::printf("II-GAP %s: achieved=%d optimal=%d min_ii=%d\n", tag.c_str(),
                        sched->ii, o.optimal_ii, min_ii);
          }
        }
      }
    }
  }
  std::printf("oracle corpus: %d tractable loops, %d heuristic gaps\n",
              tractable_loops, gaps);
  EXPECT_GT(tractable_loops, 0);
  // Eviction-based IMS is a heuristic: a small number of +1 gaps against the
  // exhaustive oracle is expected (Rau reports "near-MinII almost always",
  // not always).  Each gap is printed above (II-GAP lines); this bound keeps
  // the rate from regressing past 5% of tractable loops.
  EXPECT_LE(gaps, tractable_loops / 20);
}

}  // namespace
}  // namespace ilp
