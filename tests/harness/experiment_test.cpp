#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include "engine/metrics.hpp"
#include "harness/report.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

// A small sub-suite keeps the test fast while covering all three loop types.
std::vector<Workload> mini_suite() {
  std::vector<Workload> out;
  for (const char* name : {"add", "dotprod", "SDS-4", "maxval"})
    out.push_back(*find_workload(name));
  return out;
}

TEST(Experiment, StudyShapesAreSane) {
  const StudyResult s = run_study(mini_suite());
  ASSERT_EQ(s.loops.size(), 4u);
  for (const auto& l : s.loops) {
    // Base config (Conv, issue-1) defines speedup 1.0.
    EXPECT_DOUBLE_EQ(l.speedup(OptLevel::Conv, 0), 1.0) << l.name;
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi) {
        EXPECT_GT(l.cycles[li][wi], 0u) << l.name;
        // Wider machines never hurt (same code, more slots).
        if (wi > 0) {
          EXPECT_LE(l.cycles[li][wi], l.cycles[li][wi - 1]) << l.name;
        }
      }
      EXPECT_GT(l.regs[li].total(), 0) << l.name;
    }
  }
}

TEST(Experiment, DotProductNeedsLev4) {
  const StudyResult s = run_study(mini_suite());
  const LoopStudy* dot = nullptr;
  const LoopStudy* add = nullptr;
  for (const auto& l : s.loops) {
    if (l.name == "dotprod") dot = &l;
    if (l.name == "add") add = &l;
  }
  ASSERT_NE(dot, nullptr);
  ASSERT_NE(add, nullptr);
  // The accumulator loop barely moves until Lev4; the DOALL loop is already
  // fast at Lev2 (paper Section 3.2).
  EXPECT_GT(dot->speedup(OptLevel::Lev4, 3), dot->speedup(OptLevel::Lev2, 3) * 2.0);
  EXPECT_GT(add->speedup(OptLevel::Lev2, 3), 4.0);
}

TEST(Experiment, MeansAndFiltersAgree) {
  const StudyResult s = run_study(mini_suite());
  const double all = s.mean_speedup(OptLevel::Lev4, 3);
  EXPECT_GT(all, 1.0);
  const double doall = s.mean_speedup_where(OptLevel::Lev4, 3, true);
  const double nondoall = s.mean_speedup_where(OptLevel::Lev4, 3, false);
  // 1 DOALL (add) + 3 non-DOALL in the mini suite.
  EXPECT_NEAR(all, (doall * 1 + nondoall * 3) / 4.0, 1e-9);
}

TEST(Experiment, RegisterUsageGrowsWithLevels) {
  const StudyResult s = run_study(mini_suite());
  EXPECT_GT(s.mean_registers(OptLevel::Lev4), s.mean_registers(OptLevel::Conv));
}

// The simulator's books on the paper's 800-cell study.  Both counters are
// exact, so this gates the fast-forward's mechanism and the twin levels'
// sharing, never a wall time: each distinct compiled loop's dynamic
// instructions are counted once — the 112 cells of levels that compile to a
// lower level's code (Lev4 = Lev3 on 19 loops; Conv = Lev1 = Lev2 and
// Lev3 = Lev4 on NAS-5, doduc-1 and tomcatv-1) share its simulation — and
// nearly all of them are timed by repeating a recorded steady-state period
// (sim/simulator.cpp).
TEST(Experiment, StudySimulationIsFastForwarded) {
  const auto count = [](const char* name) -> std::uint64_t {
    for (const auto& [n, stat] : engine::MetricsRegistry::global().snapshot())
      if (n == name) return stat.count;
    return 0;
  };
  const std::uint64_t instructions_before = count("sim.instructions");
  const std::uint64_t ff_before = count("sim.ff_instructions");
  const StudyResult s = run_study(workload_suite());
  ASSERT_EQ(s.stats.cells, 800u);
  ASSERT_EQ(s.stats.failed_cells, 0u);
  const std::uint64_t instructions = count("sim.instructions") - instructions_before;
  const std::uint64_t ff = count("sim.ff_instructions") - ff_before;
  EXPECT_EQ(s.stats.shared_cells, 112u);
  EXPECT_EQ(instructions, 17'932'548u);
  EXPECT_EQ(ff, 17'480'868u);
  EXPECT_GE(ff * 10, instructions * 9);
}

TEST(Report, HistogramCountsSumToLoopCount) {
  const StudyResult s = run_study(mini_suite());
  const Histogram h = speedup_histogram(s, 3, fig10_speedup_buckets());
  for (std::size_t li = 0; li < kLevels.size(); ++li) {
    int total = 0;
    for (const auto& row : h.counts) total += row[li];
    EXPECT_EQ(total, 4);
  }
}

TEST(Report, BucketBoundariesMatchPaperAxes) {
  EXPECT_EQ(fig8_speedup_buckets().size(), 7u);
  EXPECT_EQ(fig9_speedup_buckets().size(), 9u);
  EXPECT_EQ(fig10_speedup_buckets().size(), 9u);
  EXPECT_EQ(fig11_register_buckets().size(), 7u);
  EXPECT_EQ(fig11_register_buckets().back().label, "128+");
}

TEST(Report, RenderersProduceAllSections) {
  const StudyResult s = run_study(mini_suite());
  const std::string t = render_speedup_table(s, 3);
  EXPECT_NE(t.find("dotprod"), std::string::npos);
  EXPECT_NE(t.find("MEAN"), std::string::npos);
  const std::string t2 = render_table2();
  EXPECT_NE(t2.find("PERFECT"), std::string::npos);
  EXPECT_NE(t2.find("VECTOR"), std::string::npos);
  EXPECT_NE(t2.find("maxval"), std::string::npos);
  const Histogram h = register_histogram(s);
  const std::string t3 = render_histogram(h, "title");
  EXPECT_NE(t3.find("title"), std::string::npos);
  EXPECT_NE(t3.find("Lev4"), std::string::npos);

  // The paper's report: every table and figure, each exactly once.
  const std::string report = render_paper_report(s);
  const auto count = [&report](const std::string& what) {
    int n = 0;
    for (std::size_t at = report.find(what); at != std::string::npos;
         at = report.find(what, at + what.size()))
      ++n;
    return n;
  };
  for (const char* title :
       {"Table 2: description of the 40 loop nests",
        "Figure 8: speedup distribution, issue-2 processor",
        "Figure 9: speedup distribution, issue-4 processor",
        "Figure 10: speedup distribution, issue-8 processor",
        "Figure 11: register usage distribution, issue-8 processor",
        "Figure 12: DOALL speedup distribution", "Figure 13: DOALL register usage distribution",
        "Figure 14: non-DOALL speedup distribution",
        "Figure 15: non-DOALL register usage distribution",
        "Section 4 summary: paper vs. this reproduction"})
    EXPECT_EQ(count(title), 1) << title;
}

}  // namespace
}  // namespace ilp
