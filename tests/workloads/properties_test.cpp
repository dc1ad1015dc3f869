// Per-workload property tests (TEST_P over the full Table 2 suite): the
// paper's qualitative claims, asserted loop by loop at issue-8.
#include <gtest/gtest.h>

#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

struct Measured {
  double conv = 0.0;
  double lev2 = 0.0;
  double lev4 = 0.0;
};

Measured measure(const Workload& w) {
  const MachineModel m8 = MachineModel::issue(8);
  const MachineModel m1 = MachineModel::issue(1);
  const CompiledLoop base = compile_workload(w, OptLevel::Conv, m1);
  const double base_cycles = static_cast<double>(simulate_cycles(base.fn, m1));
  auto speedup = [&](OptLevel l) {
    const CompiledLoop c = compile_workload(w, l, m8);
    return base_cycles / static_cast<double>(simulate_cycles(c.fn, m8));
  };
  return Measured{speedup(OptLevel::Conv), speedup(OptLevel::Lev2),
                  speedup(OptLevel::Lev4)};
}

class WorkloadProps : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadProps, PaperClaimsHoldPerLoop) {
  const Workload& w = workload_suite()[static_cast<std::size_t>(GetParam())];
  const Measured m = measure(w);

  // Higher levels never hurt materially (within scheduling noise).
  EXPECT_GE(m.lev2, m.conv * 0.95) << w.name;
  EXPECT_GE(m.lev4, m.lev2 * 0.90) << w.name;

  // "Loop unrolling and register renaming expose a large amount of ILP" for
  // DOALL loops (Section 3.2): every DOALL loop at least triples.
  if (w.type == dsl::LoopType::DoAll) {
    EXPECT_GE(m.lev2, 3.0) << w.name;
  }

  // "Increasing execution resources yields little performance improvement
  // unless loop unrolling and register renaming are applied": Conv on the
  // wide machine leaves most of the width unused except for very large
  // bodies (NAS-5, doduc-1, tomcatv-1 have enough intra-iteration ILP).
  if (w.size <= 11) {
    EXPECT_LE(m.conv, 3.0) << w.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Table2, WorkloadProps, ::testing::Range(0, 40),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string n =
                               workload_suite()[static_cast<std::size_t>(info.param)]
                                   .name;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// The expansion transformations' headline: reduction/search loops that crawl
// at Lev2 take off at Lev4 (paper Figures 14-15 discussion).
class ReductionProps : public ::testing::TestWithParam<const char*> {};

TEST_P(ReductionProps, Lev4BreaksTheRecurrence) {
  const Workload* w = find_workload(GetParam());
  ASSERT_NE(w, nullptr);
  const Measured m = measure(*w);
  EXPECT_GE(m.lev4, m.lev2 * 1.5) << w->name;
  EXPECT_GE(m.lev4, 3.5) << w->name;
}

INSTANTIATE_TEST_SUITE_P(Reductions, ReductionProps,
                         ::testing::Values("dotprod", "sum", "maxval", "NAS-4", "LWS-2",
                                           "SRS-6", "MTS-1", "SDS-1"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace ilp
