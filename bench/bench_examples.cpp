// Regenerates the paper's Section 2 worked examples (Figures 1, 3, 5, 6, 7)
// through the full pipeline: DSL source -> Conv/Lev2/Lev3/Lev4 -> superblock
// schedule -> execution-driven cycles per innermost iteration on the
// infinite-issue machine the figures assume.
#include <cstdio>
#include <functional>
#include <string>

#include "bench_common.hpp"
#include "frontend/compile.hpp"
#include "sim/simulator.hpp"
#include "support/strings.hpp"

namespace {

using namespace ilp;

// Steady-state cycles per iteration by differencing two trip counts.
double cycles_per_iter(const std::function<std::string(std::int64_t)>& src_for,
                       OptLevel level, std::int64_t n1, std::int64_t n2) {
  auto run = [&](std::int64_t n) {
    DiagnosticEngine diags;
    auto r = dsl::compile(src_for(n), diags);
    if (!r) {
      std::fprintf(stderr, "compile failed: %s\n", diags.to_string().c_str());
      std::exit(1);
    }
    compile_at_level(r->fn, level, MachineModel::issue(64));
    return simulate_cycles(r->fn, MachineModel::issue(64));
  };
  return static_cast<double>(run(n2) - run(n1)) / static_cast<double>(n2 - n1);
}

void report(const char* figure, const char* what,
            const std::function<std::string(std::int64_t)>& src_for, const char* paper) {
  std::printf("%-42s", strformat("%s  (%s)", figure, what).c_str());
  for (OptLevel l : {OptLevel::Conv, OptLevel::Lev2, OptLevel::Lev3, OptLevel::Lev4})
    std::printf("  %s=%5.2f", level_name(l), cycles_per_iter(src_for, l, 64, 256));
  std::printf("   [paper: %s]\n", paper);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "unknown option %s\nusage: %s\n", argv[1], argv[0]);
    return 1;
  }
  using namespace ilp;
  bench::print_header(
      "Figures 1/3/5/6/7: worked examples, cycles per innermost iteration "
      "(infinite issue)");

  report("Figure 1 C(j)=A(j)+B(j)", "unroll+rename", [](std::int64_t n) {
    return strformat(R"(
program fig1
array A[%lld] fp
array B[%lld] fp
array C[%lld] fp
loop j = 0 to %lld {
  C[j] = A[j] + B[j];
}
)", (long long)n, (long long)n, (long long)n, (long long)(n - 1));
  }, "7.0 Conv, 2.7 unroll3+rename");

  report("Figure 3 matmul inner", "acc expansion", [](std::int64_t n) {
    return strformat(R"(
program fig3
array A[%lld] fp
array B[%lld] fp
scalar c fp out
loop k = 0 to %lld {
  c = c + A[k] * B[k];
}
)", (long long)n, (long long)n, (long long)(n - 1));
  }, "8.0 Conv, 4.7 Lev2(3x), 3.3 +acc, 2.7 +ind");

  report("Figure 5 strided C(j)=A(j)*B(j)", "ind expansion", [](std::int64_t n) {
    return strformat(R"(
program fig5
array A[%lld] fp
array B[%lld] fp
array C[%lld] fp
loop i = 0 to %lld step 2 {
  C[i] = A[i] * B[i];
}
)", (long long)(2 * n), (long long)(2 * n), (long long)(2 * n), (long long)(2 * n - 2));
  }, "6.0 Conv, 2.7 Lev2(3x), 2.0 +ind");

  report("Figure 6 search loop", "op combining", [](std::int64_t n) {
    return strformat(R"(
program fig6
array A[%lld] fp
scalar t fp out
loop i = 0 to %lld {
  t = A[i] - 3.2;
  if (t >= 10.0) break;
}
)", (long long)(n + 4), (long long)(n + 2));
  }, "7.0 Conv, 5.0 after combining (illustrative)");

  report("Figure 7 B*(C+D)*E*F/G", "height reduction", [](std::int64_t n) {
    return strformat(R"(
program fig7
array B[%lld] fp
array C[%lld] fp
array D[%lld] fp
array E[%lld] fp
array F[%lld] fp
array G[%lld] fp
array R[%lld] fp
loop i = 0 to %lld {
  R[i] = B[i] * (C[i] + D[i]) * E[i] * F[i] / G[i];
}
)", (long long)n, (long long)n, (long long)n, (long long)n, (long long)n, (long long)n,
        (long long)n, (long long)(n - 1));
  }, "22 -> 13 cycles for the expression dependence height");

  ilp::bench::paper_note(
      "Figure labels are per-example illustrations; the loop-level numbers "
      "here run the full pipeline on equivalent DSL sources, so unroll "
      "factors (8x) and extra transformations can beat the figures' 3x "
      "illustrations.  Exact figure-for-figure issue-time checks live in "
      "tests/sim/figures_test.cpp and the transformation tests.");
  return 0;
}
