// Ablation study (ours, beyond the paper): contribution of each individual
// transformation, measured as the issue-8 mean-speedup drop when it is
// removed from the full Lev4 pipeline — plus the build-up when each is the
// only addition over Lev2.
#include <cstdio>

#include "bench_common.hpp"
#include "frontend/compile.hpp"

namespace {

using namespace ilp;

double mean_speedup_with(const TransformSet& set, const std::vector<std::uint64_t>& base) {
  const MachineModel m8 = MachineModel::issue(8);
  double sum = 0.0;
  for (std::size_t i = 0; i < workload_suite().size(); ++i) {
    DiagnosticEngine diags;
    auto opt = dsl::compile(workload_suite()[i].source, diags);
    compile_with_transforms(opt->fn, set, m8);
    sum += static_cast<double>(base[i]) / static_cast<double>(simulate_cycles(opt->fn, m8));
  }
  return sum / static_cast<double>(workload_suite().size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "unknown option %s\nusage: %s\n", argv[1], argv[0]);
    return 1;
  }
  using namespace ilp;
  bench::print_header("Ablation: per-transformation contribution at issue-8");

  const std::vector<std::uint64_t> base = bench::conv_issue1_cycles();
  const TransformSet lev4 = TransformSet::for_level(OptLevel::Lev4);
  const double full = mean_speedup_with(lev4, base);
  std::printf("full Lev4 pipeline mean speedup: %.2f\n\n", full);

  struct Knob {
    const char* name;
    bool TransformSet::* member;
  };
  const Knob knobs[] = {
      {"loop unrolling", &TransformSet::unroll},
      {"register renaming", &TransformSet::rename},
      {"operation combining", &TransformSet::combine},
      {"strength reduction", &TransformSet::strength},
      {"tree height reduction", &TransformSet::height},
      {"accumulator expansion", &TransformSet::acc_expand},
      {"induction expansion", &TransformSet::ind_expand},
      {"search expansion", &TransformSet::search_expand},
  };

  std::printf("%-26s %10s %10s\n", "transformation removed", "mean", "drop");
  for (const Knob& k : knobs) {
    TransformSet s = lev4;
    s.*(k.member) = false;
    const double m = mean_speedup_with(s, base);
    std::printf("%-26s %10.2f %10.2f\n", k.name, m, full - m);
  }

  std::printf("\n%-26s %10s %10s\n", "added alone over Lev2", "mean", "gain");
  const double lev2 = mean_speedup_with(TransformSet::for_level(OptLevel::Lev2), base);
  std::printf("%-26s %10.2f %10s\n", "(Lev2 baseline)", lev2, "-");
  for (const Knob& k : knobs) {
    TransformSet s = TransformSet::for_level(OptLevel::Lev2);
    if (s.*(k.member)) continue;  // already in Lev2
    s.*(k.member) = true;
    const double m = mean_speedup_with(s, base);
    std::printf("%-26s %10.2f %10.2f\n", k.name, m, m - lev2);
  }

  bench::paper_note(
      "Paper Section 3.2: induction variable expansion is the most often "
      "applied transformation; accumulator and search expansion give the "
      "largest speedups beyond unrolling/renaming; strength reduction is the "
      "least effective under these latencies.");
  return 0;
}
