// Register-pressure study (ours, extending Figure 11's discussion): the paper
// reports that 37 of 40 loops need fewer than 128 total registers after all
// transformations and argues the requirement "is not unreasonable".  With the
// finite-register allocator this binary measures what actually happens when
// the file shrinks: mean issue-8 Lev4 speedup and spill counts per file size.
#include <cstdio>

#include "bench_common.hpp"
#include "common/assign.hpp"
#include "frontend/compile.hpp"

namespace {

using namespace ilp;

struct Row {
  double mean_speedup = 0.0;
  int loops_with_spills = 0;
  int total_spills = 0;
};

Row measure(int k) {
  const MachineModel m8 = MachineModel::issue(8);
  const MachineModel m1 = MachineModel::issue(1);
  Row row;
  int counted = 0;
  for (const Workload& w : workload_suite()) {
    DiagnosticEngine d0;
    auto base = dsl::compile(w.source, d0);
    compile_at_level(base->fn, OptLevel::Conv, m1);
    const std::uint64_t base_cycles = simulate_cycles(base->fn, m1);

    DiagnosticEngine d1;
    auto opt = dsl::compile(w.source, d1);
    compile_at_level(opt->fn, OptLevel::Lev4, m8);
    if (k > 0) {
      // Per-class file of k/2 registers each, matching the paper's
      // "total integer and floating point registers" accounting.
      const AssignResult ar = assign_registers(opt->fn, {k / 2, k / 2, 0x7f000000});
      if (!ar.ok) {
        std::fprintf(stderr, "  %s failed to allocate at k=%d\n", w.name.c_str(), k);
        continue;
      }
      if (ar.spilled_int + ar.spilled_fp > 0) ++row.loops_with_spills;
      row.total_spills += ar.spilled_int + ar.spilled_fp;
    }
    row.mean_speedup += static_cast<double>(base_cycles) /
                        static_cast<double>(simulate_cycles(opt->fn, m8));
    ++counted;
  }
  row.mean_speedup /= counted;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "unknown option %s\nusage: %s\n", argv[1], argv[0]);
    return 1;
  }
  using namespace ilp;
  bench::print_header(
      "Register pressure: issue-8 Lev4 mean speedup vs. register file size");

  std::printf("%-22s %14s %14s %14s\n", "total registers", "mean speedup",
              "loops w/spill", "regs spilled");
  {
    const Row r = measure(0);
    std::printf("%-22s %14.2f %14s %14s\n", "unlimited (paper)", r.mean_speedup, "-",
                "-");
  }
  for (int k : {256, 128, 64, 48, 32, 24}) {
    const Row r = measure(k);
    std::printf("%-22d %14.2f %14d %14d\n", k, r.mean_speedup, r.loops_with_spills,
                r.total_spills);
  }
  bench::paper_note(
      "Paper Figure 11: all transformed loops here fit under 128 registers, "
      "so the 128-row should match 'unlimited'; the knee below it shows what "
      "the paper's 'production compiler can control register usage with "
      "Lev3/Lev4' remark is protecting against.");
  return 0;
}
