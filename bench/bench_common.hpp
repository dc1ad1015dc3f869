// Shared header for the bench binaries: the report banner and the
// paper-comparison footer, printed the way `ilpc --study` prints the paper's
// own tables and figures (harness/report.hpp), and the paper's speedup base.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"

namespace ilp::bench {

// Conv issue-1 cycles of every suite workload, in suite order: the base of
// every speedup.  A bench computes them once per run, each through the
// workload's cell plan (compile_workload), not once per configuration.
inline std::vector<std::uint64_t> conv_issue1_cycles() {
  const MachineModel m1 = MachineModel::issue(1);
  std::vector<std::uint64_t> out;
  for (const Workload& w : workload_suite())
    out.push_back(simulate_cycles(compile_workload(w, OptLevel::Conv, m1).fn, m1));
  return out;
}

inline void print_header(const char* what) {
  std::fputs(render_section_header(what).c_str(), stdout);
}

inline void paper_note(const char* note) {
  std::fputs(render_paper_note(note).c_str(), stdout);
}

}  // namespace ilp::bench
