// Shared header for the bench binaries: the report banner and the
// paper-comparison footer, printed the way `ilpc --study` prints the paper's
// own tables and figures (harness/report.hpp).
#pragma once

#include <cstdio>

#include "harness/report.hpp"

namespace ilp::bench {

inline void print_header(const char* what) {
  std::fputs(render_section_header(what).c_str(), stdout);
}

inline void paper_note(const char* note) {
  std::fputs(render_paper_note(note).c_str(), stdout);
}

}  // namespace ilp::bench
