// The transformation "explain" layer: turns cycle-accounting profiles
// (sim/profile.hpp) into the paper's argument, stated per program — each
// transformation level buys its speedup by removing a *specific* kind of
// stall.  explain_source() compiles one DSL program at Conv..Lev4 through
// one cell plan (harness/experiment.hpp), profiles every run, and reports
// which causes each level removed ("renaming removed 41% of raw_wait
// slots"); format_profile() renders a single profile as a human-readable
// table for ilpc --profile.
#pragma once

#include <string>

#include "machine/machine.hpp"
#include "sim/profile.hpp"
#include "support/expected.hpp"
#include "trans/level.hpp"

namespace ilp {

// Cause table with shares, the issue-occupancy histogram, and the top
// stalled blocks and opcodes (by slots lost while that block/opcode held the
// blocked head of the issue window).
std::string format_profile(const CycleProfile& p);

// One line per transformation level (cycles, ipc, per-cause shares) followed
// by a diff against the previous level naming the causes it removed or
// added.  When `compare_schedulers` is set, the final level is additionally
// compiled with the other scheduling backend and the two are diffed — the
// modulo-vs-list stall story.  `opts` carries the unroll/nest/scheduler
// knobs; `name` only labels the report.
Expected<std::string> explain_source(const std::string& name, const std::string& source,
                                     const MachineModel& machine,
                                     const CompileOptions& opts = {},
                                     bool compare_schedulers = true);

}  // namespace ilp
