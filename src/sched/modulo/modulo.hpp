// Modulo scheduling backend: software pipelining with exact MinII analysis.
//
// This is the second, selectable scheduling backend (SchedulerKind::Modulo).
// It rewrites eligible innermost counted loops into prologue / kernel /
// epilogue form at the initiation interval found by iterative modulo
// scheduling (sched/modulo/ims.hpp), then hands the whole function to the
// ordinary list scheduler, which packs each straight-line block — including
// the new kernel — for the in-order machine.  Loops that are ineligible or
// where pipelining would not beat the list-scheduled body fall back cleanly:
// the original body is kept intact behind a trip-count guard (or untouched
// entirely), so SchedulerKind::Modulo is always observably equivalent to
// SchedulerKind::List (tests/sched/modulo_diff_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "machine/machine.hpp"

namespace ilp {

// Which scheduling backend compile_with_transforms uses.  Threaded through
// CompileOptions, the study harness, ilpd's protocol ("scheduler" field) and
// every content-addressed cache key.
enum class SchedulerKind : std::uint8_t { List = 0, Modulo = 1 };

// Bump whenever the modulo scheduler's output can change for the same input;
// cache keys mix this in so warm caches never serve stale pipelined code.
inline constexpr int kModuloSchedulerVersion = 1;

[[nodiscard]] const char* scheduler_kind_name(SchedulerKind k);
// Accepts "list" / "modulo"; nullopt otherwise.
[[nodiscard]] std::optional<SchedulerKind> parse_scheduler_kind(const std::string& s);

struct ModuloOptions {
  std::size_t max_body_insts = 128;  // MDG + IMS are O(n^2)-ish; cap the body
  int max_stages = 8;                // deepest overlap the codegen will emit
  int max_ii_over_min = 16;          // II search range above MinII before giving up
  int budget_ratio = 6;              // IMS placement budget = ratio * num ops

  bool operator==(const ModuloOptions&) const = default;
};

// Aggregated per-function results, surfaced as sched.modulo.* counters and
// in ilpd compile responses.
struct ModuloStats {
  int loops_seen = 0;        // simple loops examined
  int loops_pipelined = 0;   // rewritten into pro/kernel/epi form
  int loops_fallback = 0;    // eligible but not profitable / IMS failed
  int backtracks = 0;        // IMS evictions across all loops
  int min_ii_sum = 0;        // sum of MinII over pipelined loops
  int achieved_ii_sum = 0;   // sum of achieved II over pipelined loops
  int max_stages = 0;        // deepest kernel emitted
};

// Pipelines every eligible innermost loop of `fn` in place.  Safe on any
// verified function; non-loop code and ineligible loops are untouched.
ModuloStats modulo_pipeline_function(Function& fn, const MachineModel& machine,
                                     const ModuloOptions& options = {});

// Per-loop analysis record for benches, tests and EXPERIMENTS.md: runs MDG
// construction and IMS on each simple loop of `fn` *without* rewriting it.
struct ModuloLoopReport {
  BlockId body = kNoBlock;
  bool eligible = false;
  std::string reject_reason;  // set when !eligible
  int body_insts = 0;         // MDG nodes (back branch excluded)
  int res_mii = 0;
  int rec_mii = 0;
  int min_ii = 0;
  int achieved_ii = 0;  // 0 when IMS failed within the II search range
  int stages = 0;
  int backtracks = 0;
  int list_makespan = 0;  // list-scheduled steady-state iteration latency
};

std::vector<ModuloLoopReport> analyze_modulo_loops(const Function& fn,
                                                   const MachineModel& machine,
                                                   const ModuloOptions& options = {});

}  // namespace ilp
