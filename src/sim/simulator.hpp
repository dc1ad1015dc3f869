// Execution-driven simulator for the parameterized in-order superscalar/VLIW
// processor of the paper (Section 3.1).
//
// Functional semantics and timing are computed together while running the
// program on real data — the same methodology the paper uses to derive
// execution times.  Timing model:
//
//   * Up to `issue_width` instructions issue per cycle, in program order.
//   * An instruction stalls (blocking all later ones — in-order issue with
//     register interlocks) until every source register is ready.  A dest
//     register written by an op of latency L at cycle c is ready at c+L.
//   * At most `branch_slots` (=1) control instructions issue per cycle.  A
//     taken branch/jump ends the issue cycle; the target instruction issues
//     no earlier than cycle + branch latency.  Untaken branches allow
//     continued same-cycle issue of fall-through instructions.
//   * A load from address a stalls until the latest store to a completes
//     (store latency 1 ⇒ the following cycle).
//
// run() first lowers the Function into a flat decoded program — ops in
// layout order with empty blocks folded away, branch targets as op indices,
// latencies resolved, and one register index (ints, then fps, then constant
// slots for immediates) — and then executes that.  Stores in flight sit in a
// FIFO of (address, completion cycle) that loads search newest-first.  While
// the head instruction is interlocked the clock jumps straight to the cycle
// its last blocking operand becomes ready: in-order issue means nothing else
// can issue meanwhile, so every observable equals per-cycle evaluation
// (tests/sim/cycle_skip_test.cpp checks this against the reference loop).
//
// Repeating loop iterations are timed once, not once each.  In-order timing
// depends only on the scoreboard relative to the current cycle, so at every
// loop-head entry that starts a cycle (a taken back edge just ended the
// last one) with no store in flight, the run loop snapshots each register's
// ready - cycle, clipped at 0.  When a head's snapshot equals the one from
// its previous entry, the next iteration is timed precisely while its path
// (the control outcomes) and, per load, the stores in flight at it are
// recorded: the period.  If it ends with the same snapshot again and no load
// in it waited on a store, later iterations along the same path cost the
// same cycles, stalls, branches and profile slots.  Skip mode runs them as
// straight-line code for values only, guarding each branch outcome against
// the path and each load against the stores in flight at its position, and
// adds the period's deltas per completed iteration.  A guard that fails, a
// fault, an instruction budget that would run out within the iteration, or
// the loop's exit undoes the partial iteration's register and memory writes
// and resumes precise timing at its start, with the scoreboard rebuilt as
// cycle + snapshot.  Every SimResult field, error text, memory, register
// and profile count is therefore that of timing each instruction
// (tests/sim/sim_diff_test.cpp).  A run recording an issue trace stays
// precise until the trace is full.
//
// This model reproduces every issue-time (IT) table in the paper's Figures
// 1, 3, 5, 6 and 7 exactly (see tests/sim/figures_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "machine/machine.hpp"
#include "sim/memory.hpp"

namespace ilp {

struct CycleProfile;  // sim/profile.hpp

// Final architectural register state.
struct RegFile {
  std::vector<std::int64_t> ints;
  std::vector<double> fps;

  [[nodiscard]] std::int64_t get_int(std::uint32_t id) const {
    return id < ints.size() ? ints[id] : 0;
  }
  [[nodiscard]] double get_fp(std::uint32_t id) const {
    return id < fps.size() ? fps[id] : 0.0;
  }
};

struct IssueEvent {
  std::uint32_t uid = 0;    // Instruction::uid
  std::uint64_t cycle = 0;  // issue cycle
};

struct SimOptions {
  std::uint64_t max_instructions = 2'000'000'000ull;
  // When set, the first `trace_limit` issue events are recorded.
  std::vector<IssueEvent>* trace = nullptr;
  std::size_t trace_limit = 4096;
  // Initial register values (id -> value); vectors may be shorter than the
  // function's register count.
  std::vector<std::int64_t> init_ints;
  std::vector<double> init_fps;
  // When non-null, the run attributes every cycle x issue-slot to one cause
  // of the closed taxonomy in sim/profile.hpp (reset() is called on entry).
  // The profiled run's observable output (cycles, stalls, trace, registers,
  // memory) is byte-identical to an unprofiled run: the two paths are one
  // `if constexpr` template, so profile == nullptr pays nothing — no extra
  // state, no allocation, no per-issue bookkeeping.  Only meaningful when
  // the run succeeds (res.ok); a failed run leaves a partial profile.
  CycleProfile* profile = nullptr;
};

struct SimResult {
  bool ok = false;
  std::string error;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;  // dynamically issued
  std::uint64_t branches = 0;      // dynamic control instructions
  std::uint64_t stall_cycles = 0;  // cycles where slot 0 could not issue
  // Of `instructions`, those whose timing came from a repeated steady-state
  // period instead of the issue loop (diagnostic; every other field is the
  // same either way).
  std::uint64_t ff_instructions = 0;
  RegFile regs;
};

class Simulator {
 public:
  Simulator(const MachineModel& machine, SimOptions options = {})
      : machine_(machine), options_(std::move(options)) {}

  // Runs `fn` to RET, mutating `mem`.  The function's entry point is its
  // first block in layout order.
  [[nodiscard]] SimResult run(const Function& fn, Memory& mem) const;

 private:
  struct Program;  // `fn` lowered for execution (simulator.cpp)

  // The one run loop, over the decoded program.  kProfile selects the
  // cycle-accounting instrumentation at compile time; run() dispatches on
  // options_.profile.
  template <bool kProfile>
  [[nodiscard]] SimResult run_impl(Program& prog, const Function& fn, Memory& mem) const;

  MachineModel machine_;
  SimOptions options_;
};

// Deterministically fills every array of `fn` with pseudo-random data (seeded
// by array name) so all transformation levels of the same source loop observe
// identical inputs.  Int arrays get small positive ints; fp arrays get values
// in (0, 2).  On an empty memory whose arrays are packed, it first maps the
// memory's dense window over their address span (sim/memory.hpp).
void seed_arrays(const Function& fn, Memory& mem, std::uint64_t seed = 0x9e3779b97f4a7c15ull);

// Convenience for differential tests: runs and returns (result, memory).
struct RunOutcome {
  SimResult result;
  Memory memory;
};
RunOutcome run_seeded(const Function& fn, const MachineModel& machine,
                      SimOptions options = {});

// Compares two runs' observable behaviour: final memory images and the
// function's declared live-out registers.  Returns an empty string when
// equivalent, else a human-readable difference.
std::string compare_observable(const Function& fn, const RunOutcome& a, const RunOutcome& b,
                               double fp_tolerance = 1e-9);

}  // namespace ilp
