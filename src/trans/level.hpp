// The cumulative transformation levels of the paper's evaluation
// (Section 3.2):
//
//   Conv  conventional scalar optimizations only
//   Lev1  + loop unrolling
//   Lev2  + register renaming
//   Lev3  + operation combining, strength reduction, tree height reduction
//   Lev4  + accumulator / induction / search variable expansion
//
// Pipeline order (each level enables a subset):
//   conventional -> unroll -> expansions (pre-renaming, so the recurrence
//   registers still carry one name) -> renaming -> combining/strength/height
//   -> cleanup -> superblock scheduling.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ir/function.hpp"
#include "machine/machine.hpp"
#include "sched/modulo/modulo.hpp"
#include "support/compile_ctx.hpp"
#include "trans/nest/nest.hpp"
#include "trans/unroll.hpp"

namespace ilp {

enum class OptLevel { Conv = 0, Lev1 = 1, Lev2 = 2, Lev3 = 3, Lev4 = 4 };

inline const char* level_name(OptLevel l) {
  switch (l) {
    case OptLevel::Conv: return "Conv";
    case OptLevel::Lev1: return "Lev1";
    case OptLevel::Lev2: return "Lev2";
    case OptLevel::Lev3: return "Lev3";
    case OptLevel::Lev4: return "Lev4";
  }
  return "?";
}

struct CompileOptions {
  UnrollOptions unroll;
  // Affine nest restructuring (trans/nest/): runs before the conventional
  // optimizations — the passes pattern-match the frontend's canonical loop
  // shape, which LICM/ivopt destroy.  All off by default.
  NestOptions nest;
  bool schedule = true;  // superblock-schedule at the end
  // Scheduling backend.  Modulo software-pipelines eligible counted loops
  // (sched/modulo/) before the final list-scheduling pass; List is the
  // default and the only backend exercised on the allocation-free warm path.
  SchedulerKind scheduler = SchedulerKind::List;
  ModuloOptions modulo;
};

// Applies the full pipeline for `level`, scheduling for `machine`.
void compile_at_level(Function& fn, OptLevel level, const MachineModel& machine,
                      const CompileOptions& opts = {});

// Individual-transformation toggles, used by the ablation bench.
struct TransformSet {
  bool unroll = false;
  bool rename = false;
  bool combine = false;
  bool strength = false;
  bool height = false;
  bool acc_expand = false;
  bool ind_expand = false;
  bool search_expand = false;

  static TransformSet for_level(OptLevel level);
  bool operator==(const TransformSet&) const = default;
};

// Per-compile transformation statistics — the paper's Table-style data
// (which of the eight ILP transformations fired and how much the code grew)
// as a first-class runtime signal.  Filled by compile_with_transforms when a
// stats pointer is passed; every compile also accumulates the same counts
// into the global MetricsRegistry under "trans.*".
struct TransformStats {
  // Nest restructuring pre-passes (trans/nest/, CompileOptions::nest knobs).
  // These precede the paper's eight transformations and are deliberately not
  // part of total_applied(), which counts exactly the paper's set.
  int loops_interchanged = 0;
  int loops_fused = 0;
  int loops_fissioned = 0;
  int loops_tiled = 0;
  int loops_unrolled = 0;      // paper: loop unrolling
  int regs_renamed = 0;        // register renaming (registers split)
  int accs_expanded = 0;       // accumulator variable expansion
  int inds_expanded = 0;       // induction variable expansion
  int searches_expanded = 0;   // search variable expansion
  int ops_combined = 0;        // operation combining (pairs)
  int strength_reduced = 0;    // strength reduction (instructions)
  int trees_rebalanced = 0;    // tree height reduction (expression trees)
  std::size_t ir_insts_before = 0;  // after conventional opts, before ILP passes
  std::size_t ir_insts_after = 0;   // after cleanup + scheduling
  std::uint64_t schedule_ns = 0;    // wall time of the scheduling pass
  // Modulo backend results (all zero under SchedulerKind::List).
  ModuloStats modulo;

  [[nodiscard]] int total_applied() const {
    return loops_unrolled + regs_renamed + accs_expanded + inds_expanded +
           searches_expanded + ops_combined + strength_reduced + trees_rebalanced;
  }
};

// The pipeline in three stages, split where its inputs fork: the prefix
// reads neither the transform set nor the machine, the level stage reads the
// set but not the machine, and only the backend reads the machine.  A caller
// that compiles one source for many (level, machine) cells — the study's cell
// plans (harness/experiment.hpp) — runs the prefix once, the level stage once
// per set on a copy of the prefix, and the backend once per machine on a copy
// of the level.  A Function copy keeps uids and register ids, so every such
// cell is identical to a one-shot compile_with_transforms.
//
// Each stage fills its own fields of `stats` (the prefix resets all of them)
// and scopes its scratch with Arena::Scope, so a plan's arena high-water never
// exceeds a one-shot compile's.  The backend records the per-compile
// trans.*/sched.modulo.*/ctx.* counters, once per compiled cell.
//
// Prefix: nest restructuring pre-passes and the conventional optimizations
// (the Conv level); sets the nest counters and ir_insts_before.
void compile_prefix(Function& fn, const CompileOptions& opts, TransformStats& stats,
                    CompileContext& ctx);
// Level: the paper's transformations enabled by `set`, then cleanup.
void compile_level(Function& fn, const TransformSet& set, const CompileOptions& opts,
                   TransformStats& stats, CompileContext& ctx);
// Backend: modulo pipelining and list scheduling for `machine`, renumbering,
// ir_insts_after and the global counters.
void compile_backend(Function& fn, const TransformSet& set, const MachineModel& machine,
                     const CompileOptions& opts, TransformStats& stats,
                     CompileContext& ctx);

// Explicit-context form: all pass scratch and analysis storage comes from
// `ctx`, which is reset (arena rewound, not freed) at the start of the
// compile.  Two sequential compiles on one warm context produce bit-identical
// output to two fresh contexts — the context only changes where memory lives.
// Exactly compile_prefix, compile_level and compile_backend in order.
void compile_with_transforms(Function& fn, const TransformSet& set,
                             const MachineModel& machine, const CompileOptions& opts,
                             TransformStats* stats, CompileContext& ctx);

// Convenience overload on the calling thread's pooled context.
void compile_with_transforms(Function& fn, const TransformSet& set,
                             const MachineModel& machine, const CompileOptions& opts = {},
                             TransformStats* stats = nullptr);

}  // namespace ilp
