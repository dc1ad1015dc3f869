#include "trans/level.hpp"

#include "engine/metrics.hpp"
#include "ir/verifier.hpp"
#include "obs/context.hpp"
#include "opt/pipeline.hpp"
#include "sched/scheduler.hpp"
#include "trans/accexpand.hpp"
#include "trans/combine.hpp"
#include "trans/indexpand.hpp"
#include "trans/rename.hpp"
#include "trans/searchexpand.hpp"
#include "trans/strengthred.hpp"
#include "trans/treeheight.hpp"
#include "trans/unroll.hpp"

namespace ilp {

TransformSet TransformSet::for_level(OptLevel level) {
  TransformSet s;
  const int l = static_cast<int>(level);
  s.unroll = l >= 1;
  s.rename = l >= 2;
  s.combine = s.strength = s.height = l >= 3;
  s.acc_expand = s.ind_expand = s.search_expand = l >= 4;
  return s;
}

namespace {

// Per-pass wall-time telemetry (engine/metrics.hpp): each pass of every
// compile lands in the "pass.<name>" namespace of the global registry,
// exported via StudyResult::telemetry_json / the benches' --metrics flag.
// When the current request is traced (obs/context.hpp), the pass also
// records a span, so request-scoped Chrome traces show request→job→pass.
// Returns the pass's wall time in nanoseconds.
template <typename F>
std::uint64_t timed_pass(const char* name, Function& fn, const char* verify_msg,
                         F&& pass) {
  engine::Stopwatch wall;
  {
    obs::SpanScope span(name, "pass");
    engine::ScopedTimer timer(name);
    pass();
  }
  verify_or_die(fn, verify_msg);
  return wall.nanos();
}

// The level whose transform set equals `set`, for per-level IR-size metric
// names; custom ablation subsets report as "custom".
const char* set_label(const TransformSet& set) {
  for (const OptLevel l : {OptLevel::Conv, OptLevel::Lev1, OptLevel::Lev2,
                           OptLevel::Lev3, OptLevel::Lev4})
    if (set == TransformSet::for_level(l)) return level_name(l);
  return "custom";
}

}  // namespace

void compile_prefix(Function& fn, const CompileOptions& opts, TransformStats& s,
                    CompileContext& ctx) {
  const Arena::Scope scope(ctx.arena());
  s = TransformStats{};

  // Nest restructuring sees the naive lowered IR: explicit affine subscripts
  // and the canonical guarded loop shape, both of which the conventional
  // optimizations rewrite away.
  if (opts.nest.fuse)
    timed_pass("pass.nest.fuse", fn, "after loop fusion",
               [&] { s.loops_fused = fuse_loops(fn, opts.nest); });
  if (opts.nest.interchange)
    timed_pass("pass.nest.interchange", fn, "after loop interchange",
               [&] { s.loops_interchanged = interchange_loops(fn, opts.nest); });
  if (opts.nest.tile)
    timed_pass("pass.nest.tile", fn, "after loop tiling",
               [&] { s.loops_tiled = tile_loops(fn, opts.nest); });
  if (opts.nest.fission)
    timed_pass("pass.nest.fission", fn, "after loop fission",
               [&] { s.loops_fissioned = fission_loops(fn, opts.nest); });

  timed_pass("pass.conventional", fn, "after conventional optimizations",
             [&] { run_conventional_optimizations(fn, ctx); });
  s.ir_insts_before = fn.num_insts();
}

void compile_level(Function& fn, const TransformSet& set, const CompileOptions& opts,
                   TransformStats& s, CompileContext& ctx) {
  const Arena::Scope scope(ctx.arena());
  s.loops_unrolled = s.regs_renamed = s.accs_expanded = s.inds_expanded = 0;
  s.searches_expanded = s.ops_combined = s.strength_reduced = s.trees_rebalanced = 0;

  if (set.unroll)
    timed_pass("pass.unroll", fn, "after unrolling",
               [&] { s.loops_unrolled = unroll_loops(fn, opts.unroll); });
  // Expansions run before renaming so each recurrence still targets a single
  // register name (the shapes of Figures 2 and 4).
  if (set.acc_expand)
    timed_pass("pass.accexpand", fn, "after accumulator expansion",
               [&] { s.accs_expanded = accumulator_expansion(fn, {}, ctx); });
  if (set.ind_expand)
    timed_pass("pass.indexpand", fn, "after induction expansion",
               [&] { s.inds_expanded = induction_expansion(fn, ctx); });
  if (set.search_expand)
    timed_pass("pass.searchexpand", fn, "after search expansion",
               [&] { s.searches_expanded = search_expansion(fn, ctx); });
  if (set.rename)
    timed_pass("pass.rename", fn, "after renaming",
               [&] { s.regs_renamed = rename_registers(fn, ctx); });
  if (set.combine)
    timed_pass("pass.combine", fn, "after operation combining",
               [&] { s.ops_combined = operation_combining(fn); });
  if (set.strength)
    timed_pass("pass.strengthred", fn, "after strength reduction",
               [&] { s.strength_reduced = strength_reduction(fn); });
  if (set.height)
    timed_pass("pass.treeheight", fn, "after tree height reduction",
               [&] { s.trees_rebalanced = tree_height_reduction(fn, {}, ctx); });
  timed_pass("pass.cleanup", fn, "after cleanup", [&] { run_cleanup(fn, ctx); });
}

void compile_backend(Function& fn, const TransformSet& set, const MachineModel& machine,
                     const CompileOptions& opts, TransformStats& s,
                     CompileContext& ctx) {
  const Arena::Scope scope(ctx.arena());
  s.modulo = ModuloStats{};
  s.schedule_ns = 0;
  // The modulo backend pipelines eligible loops into prologue/kernel/epilogue
  // form; the list scheduler below then packs every block (including the new
  // kernels), so both backends share one final scheduling pass.
  if (opts.schedule && opts.scheduler == SchedulerKind::Modulo)
    timed_pass("pass.modulo", fn, "after modulo pipelining",
               [&] { s.modulo = modulo_pipeline_function(fn, machine, opts.modulo); });
  if (opts.schedule)
    s.schedule_ns = timed_pass("pass.schedule", fn, "after scheduling",
                               [&] { schedule_function(fn, machine, ctx); });
  fn.renumber();
  s.ir_insts_after = fn.num_insts();

  // Global transformation counters: a handful of locked adds per compile,
  // nothing per-instruction, so the metrics-on overhead stays in the noise.
  engine::MetricsRegistry& reg = engine::MetricsRegistry::global();
  if (s.loops_fused > 0)
    reg.add_count("trans.nest.loops_fused", static_cast<std::uint64_t>(s.loops_fused));
  if (s.loops_interchanged > 0)
    reg.add_count("trans.nest.loops_interchanged",
                  static_cast<std::uint64_t>(s.loops_interchanged));
  if (s.loops_tiled > 0)
    reg.add_count("trans.nest.loops_tiled", static_cast<std::uint64_t>(s.loops_tiled));
  if (s.loops_fissioned > 0)
    reg.add_count("trans.nest.loops_fissioned",
                  static_cast<std::uint64_t>(s.loops_fissioned));
  if (s.loops_unrolled > 0)
    reg.add_count("trans.loops_unrolled", static_cast<std::uint64_t>(s.loops_unrolled));
  if (s.regs_renamed > 0)
    reg.add_count("trans.regs_renamed", static_cast<std::uint64_t>(s.regs_renamed));
  if (s.accs_expanded > 0)
    reg.add_count("trans.accs_expanded", static_cast<std::uint64_t>(s.accs_expanded));
  if (s.inds_expanded > 0)
    reg.add_count("trans.inds_expanded", static_cast<std::uint64_t>(s.inds_expanded));
  if (s.searches_expanded > 0)
    reg.add_count("trans.searches_expanded",
                  static_cast<std::uint64_t>(s.searches_expanded));
  if (s.ops_combined > 0)
    reg.add_count("trans.ops_combined", static_cast<std::uint64_t>(s.ops_combined));
  if (s.strength_reduced > 0)
    reg.add_count("trans.strength_reduced",
                  static_cast<std::uint64_t>(s.strength_reduced));
  if (s.trees_rebalanced > 0)
    reg.add_count("trans.trees_rebalanced",
                  static_cast<std::uint64_t>(s.trees_rebalanced));
  // Modulo scheduling backend counters (satellite of the scheduler work):
  // achieved vs. minimum II, search effort, and the fallback rate.
  if (s.modulo.loops_pipelined > 0) {
    reg.add_count("sched.modulo.loops_pipelined",
                  static_cast<std::uint64_t>(s.modulo.loops_pipelined));
    reg.add_count("sched.modulo.achieved_ii_sum",
                  static_cast<std::uint64_t>(s.modulo.achieved_ii_sum));
    reg.add_count("sched.modulo.min_ii_sum",
                  static_cast<std::uint64_t>(s.modulo.min_ii_sum));
    reg.record_max("sched.modulo.max_stages",
                   static_cast<std::uint64_t>(s.modulo.max_stages));
  }
  if (s.modulo.loops_fallback > 0)
    reg.add_count("sched.modulo.loops_fallback",
                  static_cast<std::uint64_t>(s.modulo.loops_fallback));
  if (s.modulo.backtracks > 0)
    reg.add_count("sched.modulo.backtracks",
                  static_cast<std::uint64_t>(s.modulo.backtracks));
  const char* label = set_label(set);
  reg.add_count(engine::MetricsRegistry::intern_name(
                    std::string("trans.ir_insts_before.") + label),
                s.ir_insts_before);
  reg.add_count(engine::MetricsRegistry::intern_name(
                    std::string("trans.ir_insts_after.") + label),
                s.ir_insts_after);
  // Context reuse telemetry: how many compiles landed on warm contexts and
  // the deepest any context's arena ever got.
  reg.add_count("ctx.compiles");
  if (ctx.compiles() > 1) reg.add_count("ctx.warm_compiles");
  reg.record_max("ctx.arena_high_water_bytes",
                 static_cast<std::uint64_t>(ctx.arena_high_water_bytes()));
}

void compile_with_transforms(Function& fn, const TransformSet& set,
                             const MachineModel& machine, const CompileOptions& opts,
                             TransformStats* stats, CompileContext& ctx) {
  ctx.begin_compile();
  TransformStats local;
  TransformStats& s = stats != nullptr ? *stats : local;
  compile_prefix(fn, opts, s, ctx);
  compile_level(fn, set, opts, s, ctx);
  compile_backend(fn, set, machine, opts, s, ctx);
}

void compile_with_transforms(Function& fn, const TransformSet& set,
                             const MachineModel& machine, const CompileOptions& opts,
                             TransformStats* stats) {
  compile_with_transforms(fn, set, machine, opts, stats, CompileContext::local());
}

void compile_at_level(Function& fn, OptLevel level, const MachineModel& machine,
                      const CompileOptions& opts) {
  compile_with_transforms(fn, TransformSet::for_level(level), machine, opts);
}

}  // namespace ilp
