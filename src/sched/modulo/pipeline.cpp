// Eligibility analysis, profitability policy, and stage-decomposition code
// generation for the modulo scheduling backend.
//
// Code generation does NOT rename registers.  The pipelined stream —
// prologue rounds, kernel rounds, epilogue rounds — is a *permutation* of
// the original per-iteration instruction stream: round R executes the
// stage-s copy of source iteration R - s, so each iteration's instructions
// appear exactly once, and the IMS constraint t(v) >= t(u) + lat - II*d
// guarantees every dependence (u, iter i) -> (v, iter i+d) lands in a
// not-later round (rounds are i + stage; lat >= 0 gives stage(v) + d >=
// stage(u)), with ties broken correctly by emitting stages in descending
// order within a round and keeping program order within a stage.  Because
// the MDG includes distance-1 register anti/output edges, "no renaming" is
// itself a scheduling constraint — it shows up as RecMII, and the paper's
// Lev2/Lev4 renaming + unrolling is exactly what relaxes it (the classic
// modulo-variable-expansion role).  See DESIGN.md "Modulo scheduling".
#include <algorithm>
#include <optional>
#include <unordered_set>

#include "analysis/cfg.hpp"
#include "analysis/depgraph.hpp"
#include "analysis/dominators.hpp"
#include "analysis/liveness.hpp"
#include "analysis/loops.hpp"
#include "analysis/tripcount.hpp"
#include "sched/modulo/ims.hpp"
#include "sched/modulo/mdg.hpp"
#include "sched/modulo/modulo.hpp"
#include "sched/scheduler.hpp"
#include "support/assert.hpp"

namespace ilp {

const char* scheduler_kind_name(SchedulerKind k) {
  return k == SchedulerKind::Modulo ? "modulo" : "list";
}

std::optional<SchedulerKind> parse_scheduler_kind(const std::string& s) {
  if (s == "list") return SchedulerKind::List;
  if (s == "modulo") return SchedulerKind::Modulo;
  return std::nullopt;
}

namespace {

// Everything known about one candidate loop before deciding to rewrite it.
struct LoopPlan {
  bool eligible = false;
  std::string reject_reason;
  std::optional<CountedLoopInfo> counted;
  std::optional<ModuloDepGraph> graph;
  int res_mii = 0;
  int rec_mii = 0;
  int min_ii = 0;
  int list_makespan = 0;
  std::optional<ModuloSchedule> sched;
};

LoopPlan plan_loop(const Function& fn, const SimpleLoop& loop,
                   const MachineModel& machine, const ModuloOptions& opts) {
  LoopPlan plan;
  if (loop.has_side_exits()) {
    plan.reject_reason = "side exits";
    return plan;
  }
  const Block& body = fn.block(loop.body);
  if (body.insts.size() < 3) {
    plan.reject_reason = "body too small";
    return plan;
  }
  if (body.insts.size() > opts.max_body_insts) {
    plan.reject_reason = "body too large";
    return plan;
  }
  plan.counted = match_counted_loop(fn, loop);
  if (!plan.counted) {
    plan.reject_reason = "not a counted loop";
    return plan;
  }
  if (fn.layout_next(loop.body) == kNoBlock) {
    plan.reject_reason = "no layout exit";
    return plan;
  }
  plan.eligible = true;

  // Steady-state iteration latency under the list backend: the body block's
  // list-scheduled makespan.  This is the bar pipelining must beat.
  const Cfg cfg(fn);
  const Liveness live(cfg);
  const DepGraph g(fn, loop.body, machine, live, loop.preheader);
  plan.list_makespan = list_schedule(g, fn, loop.body, machine).makespan;

  plan.graph.emplace(fn, loop, machine);
  plan.res_mii = plan.graph->res_mii(machine);
  plan.rec_mii = plan.graph->rec_mii();
  plan.min_ii = std::max(plan.res_mii, plan.rec_mii);
  plan.sched = ims_schedule(*plan.graph, machine, opts, plan.min_ii,
                            plan.min_ii + opts.max_ii_over_min);
  return plan;
}

// Profitable = real overlap that beats the list-scheduled body.  (II <
// makespan also discharges the acceptance bound "achieved II <= list
// steady-state latency" by construction; S >= 2 rejects degenerate
// single-stage "pipelines" that merely reorder the body.)
bool profitable(const LoopPlan& plan) {
  return plan.sched && plan.sched->num_stages >= 2 &&
         plan.sched->ii < plan.list_makespan;
}

// Rewrites `loop` into guard + prologue + kernel + epilogue.  Returns the
// kernel block id.  The original body stays intact behind a trip-count guard
// (T < S), which is the fallback for trips too short to fill the pipeline.
BlockId emit_pipeline(Function& fn, const SimpleLoop& loop,
                      const CountedLoopInfo& counted, const ModuloSchedule& sched) {
  const Block& body0 = fn.block(loop.body);
  const int stages = sched.num_stages;
  const BlockId exit_id = fn.layout_next(loop.body);
  ILP_ASSERT(exit_id != kNoBlock, "eligibility checked layout exit");

  // Stage-s instruction copies in original program order (MDG node index ==
  // body position; the back branch is excluded and replaced by the kernel's
  // own countdown).
  std::vector<std::vector<Instruction>> stage_insts(static_cast<std::size_t>(stages));
  {
    std::size_t node = 0;
    for (std::size_t i = 0; i < body0.insts.size(); ++i) {
      if (i == loop.back_branch) continue;
      stage_insts[static_cast<std::size_t>(sched.stage[node])].push_back(body0.insts[i]);
      ++node;
    }
    ILP_ASSERT(node == sched.stage.size(), "schedule covers the body");
  }

  // ---- Trip count, kernel countdown (T - (S-1) rounds), and the T < S
  // guard jumping to the preserved original body. ----
  const Reg t = emit_trip_count(fn, loop.preheader, counted);
  const Reg kc = fn.new_int_reg();
  {
    Block& pre = fn.block(loop.preheader);
    const std::size_t pos =
        pre.has_terminator() ? pre.insts.size() - 1 : pre.insts.size();
    std::vector<Instruction> code;
    code.push_back(make_binary_imm(Opcode::ISUB, kc, t, stages - 1));
    code.push_back(make_branch_imm(Opcode::BLT, t, stages, loop.body));
    pre.insts.insert(pre.insts.begin() + static_cast<std::ptrdiff_t>(pos), code.begin(),
                     code.end());
  }

  const std::string base = fn.block(loop.body).name;
  const BlockId pro = fn.insert_block_after(loop.preheader, base + ".pro");
  const BlockId kernel = fn.insert_block_after(pro, base + ".mod");
  const BlockId epi = fn.insert_block_after(kernel, base + ".epi");

  {
    Block& pre = fn.block(loop.preheader);
    if (!pre.insts.empty() && pre.insts.back().op == Opcode::JUMP &&
        pre.insts.back().target == loop.body)
      pre.insts.back().target = pro;
  }

  // Prologue round tau (1..S-1) runs stage s of iteration tau - s, i.e.
  // stages tau-1 down to 0; descending order keeps same-round dependences
  // (stage(v) = stage(u) - d ties) correct.
  {
    Block& p = fn.block(pro);
    for (int tau = 1; tau <= stages - 1; ++tau) {
      for (int s = tau - 1; s >= 0; --s) {
        p.insts.insert(p.insts.end(), stage_insts[static_cast<std::size_t>(s)].begin(),
                       stage_insts[static_cast<std::size_t>(s)].end());
      }
    }
  }

  // Kernel round: stages S-1 down to 0, then the countdown.
  {
    Block& k = fn.block(kernel);
    for (int s = stages - 1; s >= 0; --s) {
      k.insts.insert(k.insts.end(), stage_insts[static_cast<std::size_t>(s)].begin(),
                     stage_insts[static_cast<std::size_t>(s)].end());
    }
    k.insts.push_back(make_binary_imm(Opcode::ISUB, kc, kc, 1));
    k.insts.push_back(make_branch_imm(Opcode::BGT, kc, 0, kernel));
  }

  // Epilogue round u (1..S-1) drains stages S-1 down to u.
  {
    Block& e = fn.block(epi);
    for (int u = 1; u <= stages - 1; ++u) {
      for (int s = stages - 1; s >= u; --s) {
        e.insts.insert(e.insts.end(), stage_insts[static_cast<std::size_t>(s)].begin(),
                       stage_insts[static_cast<std::size_t>(s)].end());
      }
    }
    e.insts.push_back(make_jump(exit_id));
  }
  fn.renumber();
  return kernel;
}

}  // namespace

ModuloStats modulo_pipeline_function(Function& fn, const MachineModel& machine,
                                     const ModuloOptions& options) {
  ModuloStats stats;
  // Visited bodies: pipelined loops' fallback copies, rejected loops, and
  // freshly emitted kernels (which are themselves simple counted loops and
  // must never be re-pipelined).
  std::unordered_set<BlockId> done;
  bool progress = true;
  while (progress) {
    progress = false;
    const Cfg cfg(fn);
    const Dominators dom(cfg);
    for (const SimpleLoop& loop : find_simple_loops(cfg, dom)) {
      if (done.count(loop.body)) continue;
      ++stats.loops_seen;
      const LoopPlan plan = plan_loop(fn, loop, machine, options);
      if (plan.sched) stats.backtracks += plan.sched->backtracks;
      if (!plan.eligible) {
        done.insert(loop.body);
        continue;
      }
      if (!profitable(plan)) {
        done.insert(loop.body);
        ++stats.loops_fallback;
        continue;
      }
      const BlockId kernel = emit_pipeline(fn, loop, *plan.counted, *plan.sched);
      done.insert(loop.body);
      done.insert(kernel);
      ++stats.loops_pipelined;
      stats.min_ii_sum += plan.min_ii;
      stats.achieved_ii_sum += plan.sched->ii;
      stats.max_stages = std::max(stats.max_stages, plan.sched->num_stages);
      progress = true;
      break;  // blocks changed; re-derive the loop list
    }
  }
  return stats;
}

std::vector<ModuloLoopReport> analyze_modulo_loops(const Function& fn,
                                                   const MachineModel& machine,
                                                   const ModuloOptions& options) {
  std::vector<ModuloLoopReport> reports;
  const Cfg cfg(fn);
  const Dominators dom(cfg);
  for (const SimpleLoop& loop : find_simple_loops(cfg, dom)) {
    const LoopPlan plan = plan_loop(fn, loop, machine, options);
    ModuloLoopReport r;
    r.body = loop.body;
    r.eligible = plan.eligible;
    r.reject_reason = plan.reject_reason;
    if (plan.graph) r.body_insts = static_cast<int>(plan.graph->num_nodes());
    r.res_mii = plan.res_mii;
    r.rec_mii = plan.rec_mii;
    r.min_ii = plan.min_ii;
    r.achieved_ii = plan.sched ? plan.sched->ii : 0;
    r.stages = plan.sched ? plan.sched->num_stages : 0;
    r.backtracks = plan.sched ? plan.sched->backtracks : 0;
    r.list_makespan = plan.list_makespan;
    reports.push_back(std::move(r));
  }
  return reports;
}

}  // namespace ilp
