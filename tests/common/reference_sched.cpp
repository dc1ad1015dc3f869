#include "common/reference_sched.hpp"

#include <algorithm>
#include <unordered_map>

#include "analysis/addresses.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dominators.hpp"
#include "analysis/loops.hpp"
#include "support/assert.hpp"

// This file intentionally preserves the original quadratic implementations;
// see reference_sched.hpp.  Keep it in lockstep with the *semantics* (not the
// data structures) of analysis/depgraph.cpp and sched/scheduler.cpp.

namespace ilp {

void RefDepGraph::add_edge(std::uint32_t from, std::uint32_t to, int latency,
                           DepKind kind) {
  ILP_ASSERT(from < to, "dependence edges must follow program order");
  // Collapse duplicates, keeping the max latency.
  for (std::uint32_t ei : out_edges_[from]) {
    if (edges_[ei].to == to) {
      edges_[ei].latency = std::max(edges_[ei].latency, latency);
      return;
    }
  }
  const auto idx = static_cast<std::uint32_t>(edges_.size());
  edges_.push_back(DepEdge{from, to, latency, kind});
  succs_[from].push_back(to);
  preds_[to].push_back(from);
  out_edges_[from].push_back(idx);
  in_edges_[to].push_back(idx);
}

RefDepGraph::RefDepGraph(const Function& fn, BlockId block, const MachineModel& machine,
                         const Liveness& liveness, BlockId preheader) {
  const Block& blk = fn.block(block);
  n_ = blk.insts.size();
  preds_.resize(n_);
  succs_.resize(n_);
  in_edges_.resize(n_);
  out_edges_.resize(n_);

  // ---- Register dependences: last def and uses-since-last-def per register.
  std::unordered_map<Reg, std::uint32_t, RegHash> last_def;
  std::unordered_map<Reg, std::vector<std::uint32_t>, RegHash> uses_since_def;

  for (std::uint32_t i = 0; i < n_; ++i) {
    const Instruction& in = blk.insts[i];
    for (const Reg& u : in.uses()) {
      const auto d = last_def.find(u);
      if (d != last_def.end())
        add_edge(d->second, i, machine.latency(blk.insts[d->second].op), DepKind::Flow);
      uses_since_def[u].push_back(i);
    }
    if (in.has_dest()) {
      const auto d = last_def.find(in.dst);
      if (d != last_def.end()) add_edge(d->second, i, 0, DepKind::Output);
      for (std::uint32_t u : uses_since_def[in.dst])
        if (u != i) add_edge(u, i, 0, DepKind::Anti);
      last_def[in.dst] = i;
      uses_since_def[in.dst].clear();
    }
  }

  // ---- Memory dependences: the all-pairs scan over memory operations.
  const BlockAddresses addrs(fn, block, preheader);
  std::vector<std::uint32_t> mem_ops;
  for (std::uint32_t i = 0; i < n_; ++i)
    if (blk.insts[i].is_memory()) mem_ops.push_back(i);
  for (std::size_t a = 0; a < mem_ops.size(); ++a) {
    for (std::size_t b = a + 1; b < mem_ops.size(); ++b) {
      const std::uint32_t i = mem_ops[a];
      const std::uint32_t j = mem_ops[b];
      const Instruction& x = blk.insts[i];
      const Instruction& y = blk.insts[j];
      if (x.is_load() && y.is_load()) continue;
      if (!may_alias(x, y, addrs.relation(i, j))) continue;
      if (x.is_store() && y.is_load())
        add_edge(i, j, machine.latency(x.op), DepKind::MemFlow);
      else if (x.is_load() && y.is_store())
        add_edge(i, j, 0, DepKind::MemAnti);
      else
        add_edge(i, j, 0, DepKind::MemOut);
    }
  }

  // ---- Control (superblock-discipline) edges: full scan per branch.
  std::vector<std::uint32_t> branches;
  for (std::uint32_t i = 0; i < n_; ++i)
    if (blk.insts[i].is_control()) branches.push_back(i);

  for (std::size_t bi = 0; bi < branches.size(); ++bi) {
    const std::uint32_t br = branches[bi];
    if (bi + 1 < branches.size()) add_edge(br, branches[bi + 1], 0, DepKind::Control);

    const Instruction& brin = blk.insts[br];
    const bool is_terminator = (br + 1 == n_) || brin.op == Opcode::JUMP ||
                               brin.op == Opcode::RET;
    BitVector target_live;
    if (brin.is_branch() || brin.op == Opcode::JUMP)
      target_live = liveness.live_in(brin.target);

    for (std::uint32_t i = 0; i < n_; ++i) {
      if (i == br || blk.insts[i].is_control()) continue;
      const Instruction& in = blk.insts[i];
      const bool writes_live_at_target =
          in.has_dest() && target_live.size() > 0 && target_live.test(RegKey::key(in.dst));
      if (i < br) {
        if (in.is_store() || writes_live_at_target) add_edge(i, br, 0, DepKind::Control);
        if (is_terminator) add_edge(i, br, 0, DepKind::Control);
      } else {
        if (in.is_store() || writes_live_at_target) add_edge(br, i, 0, DepKind::Control);
      }
    }
  }

  // ---- Critical-path heights (longest latency path to any sink).
  height_.assign(n_, 0);
  for (std::size_t i = n_; i-- > 0;) {
    int h = 0;
    for (std::uint32_t ei : out_edges_[i])
      h = std::max(h, edges_[ei].latency + height_[edges_[ei].to]);
    height_[i] = h;
  }
}

BlockSchedule reference_list_schedule(const RefDepGraph& g, const Function& fn,
                                      BlockId block, const MachineModel& machine) {
  const Block& blk = fn.block(block);
  const std::size_t n = g.num_nodes();
  BlockSchedule sched;
  sched.issue_time.assign(n, 0);
  sched.order.reserve(n);

  std::vector<int> unscheduled_preds(n, 0);
  std::vector<int> earliest(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    unscheduled_preds[i] = static_cast<int>(g.preds(i).size());

  std::vector<std::uint32_t> ready;
  for (std::uint32_t i = 0; i < n; ++i)
    if (unscheduled_preds[i] == 0) ready.push_back(i);

  std::size_t remaining = n;
  int cycle = 0;
  while (remaining > 0) {
    int slots = machine.issue_width;
    int branch_slots = machine.branch_slots;
    bool placed_any = true;
    while (placed_any && slots > 0) {
      placed_any = false;
      // Greatest height first; tie-break on original position.
      std::int64_t best = -1;
      for (std::size_t k = 0; k < ready.size(); ++k) {
        const std::uint32_t cand = ready[k];
        if (earliest[cand] > cycle) continue;
        if (blk.insts[cand].is_control() && branch_slots == 0) continue;
        if (best < 0 || g.height()[cand] > g.height()[ready[static_cast<std::size_t>(best)]] ||
            (g.height()[cand] == g.height()[ready[static_cast<std::size_t>(best)]] &&
             cand < ready[static_cast<std::size_t>(best)]))
          best = static_cast<std::int64_t>(k);
      }
      if (best < 0) break;
      const std::uint32_t node = ready[static_cast<std::size_t>(best)];
      ready.erase(ready.begin() + best);

      sched.issue_time[node] = cycle;
      sched.order.push_back(node);
      --slots;
      if (blk.insts[node].is_control()) --branch_slots;
      --remaining;
      placed_any = true;

      for (std::uint32_t ei : g.out_edges(node)) {
        const DepEdge& e = g.edge(ei);
        earliest[e.to] = std::max(earliest[e.to], cycle + e.latency);
        if (--unscheduled_preds[e.to] == 0) ready.push_back(e.to);
      }
    }
    ++cycle;
  }
  sched.makespan = n == 0 ? 0 : sched.issue_time[sched.order.back()] + 1;
  return sched;
}

void reference_schedule_function(Function& fn, const MachineModel& machine) {
  const Cfg cfg(fn);
  const Liveness live(cfg);
  std::vector<BlockId> pre(fn.num_blocks(), kNoBlock);
  const Dominators dom(cfg);
  for (const SimpleLoop& loop : find_simple_loops(cfg, dom)) pre[loop.body] = loop.preheader;
  for (const Block& b : fn.blocks()) {
    if (b.insts.size() < 2) continue;
    const RefDepGraph g(fn, b.id, machine, live, pre[b.id]);
    BlockSchedule sched = reference_list_schedule(g, fn, b.id, machine);
    Block& blk = fn.block(b.id);
    std::vector<Instruction> out;
    out.reserve(blk.insts.size());
    for (std::uint32_t idx : sched.order) out.push_back(blk.insts[idx]);
    blk.insts = std::move(out);
  }
}

}  // namespace ilp
