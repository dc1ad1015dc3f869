#include "sched/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <utility>

#include "engine/metrics.hpp"
#include "support/assert.hpp"

namespace ilp {

namespace {

// Ready nodes are held in max-heaps keyed by (height, lowest-index-first),
// packed into one uint64 so the heap compares single integers: greater
// height wins, ties go to the smaller original index — exactly the
// scan-and-erase selection rule of the reference scheduler
// (tests/common/reference_sched.cpp), which tests/sched/scheduler_diff_test.cpp
// holds this implementation to.
using ReadyHeap = std::priority_queue<std::uint64_t>;

std::uint64_t pack_ready(int height, std::uint32_t idx) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(height)) << 32) |
         (0xffffffffu - idx);
}
std::uint32_t unpack_index(std::uint64_t key) {
  return 0xffffffffu - static_cast<std::uint32_t>(key);
}

// Ready-but-not-yet-issuable nodes, min-heap on their earliest issue cycle.
using PendingHeap =
    std::priority_queue<std::pair<int, std::uint32_t>,
                        std::vector<std::pair<int, std::uint32_t>>,
                        std::greater<std::pair<int, std::uint32_t>>>;

}  // namespace

BlockSchedule list_schedule(const DepGraph& g, const Function& fn, BlockId block,
                            const MachineModel& machine, Arena* scratch) {
  const Block& blk = fn.block(block);
  const std::size_t n = g.num_nodes();
  BlockSchedule sched;
  sched.issue_time.assign(n, 0);
  sched.order.reserve(n);

  // Working arrays: bump-allocated from the compile context's arena when one
  // is supplied (rewound on return by the scope), heap otherwise.
  std::optional<Arena::Scope> scope;
  std::vector<int> heap_scratch;
  int* unscheduled_preds = nullptr;
  int* earliest = nullptr;
  if (scratch != nullptr && n > 0) {
    scope.emplace(*scratch);
    unscheduled_preds = scratch->alloc_array<int>(n);
    earliest = scratch->alloc_array<int>(n);
  } else {
    heap_scratch.assign(2 * n, 0);
    unscheduled_preds = heap_scratch.data();
    earliest = heap_scratch.data() + n;
  }
  for (std::size_t i = 0; i < n; ++i) {
    unscheduled_preds[i] = static_cast<int>(g.preds(i).size());
    earliest[i] = 0;
  }

  // Two ready heaps keep the branch-slot restriction O(1): control
  // instructions compete from their own heap only while a branch slot is
  // free.  Nodes whose earliest cycle is still in the future wait in
  // `pending`; once ready, a node's earliest is final (all producers have
  // been scheduled), so it moves between the structures at most once.
  ReadyHeap avail;
  ReadyHeap avail_ctrl;
  PendingHeap pending;
  int cycle = 0;
  const auto push_ready = [&](std::uint32_t i) {
    if (earliest[i] > cycle) {
      pending.push({earliest[i], i});
    } else {
      (blk.insts[i].is_control() ? avail_ctrl : avail).push(pack_ready(g.height()[i], i));
    }
  };
  for (std::uint32_t i = 0; i < n; ++i)
    if (unscheduled_preds[i] == 0) push_ready(i);

  std::size_t remaining = n;
  while (remaining > 0) {
    while (!pending.empty() && pending.top().first <= cycle) {
      const std::uint32_t i = pending.top().second;
      pending.pop();
      (blk.insts[i].is_control() ? avail_ctrl : avail).push(pack_ready(g.height()[i], i));
    }

    int slots = machine.issue_width;
    int branch_slots = machine.branch_slots;
    while (slots > 0) {
      // Choose the ready node with the greatest height (critical path first);
      // tie-break on original position for stability.
      ReadyHeap* heap = nullptr;
      if (!avail.empty()) heap = &avail;
      if (branch_slots > 0 && !avail_ctrl.empty() &&
          (heap == nullptr || avail_ctrl.top() > avail.top()))
        heap = &avail_ctrl;
      if (heap == nullptr) break;
      const std::uint32_t node = unpack_index(heap->top());
      heap->pop();

      sched.issue_time[node] = cycle;
      sched.order.push_back(node);
      --slots;
      if (blk.insts[node].is_control()) --branch_slots;
      --remaining;

      for (std::uint32_t ei : g.out_edges(node)) {
        const DepEdge& e = g.edge(ei);
        earliest[e.to] = std::max(earliest[e.to], cycle + e.latency);
        if (--unscheduled_preds[e.to] == 0) push_ready(e.to);
      }
    }
    if (remaining == 0) break;
    ++cycle;
    // Nothing issuable until the next pending node matures: skip the dead
    // cycles (issue times are unaffected — slots reset every cycle).
    if (avail.empty() && avail_ctrl.empty() && !pending.empty() &&
        pending.top().first > cycle)
      cycle = pending.top().first;
  }
  sched.makespan = n == 0 ? 0 : sched.issue_time[sched.order.back()] + 1;
  return sched;
}

namespace {

void apply_schedule(Function& fn, BlockId block, const BlockSchedule& sched) {
  Block& blk = fn.block(block);
  std::vector<Instruction> out;
  out.reserve(blk.insts.size());
  for (std::uint32_t idx : sched.order) out.push_back(blk.insts[idx]);
  blk.insts = std::move(out);
}

}  // namespace

ScheduleAnalyses::ScheduleAnalyses(const Function& fn, CompileContext* ctx)
    : cfg(fn, ctx), live(cfg, ctx), preheaders(fn.num_blocks(), kNoBlock),
      scratch(ctx != nullptr ? &ctx->arena() : nullptr) {
  // Preheader of each simple-loop body (for loop-relative disambiguation).
  const Dominators dom(cfg);
  for (const SimpleLoop& loop : find_simple_loops(cfg, dom))
    preheaders[loop.body] = loop.preheader;
}

void schedule_block(Function& fn, BlockId block, const MachineModel& machine,
                    const ScheduleAnalyses& analyses) {
  const DepGraph g(fn, block, machine, analyses.live, analyses.preheaders[block]);
  apply_schedule(fn, block, list_schedule(g, fn, block, machine, analyses.scratch));
}

void schedule_block(Function& fn, BlockId block, const MachineModel& machine) {
  const ScheduleAnalyses analyses(fn);
  schedule_block(fn, block, machine, analyses);
}

void schedule_function(Function& fn, const MachineModel& machine,
                       CompileContext& ctx) {
  const ScheduleAnalyses analyses(fn, &ctx);
  std::size_t scheduled_blocks = 0;
  std::size_t scheduled_insts = 0;
  for (const Block& b : fn.blocks()) {
    if (b.insts.size() < 2) continue;
    schedule_block(fn, b.id, machine, analyses);
    ++scheduled_blocks;
    scheduled_insts += b.insts.size();
  }
  engine::MetricsRegistry::global().add_count("sched.blocks", scheduled_blocks);
  engine::MetricsRegistry::global().add_count("sched.insts", scheduled_insts);
}

void schedule_function(Function& fn, const MachineModel& machine) {
  schedule_function(fn, machine, CompileContext::local());
}

}  // namespace ilp
