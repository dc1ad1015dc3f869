// Loop interchange: swap a perfect 2-deep nest so the smaller-stride
// subscript varies in the innermost loop (paper §2's "better-shaped loops"
// feeding unrolling).  Mechanically the two loops trade control structure:
//
//   P:  [.., IMOV i,lo, .., BGT i,hi -> E]      P:  [.., <j prologue>, IMOV j,lo,
//   XH: [<j prologue>, IMOV j,lo,                        BGT j,hi -> E]
//        BGT j,hi -> XL]                        XH: [IMOV i,lo, BGT i,hi -> XL]
//   B:  [body.., j+=1, BLE j,hi -> B]     =>    B:  [body.., i+=1, BLE i,hi -> B]
//   XL: [i+=1, BLE i,hi -> XH]                  XL: [j+=1, BLE j,hi -> XH]
//   E:                                          E:
//
// The result is again two canonical loops, so downstream passes (tiling,
// unrolling, scheduling) see the same shape they always do.
#include <cstdlib>

#include "analysis/depdist.hpp"
#include "trans/nest/internal.hpp"
#include "trans/nest/nest.hpp"

namespace ilp {

namespace nest_detail {

void swap_control(Function& fn, const CanonLoop& outer, BlockId inner_head,
                  BlockId inner_tail) {
  // Snapshot the moving pieces before any mutation.
  Block& pre = fn.block(outer.pre);
  const Instruction x_init = pre.insts[outer.init_idx];
  Instruction x_guard = pre.insts.back();

  Block& shared = fn.block(outer.header);
  const std::vector<Instruction> prologue(shared.insts.begin(), shared.insts.end() - 1);
  Instruction y_guard = shared.insts.back();

  Block& tail = fn.block(inner_tail);
  const Instruction y_upd = tail.insts[tail.insts.size() - 2];
  Instruction y_br = tail.insts.back();

  Block& outer_latch = fn.block(outer.latch);
  const Instruction x_upd = outer_latch.insts[0];
  Instruction x_br = outer_latch.insts[1];

  // P: drop the outer init + guard, hoist the inner prologue, and let the
  // inner guard take over zero-trip protection of the whole nest.
  pre.insts.pop_back();
  pre.insts.erase(pre.insts.begin() + static_cast<std::ptrdiff_t>(outer.init_idx));
  pre.insts.insert(pre.insts.end(), prologue.begin(), prologue.end());
  y_guard.target = outer.exit;
  pre.insts.push_back(y_guard);

  // XH becomes the (now inner) outer-variable loop's prologue + guard.
  x_guard.target = outer.latch;
  shared.insts = {x_init, x_guard};

  // The body's back edge now iterates the outer variable.
  tail.insts.pop_back();
  tail.insts.pop_back();
  x_br.target = inner_head;
  tail.insts.push_back(x_upd);
  tail.insts.push_back(x_br);

  // The old outer latch becomes the new outermost back edge.
  y_br.target = outer.header;
  outer_latch.insts = {y_upd, y_br};
}

}  // namespace nest_detail

namespace {

bool should_interchange(const Function& fn, const CanonLoop& outer,
                        const CanonLoop& inner) {
  if (!interchange_legal(fn, outer, inner)) return false;
  // Profitability: swap only when the inner subscript stride dominates —
  // afterwards the small-stride axis runs innermost (spatial locality, and
  // unit-stride recurrences for the modulo scheduler).
  const NestStrides s = nest_strides(fn, outer, inner);
  return s.known && s.inner > s.outer;
}

}  // namespace

int interchange_loops(Function& fn, const NestOptions& /*opts*/) {
  int swapped = 0;
  for (int round = 0; round < 8; ++round) {
    const std::vector<CanonLoop> loops = find_canonical_loops(fn);
    bool changed = false;
    for (const CanonLoop& outer : loops) {
      for (const CanonLoop& inner : loops) {
        if (outer.header != inner.pre) continue;
        if (!should_interchange(fn, outer, inner)) continue;
        nest_detail::swap_control(fn, outer, inner.header, inner.header);
        fn.renumber();
        ++swapped;
        changed = true;
        break;
      }
      if (changed) break;  // block contents moved: re-analyze from scratch
    }
    if (!changed) break;
  }
  return swapped;
}

}  // namespace ilp
