// Physical register assignment with spilling (Chaitin-style graph coloring).
//
// The paper's processor has an unlimited register supply and its allocator
// only *minimizes* usage; this extension makes the supply finite so the cost
// of the ILP transformations' register pressure (Section 3.2, Figure 11) can
// be measured: virtual registers are colored onto k physical registers per
// class, and uncolorable ranges are spilled to a dedicated spill area with
// store-after-def / load-before-use code.
//
// Algorithm: build the interference graph from per-instruction liveness;
// simplify nodes of degree < k; when blocked, choose a spill candidate by
// lowest (dynamic-use-estimate / degree); optimistically color; actually
// spill whatever failed to color; repeat (spill temporaries have tiny live
// ranges, so this converges in a couple of rounds).
//
// Test and bench code: assign_test, the differential fuzz test and
// bench_regpressure compile it from here.
#pragma once

#include "ir/function.hpp"

namespace ilp {

struct AssignOptions {
  int int_regs = 32;
  int fp_regs = 32;
  // Base address of the compiler-managed spill area (must not collide with
  // the function's arrays).
  std::int64_t spill_base = 0x7f000000;
};

struct AssignResult {
  bool ok = false;          // false if k is too small even after spilling
  int spilled_int = 0;      // virtual registers spilled, per class
  int spilled_fp = 0;
  int spill_slots = 0;      // stack slots used
  int rounds = 0;           // coloring rounds
};

// Rewrites `fn` in place onto physical registers 0..k-1 per class, inserting
// spill code as needed.  The function's live-out list is rewritten to the
// corresponding physical registers (order preserved).
AssignResult assign_registers(Function& fn, const AssignOptions& opts = {});

}  // namespace ilp
