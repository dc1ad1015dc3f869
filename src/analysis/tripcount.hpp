// Runtime trip-count materialization for counted loops, shared by
// preconditioned unrolling (trans/unroll) and the modulo scheduling backend
// (sched/modulo).  Lives in the analysis library so the scheduling backend
// can emit trip counts without a trans <-> sched dependency cycle.
#pragma once

#include "analysis/loops.hpp"
#include "ir/function.hpp"

namespace ilp {

// Emits, just before `pre`'s terminator, code computing the loop's remaining
// trip count T = max(1, iterations until `info`'s comparison fails), using
// the do-while convention (the body always runs at least once).  Returns the
// register holding T.
Reg emit_trip_count(Function& fn, BlockId pre, const CountedLoopInfo& info);

}  // namespace ilp
