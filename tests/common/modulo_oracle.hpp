// Exact optimal-II oracle for small loops (the differential-oracle
// discipline applied to modulo scheduling; motivated by the SMT exact
// software pipelining line of work in PAPERS.md).  Test and bench code:
// modulo_oracle_test and bench_modulo compile it from here.
//
// For each candidate II the oracle decides *exactly* whether a modulo
// schedule exists, by branch-and-bound over operation issue times within the
// window [0, II * max_stages): all-pairs slack-weighted longest paths
// (max-plus Floyd-Warshall) give transitive earliest/latest bounds for every
// unassigned op, and modulo-reservation-table occupancy prunes resource-dead
// branches.  The optimal II is therefore the smallest II in the searched
// range admitting a schedule with at most max_stages stages — the same
// schedule universe ims_schedule() draws from, which is what makes
// "achieved == optimal" a meaningful assertion.
#pragma once

#include "machine/machine.hpp"
#include "sched/modulo/mdg.hpp"
#include "sched/modulo/modulo.hpp"

namespace ilp {

// Loops above this many MDG nodes are declared intractable without searching.
inline constexpr std::size_t kOracleMaxNodes = 12;

struct OracleResult {
  bool tractable = false;
  int optimal_ii = 0;        // 0 = no schedule exists in [min_ii, max_ii]
  long nodes_explored = 0;   // branch-and-bound nodes across all candidate IIs
};

// Searches candidate IIs upward from min_ii through max_ii.  `tractable` is
// false when the loop is too large or the node budget was exhausted before
// the search completed (in which case optimal_ii is a lower-bound claim
// only and tests must not assert against it).
OracleResult oracle_optimal_ii(const ModuloDepGraph& g, const MachineModel& machine,
                               const ModuloOptions& options, int min_ii, int max_ii);

}  // namespace ilp
