#include "common/modulo_oracle.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <vector>

namespace ilp {
namespace {

constexpr long kNodeBudget = 500'000;
constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

// All-pairs longest path under weights (latency - II*distance).  Returns
// false when some dist[u][u] > 0, i.e. a positive-slack cycle makes this II
// infeasible regardless of resources.
bool slack_closure(const ModuloDepGraph& g, int ii, std::vector<int>& dist) {
  const std::size_t n = g.num_nodes();
  dist.assign(n * n, kNegInf);
  for (std::size_t u = 0; u < n; ++u) dist[u * n + u] = 0;
  for (const ModuloDepEdge& e : g.edges()) {
    const int w = e.latency - ii * e.distance;
    int& slot = dist[e.from * n + e.to];
    slot = std::max(slot, w);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t u = 0; u < n; ++u) {
      const int duk = dist[u * n + k];
      if (duk == kNegInf) continue;
      for (std::size_t v = 0; v < n; ++v) {
        const int dkv = dist[k * n + v];
        if (dkv == kNegInf) continue;
        int& slot = dist[u * n + v];
        slot = std::max(slot, duk + dkv);
      }
    }
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (dist[u * n + u] > 0) return false;
  }
  return true;
}

struct Search {
  const ModuloDepGraph* g = nullptr;
  std::size_t n = 0;
  int ii = 0;
  int window = 0;
  int capacity = 0;
  const std::vector<int>* dist = nullptr;
  std::vector<std::size_t> order;  // most-constrained-first assignment order
  std::vector<int> time;           // -1 = unassigned
  std::vector<int> row_count;
  long* explored = nullptr;
  bool budget_hit = false;

  [[nodiscard]] int d(std::size_t u, std::size_t v) const { return (*dist)[u * n + v]; }

  bool dfs(std::size_t depth) {
    if (depth == n) return true;
    if (++*explored > kNodeBudget) {
      budget_hit = true;
      return false;
    }
    const std::size_t u = order[depth];
    int est = 0;
    int lst = window - 1;
    for (std::size_t j = 0; j < depth; ++j) {
      const std::size_t v = order[j];
      if (d(v, u) != kNegInf) est = std::max(est, time[v] + d(v, u));
      if (d(u, v) != kNegInf) lst = std::min(lst, time[v] - d(u, v));
    }
    if (est > lst) return false;
    for (int t = est; t <= lst; ++t) {
      if (row_count[t % ii] >= capacity) continue;
      time[u] = t;
      ++row_count[t % ii];
      if (dfs(depth + 1)) return true;
      --row_count[t % ii];
      time[u] = -1;
      if (budget_hit) return false;
    }
    return false;
  }
};

}  // namespace

OracleResult oracle_optimal_ii(const ModuloDepGraph& g, const MachineModel& machine,
                               const ModuloOptions& options, int min_ii, int max_ii) {
  OracleResult result;
  const std::size_t n = g.num_nodes();
  if (n == 0 || n > kOracleMaxNodes) return result;  // intractable by size

  std::vector<int> dist;
  for (int ii = std::max(1, min_ii); ii <= max_ii; ++ii) {
    if (!slack_closure(g, ii, dist)) continue;

    Search s;
    s.g = &g;
    s.n = n;
    s.ii = ii;
    s.window = ii * options.max_stages;
    s.capacity = std::max(1, machine.issue_width);
    s.dist = &dist;
    s.order.resize(n);
    std::iota(s.order.begin(), s.order.end(), std::size_t{0});
    // Assign the most-constrained ops first: descending criticality measured
    // as the longest slack path through the op.
    std::vector<long> crit(n, 0);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        if (u != v && dist[u * n + v] != kNegInf) crit[u] += dist[u * n + v];
      }
    }
    std::sort(s.order.begin(), s.order.end(), [&](std::size_t a, std::size_t b) {
      if (crit[a] != crit[b]) return crit[a] > crit[b];
      return a < b;
    });
    s.time.assign(n, -1);
    s.row_count.assign(ii, 0);
    s.explored = &result.nodes_explored;

    const bool found = s.dfs(0);
    if (s.budget_hit) return result;  // tractable stays false
    if (found) {
      result.tractable = true;
      result.optimal_ii = ii;
      return result;
    }
  }
  result.tractable = true;  // exhaustively proved nothing fits in range
  return result;
}

}  // namespace ilp
