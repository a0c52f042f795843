// Differential-constraint LP solved via dual min-cost flow
// (paper Section 3.3.3, Eqns. 14-16).
//
//   min  sum_i c_i x_i
//   s.t. x_i - x_j >= b_ij   for (i, j) in E
//        l_i <= x_i <= u_i
//        x integral
//
// Transform (Eqn. 16): add y_0 with c'_0 = -sum c_i; every constraint and
// every bound becomes an arc of a min-cost flow whose node supplies are c'
// and arc costs are -b'. Optimal node potentials give y, and
// x_i = y_i - y_0 (Eqn. 16a). Integrality is free: all data are integers.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "mcf/graph.hpp"
#include "mcf/network_simplex.hpp"

namespace ofl::mcf {

struct DiffConstraint {
  int i;    // x_i - x_j >= bound
  int j;
  Value bound;
};

class DifferentialLp {
 public:
  /// Adds variable with objective coefficient `cost` and box [lo, hi].
  int addVariable(Value cost, Value lo, Value hi);

  /// Adds x_i - x_j >= bound.
  void addConstraint(int i, int j, Value bound);

  int numVariables() const { return static_cast<int>(costs_.size()); }
  const std::vector<DiffConstraint>& constraints() const {
    return constraints_;
  }
  Value cost(int i) const { return costs_[static_cast<std::size_t>(i)]; }
  Value lower(int i) const { return lowers_[static_cast<std::size_t>(i)]; }
  Value upper(int i) const { return uppers_[static_cast<std::size_t>(i)]; }

  /// True when `x` satisfies every constraint and bound.
  bool isFeasible(const std::vector<Value>& x) const;

  Value objective(const std::vector<Value>& x) const;

 private:
  std::vector<Value> costs_;
  std::vector<Value> lowers_;
  std::vector<Value> uppers_;
  std::vector<DiffConstraint> constraints_;
};

struct DiffLpResult {
  bool feasible = false;
  std::vector<Value> x;
  Value objective = 0;
  // Solve provenance, for FillSizer::Stats / prof wiring. Both are false
  // on a plain cold solve.
  bool usedWarmStart = false;  // simplex restarted from the retained basis
  bool usedEarlyExit = false;  // solve skipped, memoized result returned
};

enum class McfBackend {
  kNetworkSimplex,
  kSuccessiveShortestPath,
  kCycleCanceling,
};

/// One variable of a two-variable differential LP: objective coefficient
/// and box [lo, hi] (lo <= hi).
struct PairVariable {
  Value cost;
  Value lo;
  Value hi;
};

/// Closed-form solve of the two-variable differential LP
///
///   min  c_i x_i + c_j x_j   s.t.  x_i - x_j >= bound,
///        x_i in [l_i, u_i],  x_j in [l_j, u_j].
///
/// Returns (x_i, x_j), the componentwise-least optimum — exactly what
/// DualMcfContext returns for the same LP with any backend — or nullopt
/// when the LP is infeasible (u_i - l_j < bound). For a given x_j the
/// least optimal x_i is u_i when c_i < 0 and max(l_i, x_j + bound)
/// otherwise; that choice is nondecreasing in x_j, so the least optimum
/// takes the smallest x_j minimizing the resulting convex piecewise-linear
/// objective, which sits at an endpoint or at the kink x_j = l_i - bound.
std::optional<std::pair<Value, Value>> solvePairLp(const PairVariable& xi,
                                                   const PairVariable& xj,
                                                   Value bound);

class DifferentialLpSolver {
 public:
  explicit DifferentialLpSolver(McfBackend backend = McfBackend::kNetworkSimplex)
      : backend_(backend) {}

  DiffLpResult solve(const DifferentialLp& lp) const;

 private:
  McfBackend backend_;
};

/// Reusable solve context for sequences of differential LPs.
///
/// The sizer solves thousands of per-window LPs whose topology (variable
/// count + constraint (i,j) list) repeats across H/V rounds; this context
/// caches the dual-flow Graph and the simplex workspace so a repeat
/// topology only rewrites supplies, costs, and capacities in place instead
/// of rebuilding the network. The in-place update feeds the solver exactly
/// the graph a fresh build would, so results stay byte-identical to
/// DifferentialLpSolver — reuse changes allocation, never arithmetic.
///
/// Canonical-optimum guarantee: every feasible solve returns the unique
/// componentwise-least optimal solution. The feasible set of a
/// differential LP with box bounds is a distributive lattice (closed under
/// componentwise min/max), so its optimal face has a least element; a
/// complementary-slackness post-pass over any optimal flow recovers it.
/// This makes solve() a pure function of the LP — independent of backend,
/// warm/cold start, and any state this context carries — which is what
/// lets the context take both shortcuts below unconditionally:
///
/// Warm start: the network simplex restarts from the previous optimal
/// basis (NetworkSimplex::resolve). Thanks to canonicalization it returns
/// exactly the cold-start answer, only faster. A fresh context has no
/// basis yet, so its first solve is a cold one.
///
/// Early exit: the context memoizes the last solved LP + result on a
/// matching topology. A repeat solve is skipped when all bounds and
/// constraint offsets are unchanged and every cost change sits on a fixed
/// variable (u_v == l_v), which cannot move the optimal face — the exact
/// case of the sensitivity bound sum_v |Δc_v|·(u_v−l_v) = 0.
class DualMcfContext {
 public:
  explicit DualMcfContext(McfBackend backend = McfBackend::kNetworkSimplex)
      : backend_(backend) {}

  DiffLpResult solve(const DifferentialLp& lp);

 private:
  bool topologyMatches(const DifferentialLp& lp) const;
  bool tryEarlyExit(const DifferentialLp& lp, DiffLpResult& result) const;
  void rememberSolve(const DifferentialLp& lp, const DiffLpResult& result);
  void canonicalizeOptimum(const DifferentialLp& lp, const FlowResult& flow,
                           DiffLpResult& result);

  McfBackend backend_;
  Graph graph_;
  NetworkSimplex simplex_;
  std::vector<std::pair<int, int>> arcPairs_;  // cached constraint (i, j)
  int numVars_ = -1;

  // canonicalizeOptimum scratch (worklist relaxation), reused across
  // solves so the post-pass is allocation-free on the hot path.
  std::vector<int> canonTo_;
  std::vector<Value> canonW_;
  std::vector<int> canonHead_;  // per node, first outgoing edge (-1 = none)
  std::vector<int> canonNext_;  // per edge, next edge of the same node
  std::vector<Value> canonX_;
  std::vector<int> canonQueue_;
  std::vector<char> canonQueued_;

  // Early-exit memo: data of the last LP actually solved on the cached
  // topology, plus its (canonical) result.
  bool haveMemo_ = false;
  std::vector<Value> memoCosts_;
  std::vector<Value> memoLowers_;
  std::vector<Value> memoUppers_;
  std::vector<Value> memoBounds_;  // constraint offsets, in order
  DiffLpResult memoResult_;
};

}  // namespace ofl::mcf
