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
/// DifferentialLpSolver returns for the same LP with any backend — or
/// nullopt when the LP is infeasible (u_i - l_j < bound). For a given x_j the
/// least optimal x_i is u_i when c_i < 0 and max(l_i, x_j + bound)
/// otherwise; that choice is nondecreasing in x_j, so the least optimum
/// takes the smallest x_j minimizing the resulting convex piecewise-linear
/// objective, which sits at an endpoint or at the kink x_j = l_i - bound.
std::optional<std::pair<Value, Value>> solvePairLp(const PairVariable& xi,
                                                   const PairVariable& xj,
                                                   Value bound);

/// Solves a differential LP as one cold dual min-cost flow: builds the
/// Eqn. 16 network, runs the backend's solve(), recovers x from the node
/// potentials and verifies it.
///
/// Canonical-optimum guarantee: every feasible solve returns the unique
/// componentwise-least optimal solution. The feasible set of a
/// differential LP with box bounds is a distributive lattice (closed under
/// componentwise min/max), so its optimal face has a least element; a
/// complementary-slackness post-pass over any optimal flow recovers it.
/// This makes solve() a pure function of the LP, independent of the
/// backend and its pivot order: the three backends agree byte for byte,
/// solvePairLp can stand in for uncoupled passes, and a window's sizing
/// result depends only on its inputs (which the ECO window cache keys on).
class DifferentialLpSolver {
 public:
  explicit DifferentialLpSolver(McfBackend backend = McfBackend::kNetworkSimplex)
      : backend_(backend) {}

  DiffLpResult solve(const DifferentialLp& lp) const;

 private:
  McfBackend backend_;
};

}  // namespace ofl::mcf
