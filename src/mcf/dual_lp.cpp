#include "mcf/dual_lp.hpp"

#include <algorithm>
#include <cassert>

#include "common/prof.hpp"
#include "mcf/cycle_canceling.hpp"
#include "mcf/network_simplex.hpp"
#include "mcf/ssp.hpp"

namespace ofl::mcf {

int DifferentialLp::addVariable(Value cost, Value lo, Value hi) {
  assert(lo <= hi);
  costs_.push_back(cost);
  lowers_.push_back(lo);
  uppers_.push_back(hi);
  return numVariables() - 1;
}

void DifferentialLp::addConstraint(int i, int j, Value bound) {
  assert(i != j && i >= 0 && j >= 0);
  assert(i < numVariables() && j < numVariables());
  constraints_.push_back({i, j, bound});
}

bool DifferentialLp::isFeasible(const std::vector<Value>& x) const {
  if (x.size() != costs_.size()) return false;
  for (int v = 0; v < numVariables(); ++v) {
    const Value xv = x[static_cast<std::size_t>(v)];
    if (xv < lower(v) || xv > upper(v)) return false;
  }
  for (const DiffConstraint& c : constraints_) {
    if (x[static_cast<std::size_t>(c.i)] - x[static_cast<std::size_t>(c.j)] <
        c.bound) {
      return false;
    }
  }
  return true;
}

Value DifferentialLp::objective(const std::vector<Value>& x) const {
  Value obj = 0;
  for (int v = 0; v < numVariables(); ++v) {
    obj += cost(v) * x[static_cast<std::size_t>(v)];
  }
  return obj;
}

std::optional<std::pair<Value, Value>> solvePairLp(const PairVariable& xi,
                                                   const PairVariable& xj,
                                                   Value bound) {
  assert(xi.lo <= xi.hi && xj.lo <= xj.hi);
  if (xi.hi - xj.lo < bound) return std::nullopt;
  const auto bestXi = [&](Value x) {
    return xi.cost < 0 ? xi.hi : std::max(xi.lo, x + bound);
  };
  const auto objective = [&](Value x) {
    return xi.cost * bestXi(x) + xj.cost * x;
  };
  // Feasible x_j range is [l_j, xjMax]; non-empty by the check above.
  // Candidates ascend, so a strict improvement test keeps the least tie.
  const Value xjMax = std::min(xj.hi, xi.hi - bound);
  const Value candidates[] = {xj.lo, std::clamp(xi.lo - bound, xj.lo, xjMax),
                              xjMax};
  Value best = candidates[0];
  Value bestObjective = objective(best);
  for (const Value x : candidates) {
    const Value obj = objective(x);
    if (obj < bestObjective) {
      best = x;
      bestObjective = obj;
    }
  }
  return std::pair{bestXi(best), best};
}

namespace {

// Replaces x with the componentwise-least point of the optimal face.
// `flow` is any optimal flow of the dual network whose recovered x passed
// the feasibility check, so complementary slackness pins the face:
// constraint arcs with positive flow are tight at EVERY optimum, and a
// bound arc with positive flow pins its variable to that bound. The face
// is then a difference-constraint system closed under componentwise min,
// and the least element is the fixpoint of raising from the lower bounds —
// the same answer no matter which optimal flow described the face.
void canonicalizeOptimum(const DifferentialLp& lp, const FlowResult& flow,
                         std::vector<Value>& x) {
  const int n = lp.numVariables();
  const auto& cons = lp.constraints();
  const int numCons = static_cast<int>(cons.size());

  // Raise edges x[to] >= x[from] + w, in per-node intrusive lists so the
  // worklist below only re-examines successors of nodes that moved.
  std::vector<int> to;
  std::vector<Value> w;
  std::vector<int> head(static_cast<std::size_t>(n), -1);  // first out-edge
  std::vector<int> next;  // per edge, next edge of the same node
  const auto addEdge = [&](int from, int target, Value weight) {
    const int e = static_cast<int>(to.size());
    to.push_back(target);
    w.push_back(weight);
    next.push_back(head[static_cast<std::size_t>(from)]);
    head[static_cast<std::size_t>(from)] = e;
  };
  for (int c = 0; c < numCons; ++c) {
    const DiffConstraint& dc = cons[static_cast<std::size_t>(c)];
    addEdge(dc.j, dc.i, dc.bound);
    if (flow.arcFlow[static_cast<std::size_t>(c)] > 0) {
      // Tight at every optimum: add the reverse inequality as well.
      addEdge(dc.i, dc.j, -dc.bound);
    }
  }

  std::vector<Value> least(static_cast<std::size_t>(n));
  std::vector<int> queue;
  std::vector<char> queued(static_cast<std::size_t>(n), 1);
  for (int v = 0; v < n; ++v) {
    // Per-variable arcs follow the constraint arcs: lower then upper;
    // positive flow on the upper arc pins x_v = u_v, on the lower arc it
    // pins x_v = l_v — the starting value either way.
    const auto upperArc = static_cast<std::size_t>(numCons + 2 * v + 1);
    least[static_cast<std::size_t>(v)] =
        flow.arcFlow[upperArc] > 0 ? lp.upper(v) : lp.lower(v);
    queue.push_back(v);
  }

  // Least fixpoint by worklist relaxation. The face is non-empty (x lies
  // on it), so every raise stays <= x; each variable rises at most n
  // times, which bounds the work. The cap only trips on a violated
  // expectation, and then the solver vertex stands.
  const long long maxPops =
      static_cast<long long>(n + 1) * (n + static_cast<int>(to.size()));
  long long pops = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    if (++pops > maxPops) return;
    const int from = queue[qi];
    queued[static_cast<std::size_t>(from)] = 0;
    const Value base = least[static_cast<std::size_t>(from)];
    for (int e = head[static_cast<std::size_t>(from)]; e != -1;
         e = next[static_cast<std::size_t>(e)]) {
      const auto t = static_cast<std::size_t>(to[static_cast<std::size_t>(e)]);
      const Value need = base + w[static_cast<std::size_t>(e)];
      if (least[t] < need) {
        least[t] = need;
        if (queued[t] == 0) {
          queued[t] = 1;
          queue.push_back(static_cast<int>(t));
        }
      }
    }
  }
  // Adopt only a verified exact optimum; on any violated expectation keep
  // the solver's vertex (never happens for a correct optimal flow, but a
  // wrong canonical answer must not be able to corrupt the solve).
  if (!lp.isFeasible(least) || lp.objective(least) != lp.objective(x)) {
    return;
  }
  x = std::move(least);
}

}  // namespace

DiffLpResult DifferentialLpSolver::solve(const DifferentialLp& lp) const {
  prof::ScopedTimer timer(prof::Stage::kMcfSolve);
  prof::count(prof::Counter::kMcfSolves);
  DiffLpResult result;
  const int n = lp.numVariables();
  if (n == 0) {
    result.feasible = true;
    return result;
  }

  // Dual min-cost flow (Eqn. 16). Node 0 is y_0; node v+1 is variable v.
  // Supplies are c'; each inequality y_i - y_j >= b' becomes an arc
  // i -> j with cost -b'.
  Value sumCosts = 0;
  Value positiveSupply = 0;
  for (int v = 0; v < n; ++v) {
    sumCosts += lp.cost(v);
    positiveSupply += std::max<Value>(lp.cost(v), 0);
  }
  positiveSupply += std::max<Value>(-sumCosts, 0);

  // Any cycle-free optimal flow routes at most the total positive supply
  // through an arc; the margin keeps every arc strictly below capacity in
  // some optimum, which preserves dual feasibility of the potentials for
  // the uncapacitated LP.
  const Value cap = 4 * positiveSupply + 4;

  Graph graph;
  graph.addNode(-sumCosts);  // c'_0
  for (int v = 0; v < n; ++v) graph.addNode(lp.cost(v));
  for (const DiffConstraint& c : lp.constraints()) {
    graph.addArc(c.i + 1, c.j + 1, cap, -c.bound);
  }
  for (int v = 0; v < n; ++v) {
    graph.addArc(v + 1, 0, cap, -lp.lower(v));  // y_v - y_0 >= l_v
    graph.addArc(0, v + 1, cap, lp.upper(v));   // y_0 - y_v >= -u_v
  }

  FlowResult flow;
  switch (backend_) {
    case McfBackend::kNetworkSimplex:
      flow = NetworkSimplex().solve(graph);
      break;
    case McfBackend::kSuccessiveShortestPath:
      flow = SuccessiveShortestPath().solve(graph);
      break;
    case McfBackend::kCycleCanceling:
      flow = CycleCanceling().solve(graph);
      break;
  }
  if (flow.status != SolveStatus::kOptimal) return result;

  // y = -pi (see FlowResult's reduced-cost convention); x_v = y_{v+1} - y_0.
  result.x.resize(static_cast<std::size_t>(n));
  const Value y0 = -flow.nodePotential[0];
  for (int v = 0; v < n; ++v) {
    result.x[static_cast<std::size_t>(v)] =
        -flow.nodePotential[static_cast<std::size_t>(v + 1)] - y0;
  }
  // An infeasible LP surfaces as capacity-saturated arcs whose potentials
  // are not dual feasible; verifying the recovered x catches that case.
  if (!lp.isFeasible(result.x)) return result;
  // Feasibility also certifies the flow as optimal for the uncapacitated
  // dual network, which is what the canonicalization's complementary-
  // slackness argument needs.
  canonicalizeOptimum(lp, flow, result.x);
  result.feasible = true;
  result.objective = lp.objective(result.x);
  return result;
}

}  // namespace ofl::mcf
