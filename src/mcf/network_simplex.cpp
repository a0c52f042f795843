#include "mcf/network_simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace ofl::mcf {
namespace {

enum ArcState : signed char { kAtLower = -1, kInTree = 0, kAtUpper = 1 };

}  // namespace

void NetworkSimplex::refreshTree() {
  visited_.assign(static_cast<std::size_t>(numNodes_), 0);
  stack_.clear();
  stack_.push_back(root_);
  parent_[static_cast<std::size_t>(root_)] = -1;
  predArc_[static_cast<std::size_t>(root_)] = -1;
  depth_[static_cast<std::size_t>(root_)] = 0;
  visited_[static_cast<std::size_t>(root_)] = 1;
  while (!stack_.empty()) {
    const int u = stack_.back();
    stack_.pop_back();
    for (int a : treeAdj_[static_cast<std::size_t>(u)]) {
      const auto ai = static_cast<std::size_t>(a);
      const int v = (tail_[ai] == u) ? head_[ai] : tail_[ai];
      const auto vi = static_cast<std::size_t>(v);
      if (visited_[vi]) continue;
      visited_[vi] = 1;
      parent_[vi] = u;
      predArc_[vi] = a;
      depth_[vi] = depth_[static_cast<std::size_t>(u)] + 1;
      // Tree arcs have zero reduced cost: cost - pi[tail] + pi[head] = 0,
      // i.e. pi[head] = pi[tail] - cost.
      if (tail_[ai] == u) {
        pi_[vi] = pi_[static_cast<std::size_t>(u)] - cost_[ai];  // v == head
      } else {
        pi_[vi] = pi_[static_cast<std::size_t>(u)] + cost_[ai];  // v == tail
      }
      stack_.push_back(v);
    }
  }
}

void NetworkSimplex::reattachSubtree(int entering, int inNode) {
  const auto ei = static_cast<std::size_t>(entering);
  const auto ini = static_cast<std::size_t>(inNode);
  const int outNode = (tail_[ei] == inNode) ? head_[ei] : tail_[ei];
  const auto outi = static_cast<std::size_t>(outNode);
  // New tree arcs are tight (zero reduced cost); the detached component's
  // internal relations are unchanged, so every node in it shifts by the
  // same delta the entering arc forces on inNode.
  const Value newPiIn = (head_[ei] == inNode) ? pi_[outi] - cost_[ei]
                                              : pi_[outi] + cost_[ei];
  const Value delta = newPiIn - pi_[ini];
  // DFS stays inside the detached component: its only link to the rest of
  // the tree is `entering`, and marking outNode visited blocks it.
  visited_.assign(static_cast<std::size_t>(numNodes_), 0);
  visited_[outi] = 1;
  visited_[ini] = 1;
  parent_[ini] = outNode;
  predArc_[ini] = entering;
  depth_[ini] = depth_[outi] + 1;
  pi_[ini] += delta;
  stack_.clear();
  stack_.push_back(inNode);
  while (!stack_.empty()) {
    const int u = stack_.back();
    stack_.pop_back();
    for (int a : treeAdj_[static_cast<std::size_t>(u)]) {
      const auto ai = static_cast<std::size_t>(a);
      const int v = (tail_[ai] == u) ? head_[ai] : tail_[ai];
      const auto vi = static_cast<std::size_t>(v);
      if (visited_[vi]) continue;
      visited_[vi] = 1;
      parent_[vi] = u;
      predArc_[vi] = a;
      depth_[vi] = depth_[static_cast<std::size_t>(u)] + 1;
      pi_[vi] += delta;
      stack_.push_back(v);
    }
  }
}

void NetworkSimplex::removeTreeArc(int a) {
  const auto ai = static_cast<std::size_t>(a);
  for (int endpoint : {tail_[ai], head_[ai]}) {
    auto& adj = treeAdj_[static_cast<std::size_t>(endpoint)];
    adj.erase(std::find(adj.begin(), adj.end(), a));
  }
}

void NetworkSimplex::addTreeArc(int a) {
  const auto ai = static_cast<std::size_t>(a);
  treeAdj_[static_cast<std::size_t>(tail_[ai])].push_back(a);
  treeAdj_[static_cast<std::size_t>(head_[ai])].push_back(a);
}

void NetworkSimplex::init(const Graph& graph) {
  const int n = graph.numNodes();
  const int m = graph.numArcs();

  numNodes_ = n + 1;
  root_ = n;
  firstArtificial_ = m;

  Value costSum = 1;
  Value positiveSupply = 0;
  for (const Arc& a : graph.arcs()) {
    assert(a.capacity >= 0);
    costSum += std::abs(a.cost);
  }
  for (int i = 0; i < n; ++i) {
    positiveSupply += std::max<Value>(graph.supply(i), 0);
  }
  const Value big = costSum;  // dominates any simple-path cost
  const Value artCap = positiveSupply + 1;

  const int totalArcs = m + n;
  tail_.resize(static_cast<std::size_t>(totalArcs));
  head_.resize(static_cast<std::size_t>(totalArcs));
  cap_.resize(static_cast<std::size_t>(totalArcs));
  cost_.resize(static_cast<std::size_t>(totalArcs));
  flow_.assign(static_cast<std::size_t>(totalArcs), 0);
  state_.assign(static_cast<std::size_t>(totalArcs), kAtLower);

  for (int a = 0; a < m; ++a) {
    const Arc& arc = graph.arc(a);
    tail_[static_cast<std::size_t>(a)] = arc.tail;
    head_[static_cast<std::size_t>(a)] = arc.head;
    cap_[static_cast<std::size_t>(a)] = arc.capacity;
    cost_[static_cast<std::size_t>(a)] = arc.cost;
  }
  // Artificial arcs carry the initial supplies to/from the root.
  for (int i = 0; i < n; ++i) {
    const int a = m + i;
    const Value b = graph.supply(i);
    if (b >= 0) {
      tail_[static_cast<std::size_t>(a)] = i;
      head_[static_cast<std::size_t>(a)] = root_;
    } else {
      tail_[static_cast<std::size_t>(a)] = root_;
      head_[static_cast<std::size_t>(a)] = i;
    }
    cap_[static_cast<std::size_t>(a)] = artCap;
    cost_[static_cast<std::size_t>(a)] = big;
    flow_[static_cast<std::size_t>(a)] = std::abs(b);
    state_[static_cast<std::size_t>(a)] = kInTree;
  }

  parent_.assign(static_cast<std::size_t>(numNodes_), -1);
  predArc_.assign(static_cast<std::size_t>(numNodes_), -1);
  depth_.assign(static_cast<std::size_t>(numNodes_), 0);
  pi_.assign(static_cast<std::size_t>(numNodes_), 0);
  // resize+clear instead of assign: keeps the inner vectors' capacity
  // across solves on one object.
  treeAdj_.resize(static_cast<std::size_t>(numNodes_));
  for (auto& adj : treeAdj_) adj.clear();
  for (int i = 0; i < n; ++i) addTreeArc(m + i);
  refreshTree();
}

FlowResult NetworkSimplex::run(const Graph& graph) {
  FlowResult result;
  const int n = graph.numNodes();
  const int m = graph.numArcs();
  const int totalArcs = m + n;

  // Block pricing: scan a block of arcs, take the worst violator.
  const int blockSize =
      std::max(16, static_cast<int>(std::sqrt(static_cast<double>(totalArcs))));
  int scanFrom = 0;

  // Generous pivot cap as an anti-cycling safety net; network simplex on
  // our instances terminates orders of magnitude earlier.
  const long long maxPivots = 1000LL + 20LL * totalArcs * (n + 2);
  long long pivots = 0;

  while (true) {
    // --- pricing ---
    int entering = -1;
    Value bestViolation = 0;
    int scanned = 0;
    int idx = scanFrom;
    while (scanned < totalArcs) {
      const int blockEnd = std::min(scanned + blockSize, totalArcs);
      for (; scanned < blockEnd; ++scanned, idx = (idx + 1) % totalArcs) {
        const signed char st = state_[static_cast<std::size_t>(idx)];
        if (st == kInTree) continue;
        const Value rc = reducedCost(idx);
        const Value violation = (st == kAtLower) ? -rc : rc;
        if (violation > bestViolation) {
          bestViolation = violation;
          entering = idx;
        }
      }
      if (entering >= 0) break;  // found in this block run
    }
    if (entering < 0) break;  // optimal
    scanFrom = (entering + 1) % totalArcs;

    if (++pivots > maxPivots) {
      result.status = SolveStatus::kInfeasible;  // should never happen
      return result;
    }

    // --- ratio test along the cycle closed by `entering` ---
    // Walk both endpoints to their LCA. `forward` means flow increases on
    // the entering arc's direction of traversal.
    const bool increase =
        (state_[static_cast<std::size_t>(entering)] == kAtLower);
    int u = increase ? tail_[static_cast<std::size_t>(entering)]
                     : head_[static_cast<std::size_t>(entering)];
    int v = increase ? head_[static_cast<std::size_t>(entering)]
                     : tail_[static_cast<std::size_t>(entering)];
    // Cycle orientation: v -> ... -> lca -> ... -> u -> (entering) -> v.

    Value delta = cap_[static_cast<std::size_t>(entering)] -
                  flow_[static_cast<std::size_t>(entering)];
    if (!increase) delta = flow_[static_cast<std::size_t>(entering)];
    int leaving = entering;
    bool leavingDecreases = true;  // flow on leaving arc hits 0 vs capacity

    int uu = u;
    int vv = v;
    // Record the path arcs to apply augmentation afterwards (steps_ is a
    // member so the buffer's capacity survives across pivots and solves).
    steps_.clear();
    while (uu != vv) {
      if (depth_[static_cast<std::size_t>(uu)] >=
          depth_[static_cast<std::size_t>(vv)]) {
        const int a = predArc_[static_cast<std::size_t>(uu)];
        // The cycle pushes delta from v back to u through the tree, so on
        // u's side the path runs downward parent(uu) -> uu: flow increases
        // when the arc points down (head == uu).
        const bool down = (head_[static_cast<std::size_t>(a)] == uu);
        steps_.push_back({a, down, true});
        uu = parent_[static_cast<std::size_t>(uu)];
      } else {
        const int a = predArc_[static_cast<std::size_t>(vv)];
        // On v's side the path runs upward vv -> parent(vv): flow
        // increases when the arc points up (tail == vv).
        const bool up = (tail_[static_cast<std::size_t>(a)] == vv);
        steps_.push_back({a, up, false});
        vv = parent_[static_cast<std::size_t>(vv)];
      }
    }
    bool leavingOnUSide = false;
    for (const Step& st : steps_) {
      const auto ai = static_cast<std::size_t>(st.arc);
      const Value room = st.flowIncreases ? cap_[ai] - flow_[ai] : flow_[ai];
      if (room < delta) {
        delta = room;
        leaving = st.arc;
        leavingDecreases = !st.flowIncreases;
        leavingOnUSide = st.uSide;
      }
    }

    // --- augment ---
    {
      const auto ei = static_cast<std::size_t>(entering);
      flow_[ei] += increase ? delta : -delta;
    }
    for (const Step& st : steps_) {
      const auto ai = static_cast<std::size_t>(st.arc);
      flow_[ai] += st.flowIncreases ? delta : -delta;
    }

    // --- basis update ---
    if (leaving == entering) {
      // Entering arc swung from one bound to the other; basis unchanged.
      state_[static_cast<std::size_t>(entering)] =
          increase ? kAtUpper : kAtLower;
      continue;
    }
    state_[static_cast<std::size_t>(leaving)] =
        leavingDecreases ? kAtLower : kAtUpper;
    state_[static_cast<std::size_t>(entering)] = kInTree;
    removeTreeArc(leaving);
    addTreeArc(entering);
    // The leaving arc was found on one of the two walks; the entering
    // endpoint that started that walk lies in the component the removal
    // detached, so reattach from there.
    reattachSubtree(entering, leavingOnUSide ? u : v);
  }

  // Any residual flow on artificial arcs means the supplies cannot be
  // routed through the real network.
  for (int i = 0; i < n; ++i) {
    if (flow_[static_cast<std::size_t>(m + i)] != 0) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }
  }

  result.status = SolveStatus::kOptimal;
  result.arcFlow.resize(static_cast<std::size_t>(m));
  for (int a = 0; a < m; ++a) {
    result.arcFlow[static_cast<std::size_t>(a)] =
        flow_[static_cast<std::size_t>(a)];
    result.totalCost += flow_[static_cast<std::size_t>(a)] *
                        graph.arc(a).cost;
  }
  result.nodePotential.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    result.nodePotential[static_cast<std::size_t>(i)] =
        pi_[static_cast<std::size_t>(i)];
  }
  return result;
}

FlowResult NetworkSimplex::solve(const Graph& graph) {
  if (graph.totalSupply() != 0) {
    FlowResult result;
    result.status = SolveStatus::kInfeasible;
    return result;
  }
  init(graph);
  return run(graph);
}

}  // namespace ofl::mcf
