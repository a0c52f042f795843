// Directed flow network for min-cost flow (paper Section 3.3.3).
//
// Nodes carry integer supplies (positive = source, negative = sink); arcs
// carry capacity and cost with implicit zero lower bounds. All quantities
// are 64-bit integers: the dual-LP use case requires exact integral
// optima (paper constraint x in Z).
#pragma once

#include <cstdint>
#include <vector>

namespace ofl::mcf {

using Value = std::int64_t;

struct Arc {
  int tail;
  int head;
  Value capacity;
  Value cost;
};

class Graph {
 public:
  int addNode(Value supply = 0) {
    supplies_.push_back(supply);
    return static_cast<int>(supplies_.size()) - 1;
  }

  int addArc(int tail, int head, Value capacity, Value cost) {
    arcs_.push_back({tail, head, capacity, cost});
    return static_cast<int>(arcs_.size()) - 1;
  }

  int numNodes() const { return static_cast<int>(supplies_.size()); }
  int numArcs() const { return static_cast<int>(arcs_.size()); }

  Value supply(int node) const {
    return supplies_[static_cast<std::size_t>(node)];
  }
  const Arc& arc(int a) const { return arcs_[static_cast<std::size_t>(a)]; }
  const std::vector<Arc>& arcs() const { return arcs_; }

  /// Sum of all supplies; a balanced network has zero.
  Value totalSupply() const;

 private:
  std::vector<Value> supplies_;
  std::vector<Arc> arcs_;
};

enum class SolveStatus {
  kOptimal,
  kInfeasible,  // supplies cannot be routed within capacities
  kUnbounded,   // negative-cost cycle with unlimited capacity
};

struct FlowResult {
  SolveStatus status = SolveStatus::kInfeasible;
  Value totalCost = 0;
  std::vector<Value> arcFlow;        // per arc
  std::vector<Value> nodePotential;  // per node; reduced cost
                                     // c - pi[tail] + pi[head] >= 0 holds on
                                     // every residual arc at optimality
};

}  // namespace ofl::mcf
