// Primal network simplex for min-cost flow.
//
// This is the library's substitute for LEMON's NetworkSimplex (the solver
// the paper uses). Standard textbook construction: artificial big-cost
// root arcs form the initial spanning-tree basis; entering arcs are picked
// by block pricing; after each pivot only the detached component of the
// tree is reattached and its potentials shifted (O(component), identical
// values to a full root BFS — see reattachSubtree). Problem instances in
// the fill flow are per-window and small (hundreds of nodes).
//
// The solver object is reusable: all working arrays persist across solve()
// calls, so a caller solving many same-shaped instances on one object pays
// for allocation once.
#pragma once

#include <vector>

#include "mcf/graph.hpp"

namespace ofl::mcf {

class NetworkSimplex {
 public:
  /// Solves min-cost flow on `graph` from the standard all-artificial
  /// starting basis. Supplies must sum to zero, all capacities >= 0.
  /// Deterministic: a given graph always produces the same pivot sequence
  /// and therefore the same optimal flow and potentials.
  FlowResult solve(const Graph& graph);

 private:
  void init(const Graph& graph);
  FlowResult run(const Graph& graph);

  Value reducedCost(int a) const {
    return cost_[static_cast<std::size_t>(a)] -
           pi_[static_cast<std::size_t>(tail_[static_cast<std::size_t>(a)])] +
           pi_[static_cast<std::size_t>(head_[static_cast<std::size_t>(a)])];
  }
  void refreshTree();
  /// Incremental basis update after a pivot: the leaving arc has already
  /// been removed and `entering` added to treeAdj_, and `inNode` is the
  /// entering endpoint inside the detached component. Rebuilds parent /
  /// depth and shifts pi for that component only — the values come out
  /// exactly as a full refreshTree() would produce them (the main-tree
  /// relations are untouched and the detached component's potentials all
  /// move by the entering arc's reduced cost), just in O(component).
  void reattachSubtree(int entering, int inNode);
  void removeTreeArc(int a);
  void addTreeArc(int a);

  // Arc arrays (original arcs first, then one artificial arc per node).
  std::vector<int> tail_;
  std::vector<int> head_;
  std::vector<Value> cap_;
  std::vector<Value> cost_;
  std::vector<Value> flow_;
  std::vector<signed char> state_;

  // Spanning-tree structure over numNodes_ nodes (root last).
  int numNodes_ = 0;
  int root_ = 0;
  int firstArtificial_ = 0;
  std::vector<int> parent_;
  std::vector<int> predArc_;
  std::vector<int> depth_;
  std::vector<Value> pi_;
  std::vector<std::vector<int>> treeAdj_;  // node -> incident tree arc ids

  // Per-call scratch, kept for its capacity.
  std::vector<int> stack_;
  std::vector<char> visited_;
  struct Step {
    int arc;
    bool flowIncreases;
    bool uSide;  // recorded on the u-walk (tail side of the entering arc)
  };
  std::vector<Step> steps_;  // pivot-cycle path, reused across pivots

};

}  // namespace ofl::mcf
