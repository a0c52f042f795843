#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mcf/cycle_canceling.hpp"
#include "mcf/network_simplex.hpp"
#include "mcf/ssp.hpp"

namespace ofl::mcf {
namespace {

// All three backends as a parameterized axis.
enum class Backend { kNs, kSsp, kCc };

FlowResult solveWith(Backend b, const Graph& g) {
  switch (b) {
    case Backend::kNs: return NetworkSimplex().solve(g);
    case Backend::kSsp: return SuccessiveShortestPath().solve(g);
    case Backend::kCc: return CycleCanceling().solve(g);
  }
  return {};
}

class McfSolverTest : public ::testing::TestWithParam<Backend> {};

TEST_P(McfSolverTest, SimpleTransport) {
  // One source (4), one sink (-4), two parallel paths of cost 1 and 3,
  // capacities 3 each: send 3 on the cheap path, 1 on the other. Cost 6.
  Graph g;
  const int s = g.addNode(4);
  const int t = g.addNode(-4);
  g.addArc(s, t, 3, 1);
  g.addArc(s, t, 3, 3);
  const FlowResult r = solveWith(GetParam(), g);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.totalCost, 3 * 1 + 1 * 3);
  EXPECT_EQ(r.arcFlow[0], 3);
  EXPECT_EQ(r.arcFlow[1], 1);
}

TEST_P(McfSolverTest, TransshipmentNode) {
  Graph g;
  const int s = g.addNode(5);
  const int mid = g.addNode(0);
  const int t = g.addNode(-5);
  g.addArc(s, mid, 10, 2);
  g.addArc(mid, t, 10, 2);
  g.addArc(s, t, 2, 10);
  const FlowResult r = solveWith(GetParam(), g);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.totalCost, 5 * 4);  // direct arc is never worth it
}

TEST_P(McfSolverTest, NegativeCostArc) {
  // Negative arc from sink side back: optimal uses it at capacity.
  Graph g;
  const int a = g.addNode(2);
  const int b = g.addNode(-2);
  g.addArc(a, b, 5, -3);
  const FlowResult r = solveWith(GetParam(), g);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  // Only 2 units are forced by supply, but pushing more through the
  // negative arc is impossible (no return path), so flow = 2.
  EXPECT_EQ(r.totalCost, -6);
}

TEST_P(McfSolverTest, NegativeCycleSaturates) {
  // Zero supplies but a negative-cost cycle with finite capacity: the
  // optimum saturates the cycle.
  Graph g;
  const int a = g.addNode(0);
  const int b = g.addNode(0);
  g.addArc(a, b, 4, -5);
  g.addArc(b, a, 4, 2);
  const FlowResult r = solveWith(GetParam(), g);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.totalCost, 4 * (-5) + 4 * 2);
}

TEST_P(McfSolverTest, InfeasibleWhenCapacityTooSmall) {
  Graph g;
  const int s = g.addNode(5);
  const int t = g.addNode(-5);
  g.addArc(s, t, 3, 1);
  EXPECT_EQ(solveWith(GetParam(), g).status, SolveStatus::kInfeasible);
}

TEST_P(McfSolverTest, UnbalancedSuppliesRejected) {
  Graph g;
  g.addNode(3);
  g.addNode(-1);
  EXPECT_EQ(solveWith(GetParam(), g).status, SolveStatus::kInfeasible);
}

TEST_P(McfSolverTest, PotentialsAreDualFeasible) {
  Graph g;
  const int s = g.addNode(6);
  const int a = g.addNode(0);
  const int b = g.addNode(-2);
  const int t = g.addNode(-4);
  g.addArc(s, a, 10, 1);
  g.addArc(a, b, 10, 2);
  g.addArc(a, t, 3, 5);
  g.addArc(b, t, 10, 1);
  const FlowResult r = solveWith(GetParam(), g);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  // Residual arcs must have non-negative reduced cost
  // c - pi[tail] + pi[head] >= 0; arcs with flow have the reverse residual.
  for (int arc = 0; arc < g.numArcs(); ++arc) {
    const Arc& e = g.arc(arc);
    const Value rc = e.cost - r.nodePotential[static_cast<std::size_t>(e.tail)] +
                     r.nodePotential[static_cast<std::size_t>(e.head)];
    if (r.arcFlow[static_cast<std::size_t>(arc)] < e.capacity) {
      EXPECT_GE(rc, 0) << "arc " << arc;
    }
    if (r.arcFlow[static_cast<std::size_t>(arc)] > 0) {
      EXPECT_LE(rc, 0) << "arc " << arc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, McfSolverTest,
                         ::testing::Values(Backend::kNs, Backend::kSsp,
                                           Backend::kCc),
                         [](const auto& info) {
                           switch (info.param) {
                             case Backend::kNs: return "NetworkSimplex";
                             case Backend::kSsp:
                               return "SuccessiveShortestPath";
                             case Backend::kCc: return "CycleCanceling";
                           }
                           return "Unknown";
                         });

TEST(McfCrossCheckTest, RandomGraphsAgree) {
  Rng rng(31337);
  for (int trial = 0; trial < 120; ++trial) {
    Graph g;
    const int n = static_cast<int>(rng.uniformInt(2, 9));
    std::vector<Value> supply(static_cast<std::size_t>(n), 0);
    // Random balanced supplies.
    for (int k = 0; k < n / 2; ++k) {
      const auto i = static_cast<std::size_t>(rng.uniformInt(0, n - 1));
      const auto j = static_cast<std::size_t>(rng.uniformInt(0, n - 1));
      const Value amount = rng.uniformInt(0, 7);
      supply[i] += amount;
      supply[j] -= amount;
    }
    for (int i = 0; i < n; ++i) {
      g.addNode(supply[static_cast<std::size_t>(i)]);
    }
    const int m = static_cast<int>(rng.uniformInt(1, 3 * n));
    for (int k = 0; k < m; ++k) {
      const int u = static_cast<int>(rng.uniformInt(0, n - 1));
      int v = static_cast<int>(rng.uniformInt(0, n - 1));
      if (u == v) v = (v + 1) % n;
      g.addArc(u, v, rng.uniformInt(0, 12), rng.uniformInt(-6, 12));
    }
    const FlowResult rNs = NetworkSimplex().solve(g);
    const FlowResult rSsp = SuccessiveShortestPath().solve(g);
    const FlowResult rCc = CycleCanceling().solve(g);
    ASSERT_EQ(rNs.status == SolveStatus::kOptimal,
              rSsp.status == SolveStatus::kOptimal)
        << "trial " << trial;
    ASSERT_EQ(rNs.status == SolveStatus::kOptimal,
              rCc.status == SolveStatus::kOptimal)
        << "trial " << trial;
    if (rNs.status == SolveStatus::kOptimal) {
      EXPECT_EQ(rNs.totalCost, rSsp.totalCost) << "trial " << trial;
      EXPECT_EQ(rNs.totalCost, rCc.totalCost) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace ofl::mcf
