#include "mcf/dual_lp.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "lp/simplex.hpp"

namespace ofl::mcf {
namespace {

class DualLpTest : public ::testing::TestWithParam<McfBackend> {};

TEST_P(DualLpTest, PaperFig6Example) {
  // Paper Section 3.3.3: min x1 + 2x2 + 3x3 + 4x4 with x1 - x2 >= 5,
  // x4 - x3 >= 6, x in [0,10]^4. Published solution: x = (5, 0, 0, 6).
  DifferentialLp lp;
  lp.addVariable(1, 0, 10);
  lp.addVariable(2, 0, 10);
  lp.addVariable(3, 0, 10);
  lp.addVariable(4, 0, 10);
  lp.addConstraint(0, 1, 5);
  lp.addConstraint(3, 2, 6);
  const DiffLpResult r = DifferentialLpSolver(GetParam()).solve(lp);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.x, (std::vector<Value>{5, 0, 0, 6}));
  EXPECT_EQ(r.objective, 29);
}

TEST_P(DualLpTest, UnconstrainedGoesToCostMinimizingBound) {
  DifferentialLp lp;
  lp.addVariable(3, -4, 9);    // positive cost -> lower bound
  lp.addVariable(-2, -4, 9);   // negative cost -> upper bound
  lp.addVariable(0, 5, 5);     // fixed
  const DiffLpResult r = DifferentialLpSolver(GetParam()).solve(lp);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.x[0], -4);
  EXPECT_EQ(r.x[1], 9);
  EXPECT_EQ(r.x[2], 5);
}

TEST_P(DualLpTest, ChainOfConstraints) {
  // x0 >= x1 + 2 >= x2 + 4 with all costs positive pushes everything down
  // onto the chain of lower bounds.
  DifferentialLp lp;
  lp.addVariable(1, 0, 100);
  lp.addVariable(1, 0, 100);
  lp.addVariable(1, 0, 100);
  lp.addConstraint(0, 1, 2);
  lp.addConstraint(1, 2, 2);
  const DiffLpResult r = DifferentialLpSolver(GetParam()).solve(lp);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.x, (std::vector<Value>{4, 2, 0}));
}

TEST_P(DualLpTest, InfeasibleCycleDetected) {
  // x0 - x1 >= 1 and x1 - x0 >= 1 cannot both hold.
  DifferentialLp lp;
  lp.addVariable(1, 0, 10);
  lp.addVariable(1, 0, 10);
  lp.addConstraint(0, 1, 1);
  lp.addConstraint(1, 0, 1);
  EXPECT_FALSE(DifferentialLpSolver(GetParam()).solve(lp).feasible);
}

TEST_P(DualLpTest, InfeasibleBoundsVsConstraint) {
  // x0 - x1 >= 5 but x0 <= 2 and x1 >= 0.
  DifferentialLp lp;
  lp.addVariable(1, 0, 2);
  lp.addVariable(1, 0, 10);
  lp.addConstraint(0, 1, 5);
  EXPECT_FALSE(DifferentialLpSolver(GetParam()).solve(lp).feasible);
}

TEST_P(DualLpTest, EmptyProblemFeasible) {
  const DifferentialLp lp;
  const DiffLpResult r = DifferentialLpSolver(GetParam()).solve(lp);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.x.empty());
}

TEST_P(DualLpTest, NegativeBoundsWork) {
  DifferentialLp lp;
  lp.addVariable(2, -20, -5);
  lp.addVariable(-1, -20, -5);
  lp.addConstraint(1, 0, 3);  // x1 >= x0 + 3
  const DiffLpResult r = DifferentialLpSolver(GetParam()).solve(lp);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.x[0], -20);
  EXPECT_EQ(r.x[1], -5);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DualLpTest,
    ::testing::Values(McfBackend::kNetworkSimplex,
                      McfBackend::kSuccessiveShortestPath,
                      McfBackend::kCycleCanceling),
    [](const auto& info) {
      switch (info.param) {
        case McfBackend::kNetworkSimplex: return "NetworkSimplex";
        case McfBackend::kSuccessiveShortestPath: return "Ssp";
        case McfBackend::kCycleCanceling: return "CycleCanceling";
      }
      return "Unknown";
    });

TEST(DualLpCrossCheckTest, AgreesWithDenseSimplexOnRandomSystems) {
  Rng rng(2024);
  int feasibleCount = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int n = static_cast<int>(rng.uniformInt(2, 8));
    DifferentialLp dlp;
    lp::LpModel model;
    for (int v = 0; v < n; ++v) {
      const Value c = rng.uniformInt(-10, 10);
      const Value lo = rng.uniformInt(-5, 8);
      const Value hi = lo + rng.uniformInt(0, 20);
      dlp.addVariable(c, lo, hi);
      model.addVariable(static_cast<double>(c), static_cast<double>(lo),
                        static_cast<double>(hi));
    }
    const int nc = static_cast<int>(rng.uniformInt(0, 2 * n));
    for (int k = 0; k < nc; ++k) {
      const int i = static_cast<int>(rng.uniformInt(0, n - 1));
      int j = static_cast<int>(rng.uniformInt(0, n - 1));
      if (i == j) continue;
      const Value b = rng.uniformInt(-7, 7);
      dlp.addConstraint(i, j, b);
      model.addConstraint({{i, 1.0}, {j, -1.0}}, lp::Sense::kGreaterEqual,
                          static_cast<double>(b));
    }
    const DiffLpResult mcfResult =
        DifferentialLpSolver(McfBackend::kNetworkSimplex).solve(dlp);
    const DiffLpResult sspResult =
        DifferentialLpSolver(McfBackend::kSuccessiveShortestPath).solve(dlp);
    const lp::LpResult lpResult = lp::SimplexSolver().solve(model);

    const bool lpFeasible = lpResult.status == lp::LpStatus::kOptimal;
    ASSERT_EQ(mcfResult.feasible, lpFeasible) << "trial " << trial;
    ASSERT_EQ(sspResult.feasible, lpFeasible) << "trial " << trial;
    if (lpFeasible) {
      ++feasibleCount;
      EXPECT_NEAR(static_cast<double>(mcfResult.objective),
                  lpResult.objective, 1e-5)
          << "trial " << trial;
      EXPECT_EQ(mcfResult.objective, sspResult.objective) << "trial " << trial;
      EXPECT_TRUE(dlp.isFeasible(mcfResult.x)) << "trial " << trial;
      EXPECT_TRUE(dlp.isFeasible(sspResult.x)) << "trial " << trial;
      // Canonicalization makes x backend-independent, not just the
      // objective.
      EXPECT_EQ(mcfResult.x, sspResult.x) << "trial " << trial;
    }
  }
  EXPECT_GT(feasibleCount, 50);  // the generator must exercise both outcomes
}

TEST(SolvePairLpTest, MatchesEveryBackendAndBruteForceExhaustively) {
  // Every box pair with bounds in [-1, 2], every offset in [-3, 4] (from
  // slack to infeasible) and every cost pair in [-2, 2]^2 (all sign
  // combinations, zero and cancelling sums included). Brute force
  // enumerates the box and keeps the lexicographically least optimum,
  // which for a lattice optimal face is its componentwise-least element.
  constexpr Value kMin = -1;
  constexpr Value kMax = 2;
  const McfBackend backends[] = {McfBackend::kNetworkSimplex,
                                 McfBackend::kSuccessiveShortestPath,
                                 McfBackend::kCycleCanceling};
  int feasible = 0;
  int infeasible = 0;
  for (Value li = kMin; li <= kMax; ++li) {
    for (Value ui = li; ui <= kMax; ++ui) {
      for (Value lj = kMin; lj <= kMax; ++lj) {
        for (Value uj = lj; uj <= kMax; ++uj) {
          for (Value b = -3; b <= 4; ++b) {
            for (Value ci = -2; ci <= 2; ++ci) {
              for (Value cj = -2; cj <= 2; ++cj) {
                const auto got = solvePairLp({ci, li, ui}, {cj, lj, uj}, b);
                std::optional<std::pair<Value, Value>> brute;
                Value bruteObjective = 0;
                for (Value xi = li; xi <= ui; ++xi) {
                  for (Value xj = lj; xj <= uj; ++xj) {
                    if (xi - xj < b) continue;
                    const Value obj = ci * xi + cj * xj;
                    if (!brute.has_value() || obj < bruteObjective) {
                      brute = std::pair{xi, xj};
                      bruteObjective = obj;
                    }
                  }
                }
                DifferentialLp lp;
                lp.addVariable(ci, li, ui);
                lp.addVariable(cj, lj, uj);
                lp.addConstraint(0, 1, b);
                const std::string where =
                    "x_i in [" + std::to_string(li) + "," +
                    std::to_string(ui) + "] x_j in [" + std::to_string(lj) +
                    "," + std::to_string(uj) + "] b " + std::to_string(b) +
                    " c (" + std::to_string(ci) + "," + std::to_string(cj) +
                    ")";
                ASSERT_EQ(got, brute) << where;
                for (const McfBackend backend : backends) {
                  const DiffLpResult r = DifferentialLpSolver(backend).solve(lp);
                  ASSERT_EQ(r.feasible, got.has_value()) << where;
                  if (r.feasible) {
                    ASSERT_EQ(r.x, (std::vector<Value>{got->first,
                                                       got->second}))
                        << where;
                  }
                }
                ++(got.has_value() ? feasible : infeasible);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(SolvePairLpTest, LargeCoordinates) {
  // The sizer's coordinates reach ~1e9; the closed form must stay exact.
  const Value base = 2'000'000'000;
  const auto x = solvePairLp({5, base + 60, base + 100}, {-7, base, base + 40},
                             50);
  ASSERT_TRUE(x.has_value());
  // Raising x_j saves 7 per unit and, past the kink at l_i - 50, drags x_i
  // up at 5 per unit: the objective falls all the way to u_j.
  EXPECT_EQ(*x, (std::pair<Value, Value>{base + 90, base + 40}));
  EXPECT_FALSE(solvePairLp({1, base, base + 10}, {1, base, base + 5}, 11)
                   .has_value());
}

}  // namespace
}  // namespace ofl::mcf
