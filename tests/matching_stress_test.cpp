/// Structured stress tests for the weighted blossom matchers: graph shapes
/// (paths, cycles, stars, bipartite, metric-plane instances) that exercise
/// specific blossom behaviors, all cross-checked against the exponential
/// oracle. General (non-complete) graphs run through the edge-list
/// reference in tests/support; complete graphs through the library's
/// dense solver.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "matching/blossom.hpp"
#include "matching/oracle.hpp"
#include "support/blossom_reference.hpp"
#include "support/oracle_reference.hpp"
#include "util/rng.hpp"

namespace sic::matching {
namespace {

using reference::max_weight_matching;
using reference::max_weight_matching_oracle;

double matching_weight(const std::vector<int>& mate,
                       std::span<const WeightedEdge> edges) {
  double total = 0.0;
  for (int v = 0; v < static_cast<int>(mate.size()); ++v) {
    if (mate[v] <= v) continue;
    double best = -1e18;
    for (const auto& e : edges) {
      if ((e.u == v && e.v == mate[v]) || (e.v == v && e.u == mate[v])) {
        best = std::max(best, e.weight);
      }
    }
    total += best;
  }
  return total;
}

void expect_matches_oracle(int n, const std::vector<WeightedEdge>& edges,
                           bool max_cardinality, const char* label) {
  const auto mate = max_weight_matching(n, edges, max_cardinality);
  ASSERT_TRUE(is_valid_mate_vector(mate)) << label;
  const auto oracle = max_weight_matching_oracle(n, edges, max_cardinality);
  EXPECT_NEAR(matching_weight(mate, edges), oracle.total_weight, 1e-6)
      << label;
}

TEST(BlossomStress, PathsAllLengths) {
  Rng rng{1};
  for (int n = 2; n <= 14; ++n) {
    std::vector<WeightedEdge> edges;
    for (int i = 0; i + 1 < n; ++i) {
      edges.push_back(WeightedEdge{i, i + 1, rng.uniform(1.0, 10.0)});
    }
    expect_matches_oracle(n, edges, false, "path/maxweight");
    expect_matches_oracle(n, edges, true, "path/maxcard");
  }
}

TEST(BlossomStress, OddCyclesForceBlossoms) {
  Rng rng{2};
  for (int n = 3; n <= 13; n += 2) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<WeightedEdge> edges;
      for (int i = 0; i < n; ++i) {
        edges.push_back(WeightedEdge{i, (i + 1) % n, rng.uniform(1.0, 10.0)});
      }
      expect_matches_oracle(n, edges, false, "odd cycle");
      expect_matches_oracle(n, edges, true, "odd cycle/maxcard");
    }
  }
}

TEST(BlossomStress, StarsHaveSingleEdgeMatchings) {
  Rng rng{3};
  for (int leaves = 1; leaves <= 12; ++leaves) {
    std::vector<WeightedEdge> edges;
    double best = 0.0;
    for (int i = 1; i <= leaves; ++i) {
      const double w = rng.uniform(1.0, 10.0);
      best = std::max(best, w);
      edges.push_back(WeightedEdge{0, i, w});
    }
    const auto mate = max_weight_matching(leaves + 1, edges, false);
    EXPECT_NEAR(matching_weight(mate, edges), best, 1e-9);
  }
}

TEST(BlossomStress, BipartiteMatchesOracle) {
  Rng rng{4};
  for (int trial = 0; trial < 40; ++trial) {
    const int left = rng.uniform_int(1, 5);
    const int right = rng.uniform_int(1, 5);
    std::vector<WeightedEdge> edges;
    for (int i = 0; i < left; ++i) {
      for (int j = 0; j < right; ++j) {
        if (rng.chance(0.8)) {
          edges.push_back(
              WeightedEdge{i, left + j, rng.uniform(0.0, 20.0)});
        }
      }
    }
    if (edges.empty()) continue;
    expect_matches_oracle(left + right, edges, false, "bipartite");
    expect_matches_oracle(left + right, edges, true, "bipartite/maxcard");
  }
}

TEST(BlossomStress, MetricPlaneInstances) {
  // Euclidean min-weight perfect matching of random points — the classic
  // application; verify against the oracle at n = 12.
  Rng rng{5};
  for (int trial = 0; trial < 20; ++trial) {
    constexpr int n = 12;
    std::vector<std::pair<double, double>> pts;
    for (int i = 0; i < n; ++i) {
      pts.emplace_back(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0));
    }
    CostMatrix costs{n};
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        costs.set(i, j, std::hypot(pts[i].first - pts[j].first,
                                   pts[i].second - pts[j].second));
      }
    }
    const auto blossom = min_weight_perfect_matching(costs);
    const auto oracle = min_weight_perfect_matching_oracle(costs);
    EXPECT_NEAR(blossom.total_cost, oracle.total_cost, 1e-5)
        << "trial " << trial;
  }
}

TEST(BlossomStress, NearTiesEverywhere) {
  // All weights within epsilon of each other: dual updates are tiny and
  // tie-breaking dominates — a classic numerical trap, handled by the
  // integer quantization.
  Rng rng{6};
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 * rng.uniform_int(2, 6);
    CostMatrix costs{n};
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        costs.set(i, j, 5.0 + rng.uniform(-1e-7, 1e-7));
      }
    }
    const auto blossom = min_weight_perfect_matching(costs);
    const auto oracle = min_weight_perfect_matching_oracle(costs);
    EXPECT_NEAR(blossom.total_cost, oracle.total_cost, 1e-5);
  }
}

TEST(BlossomStress, HugeWeightMagnitudes) {
  // Quantization must survive weights spanning many orders of magnitude.
  CostMatrix costs{4};
  costs.set(0, 1, 1e-6);
  costs.set(2, 3, 1e6);
  costs.set(0, 2, 2e5);
  costs.set(1, 3, 2e5);
  costs.set(0, 3, 9e5);
  costs.set(1, 2, 9e5);
  const auto blossom = min_weight_perfect_matching(costs);
  const auto oracle = min_weight_perfect_matching_oracle(costs);
  EXPECT_NEAR(blossom.total_cost, oracle.total_cost,
              oracle.total_cost * 1e-6);
}

TEST(BlossomStress, RepeatedSolvesAreIndependent) {
  // The matcher must be stateless across calls (fresh instance per solve).
  Rng rng{7};
  CostMatrix costs{10};
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 10; ++j) costs.set(i, j, rng.uniform(1.0, 9.0));
  }
  const auto first = min_weight_perfect_matching(costs);
  for (int k = 0; k < 5; ++k) {
    const auto again = min_weight_perfect_matching(costs);
    EXPECT_DOUBLE_EQ(again.total_cost, first.total_cost);
    EXPECT_EQ(again.pairs, first.pairs);
  }
}

}  // namespace
}  // namespace sic::matching
