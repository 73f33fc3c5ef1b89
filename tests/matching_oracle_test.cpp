#include "matching/oracle.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/oracle_reference.hpp"
#include "util/rng.hpp"

namespace sic::matching {
namespace {

using reference::max_weight_matching_oracle;

TEST(Oracle, TwoVertices) {
  CostMatrix costs{2};
  costs.set(0, 1, 3.5);
  const auto m = min_weight_perfect_matching_oracle(costs);
  ASSERT_EQ(m.pairs.size(), 1u);
  EXPECT_EQ(m.pairs[0], (std::pair<int, int>{0, 1}));
  EXPECT_DOUBLE_EQ(m.total_cost, 3.5);
}

TEST(Oracle, FourVerticesPicksCheapestPairing) {
  // Pairings: {01,23}=1+1=2, {02,13}=10+10=20, {03,12}=10+10=20.
  CostMatrix costs{4, 10.0};
  costs.set(0, 1, 1.0);
  costs.set(2, 3, 1.0);
  const auto m = min_weight_perfect_matching_oracle(costs);
  EXPECT_DOUBLE_EQ(m.total_cost, 2.0);
}

TEST(Oracle, AntiGreedyInstance) {
  // Greedy takes (0,1)=1 then is forced into (2,3)=100 → 101;
  // optimal is (0,2)+(1,3) = 2+2 = 4.
  CostMatrix costs{4};
  costs.set(0, 1, 1.0);
  costs.set(2, 3, 100.0);
  costs.set(0, 2, 2.0);
  costs.set(1, 3, 2.0);
  costs.set(0, 3, 50.0);
  costs.set(1, 2, 50.0);
  const auto m = min_weight_perfect_matching_oracle(costs);
  EXPECT_DOUBLE_EQ(m.total_cost, 4.0);
}

TEST(Oracle, OddCountRejected) {
  CostMatrix costs{3};
  EXPECT_THROW((void)min_weight_perfect_matching_oracle(costs),
               std::logic_error);
}

TEST(Oracle, PairsCoverEveryVertexOnce) {
  Rng rng{17};
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 * rng.uniform_int(1, 6);
    CostMatrix costs{n};
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) costs.set(i, j, rng.uniform(0.0, 10.0));
    }
    const auto m = min_weight_perfect_matching_oracle(costs);
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    double sum = 0.0;
    for (const auto& [a, b] : m.pairs) {
      EXPECT_FALSE(seen[a]);
      EXPECT_FALSE(seen[b]);
      seen[a] = seen[b] = true;
      sum += costs.at(a, b);
    }
    EXPECT_NEAR(sum, m.total_cost, 1e-9);
    for (const bool s : seen) EXPECT_TRUE(s);
  }
}

TEST(MaxWeightOracle, SkipsNegativeEdgesWithoutMaxCardinality) {
  const WeightedEdge edges[] = {{0, 1, -5.0}, {2, 3, 4.0}};
  const auto m = max_weight_matching_oracle(4, edges, false);
  EXPECT_EQ(m.mate[0], -1);
  EXPECT_EQ(m.mate[1], -1);
  EXPECT_EQ(m.mate[2], 3);
  EXPECT_DOUBLE_EQ(m.total_weight, 4.0);
}

TEST(MaxWeightOracle, MaxCardinalityForcesNegativeEdge) {
  const WeightedEdge edges[] = {{0, 1, -5.0}, {2, 3, 4.0}};
  const auto m = max_weight_matching_oracle(4, edges, true);
  EXPECT_EQ(m.mate[0], 1);
  EXPECT_EQ(m.mate[2], 3);
  EXPECT_DOUBLE_EQ(m.total_weight, -1.0);
}

TEST(MaxWeightOracle, PrefersHeavierAlternative) {
  // Path 0-1-2-3 with weights 2, 5, 2: best is the middle edge alone (5)
  // vs both outer edges (4) — max weight picks 5, max cardinality picks 4.
  const WeightedEdge edges[] = {{0, 1, 2.0}, {1, 2, 5.0}, {2, 3, 2.0}};
  const auto by_weight = max_weight_matching_oracle(4, edges, false);
  EXPECT_DOUBLE_EQ(by_weight.total_weight, 5.0);
  const auto by_card = max_weight_matching_oracle(4, edges, true);
  EXPECT_DOUBLE_EQ(by_card.total_weight, 4.0);
}

TEST(ValidateMate, CatchesCorruption) {
  const int good[] = {1, 0, -1};
  EXPECT_TRUE(is_valid_mate_vector(good));
  const int self[] = {0, -1};
  EXPECT_FALSE(is_valid_mate_vector(self));
  const int dangling[] = {1, 2, 0};
  EXPECT_FALSE(is_valid_mate_vector(dangling));
  const int out_of_range[] = {5, -1};
  EXPECT_FALSE(is_valid_mate_vector(out_of_range));
}

}  // namespace
}  // namespace sic::matching
