#include "matching/oracle.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/check.hpp"

namespace sic::matching {

Matching min_weight_perfect_matching_oracle(const CostMatrix& costs) {
  const int n = costs.size();
  SIC_CHECK_MSG(n % 2 == 0, "perfect matching requires an even vertex count");
  SIC_CHECK_MSG(n <= 22, "oracle is exponential; use the blossom matcher");
  const std::size_t nmask = std::size_t{1} << n;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dp(nmask, kInf);
  std::vector<int> choice(nmask, -1);  // j paired with lowest set bit
  dp[0] = 0.0;
  for (std::size_t mask = 1; mask < nmask; ++mask) {
    if (std::popcount(mask) % 2 != 0) continue;
    const int i = std::countr_zero(mask);
    const std::size_t rest = mask ^ (std::size_t{1} << i);
    for (std::size_t m = rest; m != 0; m &= m - 1) {
      const int j = std::countr_zero(m);
      const std::size_t prev = rest ^ (std::size_t{1} << j);
      if (dp[prev] == kInf) continue;
      const double cand = dp[prev] + costs.at(i, j);
      if (cand < dp[mask]) {
        dp[mask] = cand;
        choice[mask] = j;
      }
    }
  }
  Matching result;
  result.total_cost = dp[nmask - 1];
  SIC_CHECK_MSG(result.total_cost < kInf, "no perfect matching exists");
  std::size_t mask = nmask - 1;
  while (mask != 0) {
    const int i = std::countr_zero(mask);
    const int j = choice[mask];
    result.pairs.emplace_back(i, j);
    mask ^= (std::size_t{1} << i) | (std::size_t{1} << j);
  }
  std::reverse(result.pairs.begin(), result.pairs.end());
  return result;
}

}  // namespace sic::matching
