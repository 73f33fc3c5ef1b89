#include "support/oracle_reference.hpp"

#include <bit>
#include <optional>

#include "util/check.hpp"

namespace sic::matching::reference {

OracleMatching max_weight_matching_oracle(int n,
                                          std::span<const WeightedEdge> edges,
                                          bool max_cardinality) {
  SIC_CHECK_MSG(n <= 20, "oracle is exponential; use the blossom matcher");
  // Adjacency with best (max) weight per pair; absent pairs are unmatched.
  std::vector<std::optional<double>> adj(static_cast<std::size_t>(n) * n);
  for (const auto& e : edges) {
    SIC_CHECK(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n && e.u != e.v);
    auto& slot = adj[static_cast<std::size_t>(e.u) * n + e.v];
    if (!slot || *slot < e.weight) {
      slot = e.weight;
      adj[static_cast<std::size_t>(e.v) * n + e.u] = e.weight;
    }
  }

  struct Value {
    int cardinality = 0;
    double weight = 0.0;
  };
  const auto better = [max_cardinality](const Value& a, const Value& b) {
    if (max_cardinality && a.cardinality != b.cardinality) {
      return a.cardinality > b.cardinality;
    }
    return a.weight > b.weight;
  };

  const std::size_t nmask = std::size_t{1} << n;
  std::vector<Value> dp(nmask);
  std::vector<int> choice(nmask, -1);  // partner of lowest bit, or -1 = single
  for (std::size_t mask = 1; mask < nmask; ++mask) {
    const int i = std::countr_zero(mask);
    const std::size_t rest = mask ^ (std::size_t{1} << i);
    // Option 1: leave i single.
    dp[mask] = dp[rest];
    choice[mask] = -1;
    // Option 2: pair i with any j in rest along an existing edge.
    for (std::size_t m = rest; m != 0; m &= m - 1) {
      const int j = std::countr_zero(m);
      const auto& w = adj[static_cast<std::size_t>(i) * n + j];
      if (!w) continue;
      const std::size_t prev = rest ^ (std::size_t{1} << j);
      Value cand{dp[prev].cardinality + 1, dp[prev].weight + *w};
      if (better(cand, dp[mask])) {
        dp[mask] = cand;
        choice[mask] = j;
      }
    }
  }

  OracleMatching out;
  out.mate.assign(n, -1);
  out.total_weight = dp[nmask - 1].weight;
  std::size_t mask = nmask - 1;
  while (mask != 0) {
    const int i = std::countr_zero(mask);
    const int j = choice[mask];
    if (j == -1) {
      mask ^= std::size_t{1} << i;
    } else {
      out.mate[i] = j;
      out.mate[j] = i;
      mask ^= (std::size_t{1} << i) | (std::size_t{1} << j);
    }
  }
  return out;
}

}  // namespace sic::matching::reference
