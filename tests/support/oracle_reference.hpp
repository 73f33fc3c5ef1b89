#ifndef SICMAC_TESTS_SUPPORT_ORACLE_REFERENCE_HPP
#define SICMAC_TESTS_SUPPORT_ORACLE_REFERENCE_HPP

/// \file oracle_reference.hpp
/// Exponential ground truth for general (not necessarily complete) graphs:
/// bitmask DP over vertex subsets, O(2ⁿ·n) time, practical to n ≈ 20. It
/// checks the edge-list blossom reference (support/blossom_reference.hpp);
/// the library's complete-graph oracle is matching/oracle.hpp.

#include <span>
#include <vector>

#include "matching/graph.hpp"

namespace sic::matching::reference {

/// Maximum-weight matching (not necessarily perfect) by subset DP over the
/// given edge list; vertices may stay single. Returns the mate vector and
/// achieved weight.
struct OracleMatching {
  std::vector<int> mate;
  double total_weight = 0.0;
};
[[nodiscard]] OracleMatching max_weight_matching_oracle(
    int n, std::span<const WeightedEdge> edges, bool max_cardinality);

}  // namespace sic::matching::reference

#endif  // SICMAC_TESTS_SUPPORT_ORACLE_REFERENCE_HPP
