#ifndef SICMAC_MATCHING_ORACLE_HPP
#define SICMAC_MATCHING_ORACLE_HPP

/// \file oracle.hpp
/// Exponential exact matcher used as ground truth in tests and benches.
/// Bitmask DP over vertex subsets: O(2ⁿ·n) time, O(2ⁿ) space — practical to
/// n ≈ 20. (The general-graph oracle lives in tests/support with the
/// edge-list matcher it checks.)

#include "matching/graph.hpp"

namespace sic::matching {

/// Minimum-weight perfect matching by subset DP. Requires even n.
/// The result's pairs are sorted by first vertex.
[[nodiscard]] Matching min_weight_perfect_matching_oracle(const CostMatrix& costs);

}  // namespace sic::matching

#endif  // SICMAC_MATCHING_ORACLE_HPP
