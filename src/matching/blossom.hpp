#ifndef SICMAC_MATCHING_BLOSSOM_HPP
#define SICMAC_MATCHING_BLOSSOM_HPP

/// \file blossom.hpp
/// Edmonds' blossom algorithm for minimum-weight perfect matching — the
/// engine behind the paper's SIC-aware scheduler (Section 6, Fig. 12:
/// "we approach the problem by reducing SIC-aware scheduling to Edmond's
/// minimum weight perfect matching algorithm").
///
/// Implementation: Galil's primal-dual formulation with blossom shrinking
/// and lazy least-slack edge tracking (the van Rantwijk arrangement),
/// specialised to the complete graphs the scheduler builds: weights live
/// in a dense n×n matrix, so a vertex scan streams one contiguous row, and
/// the solver state is reused across calls on the same thread, so a warm
/// thread allocates nothing. O(n³).
///
/// Edge weights are quantized onto an exact integer grid (relative
/// precision ≈ 2⁻²⁶) so the dual updates never accumulate floating-point
/// drift; results are exact optima of the quantized instance. Where several
/// optima tie, the solver returns the one the general edge-list formulation
/// returns for the same complete graph, doing the same work;
/// tests/matching_dense_identity_test.cpp pins that against the reference
/// kept in tests/support. Correctness is cross-checked against an
/// exponential oracle in tests/matching_blossom_test.cpp.

#include "matching/graph.hpp"

namespace sic::matching {

/// Minimum-weight perfect matching on the complete graph described by
/// \p costs. Requires an even vertex count (the scheduler adds the dummy
/// client for odd counts before calling this) and throws MatchingError
/// otherwise. Every cost(i, j), i < j, must be finite; the first
/// non-finite one (in row order) is named in a MatchingError. Implemented
/// via the standard reduction w' = max_cost − cost with max-cardinality
/// matching. Publishes matching.blossom.* work counters when a metrics
/// registry is attached.
[[nodiscard]] Matching min_weight_perfect_matching(const CostMatrix& costs);

}  // namespace sic::matching

#endif  // SICMAC_MATCHING_BLOSSOM_HPP
