#ifndef SICMAC_TESTS_SUPPORT_BLOSSOM_REFERENCE_HPP
#define SICMAC_TESTS_SUPPORT_BLOSSOM_REFERENCE_HPP

/// \file blossom_reference.hpp
/// Reference implementation of Edmonds' weighted blossom algorithm over a
/// general edge list (Galil's primal-dual formulation in the van Rantwijk
/// arrangement). This was the library's exact matcher before the dense
/// solver in matching/blossom.hpp replaced it; it lives on in test support
/// so that the dense solver can be pinned against it decision for
/// decision (same mate vector, same matching.blossom.* work counters) and
/// so that the general-graph tests keep an exact matcher to check.
///
/// It is not part of the library: sic_lint's R5 rule rejects any src/
/// file that includes a support/ header.

#include <span>
#include <vector>

#include "matching/graph.hpp"

namespace sic::matching::reference {

/// Maximum-weight matching over an undirected edge list.
///
/// \param n vertex count; vertices are 0..n-1.
/// \param edges undirected weighted edges (no self-loops; parallel edges
///        allowed, the heavier one wins).
/// \param max_cardinality when true, only maximum-cardinality matchings are
///        considered and weight is maximized among them.
/// \return mate vector: mate[v] is v's partner or -1 when single.
[[nodiscard]] std::vector<int> max_weight_matching(
    int n, std::span<const WeightedEdge> edges, bool max_cardinality = false);

/// Minimum-weight perfect matching on the complete graph described by
/// \p costs, through the edge-list path: n(n-1)/2 edges with weight
/// max_cost − cost, solved as a max-cardinality matching. Publishes the
/// same matching.blossom.* counters as the library's dense solver.
[[nodiscard]] Matching min_weight_perfect_matching(const CostMatrix& costs);

}  // namespace sic::matching::reference

#endif  // SICMAC_TESTS_SUPPORT_BLOSSOM_REFERENCE_HPP
