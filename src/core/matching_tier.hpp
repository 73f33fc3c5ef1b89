#ifndef SICMAC_CORE_MATCHING_TIER_HPP
#define SICMAC_CORE_MATCHING_TIER_HPP

/// \file matching_tier.hpp
/// The Fig. 12 reduction with the pair costs left to the caller, shared by
/// both of its callers (the pair-cost engine and the backlog drain planner)
/// so they cannot drift apart: the dummy vertex for odd counts, the
/// per-vertex solo cost, the resolution of a SchedulerOptions::Pairing
/// policy to the concrete matcher, the mapping of matched pairs back to
/// slots, and the longest-first slot order.
///
/// The policy exists because exact blossom is O(n³): affordable (and the
/// paper's construction) at the tens-of-clients backlogs of Fig. 12, a wall
/// at the hundreds-of-clients per-AP backlogs of the dense deployments the
/// ROADMAP targets. kAuto crosses from exact to the approximate tier at a
/// configurable client count.

#include <optional>
#include <span>
#include <vector>

#include "core/scheduler.hpp"
#include "matching/graph.hpp"

namespace sic::core {

/// The concrete matcher a Pairing policy resolves to for one backlog.
enum class MatchingTier {
  kBlossom,  ///< exact minimum-weight perfect matching
  kGreedy,   ///< cheapest-pair-first heuristic
  kApprox,   ///< sparsified greedy + 2-opt postpass
};

[[nodiscard]] constexpr const char* to_string(MatchingTier t) {
  switch (t) {
    case MatchingTier::kBlossom: return "blossom";
    case MatchingTier::kGreedy: return "greedy";
    case MatchingTier::kApprox: return "approx";
  }
  return "?";
}

/// Resolves \p pairing for a backlog of \p num_clients clients (the count
/// before any dummy vertex is added). kAuto uses the approximate tier at
/// num_clients >= auto_tier_threshold and exact blossom below it; the
/// fixed policies resolve to themselves regardless of size.
[[nodiscard]] MatchingTier resolve_matching_tier(
    SchedulerOptions::Pairing pairing, int num_clients,
    int auto_tier_threshold);

/// Runs the resolved matcher over \p costs. \p vertex_serial_cost feeds
/// the approximate tier's sparsification (per-vertex solo airtime, 0.0 for
/// a dummy vertex — its edges are always dropped and closed by the
/// fallback) and \p sparsify_margin is the admission margin; both are
/// ignored by the exact tiers. \p edge_scratch is reused across calls.
[[nodiscard]] matching::Matching run_matching_tier(
    const matching::CostMatrix& costs, MatchingTier tier,
    std::span<const double> vertex_serial_cost, Decibels sparsify_margin,
    std::vector<matching::WeightedEdge>& edge_scratch);

/// One slot of a solved reduction. Indices are positions in the solo-cost
/// span the reduction began with; second == -1 marks a client transmitting
/// alone.
struct ReducedSlot {
  int first = 0;
  int second = -1;
  double airtime = 0.0;  ///< the pair's cost, or the lone client's solo cost
};

/// One Fig. 12 reduction at a time, reusing its storage across calls:
///
///   begin(solo) → set_cost(u, v, ·) for every vertex pair u < v → solve()
///
/// Clients whose solo cost is not finite (no rate serves them) are not
/// vertices: every pair cost involving them would be infinite as well,
/// which no matcher accepts. Each gets a solo slot of its own instead, and
/// the executor fails its sends at confirmation.
class PairingReduction {
 public:
  /// Starts a reduction over clients with per-client solo costs \p solo:
  /// the vertices are the servable clients, plus a dummy vertex (pair cost
  /// = the solo cost) when their count is odd.
  void begin(std::span<const double> solo);

  /// Positions in \p solo of the matching's vertices, ascending.
  [[nodiscard]] std::span<const int> vertices() const { return vertices_; }

  /// The pair cost of vertices \p u and \p v (both < vertices().size()).
  void set_cost(int u, int v, double cost) { costs_.set(u, v, cost); }

  /// Pairs the vertices with the matcher \p pairing resolves to (the
  /// approximate tier sparsifies against the solo costs with
  /// \p sparsify_margin) and builds slots(). With \p shadow_approx, a
  /// reduction that resolved to exact blossom also runs the approximate
  /// tier observationally and records shadow_gap().
  void solve(SchedulerOptions::Pairing pairing, int auto_tier_threshold,
             Decibels sparsify_margin, bool shadow_approx = false);

  /// The schedule's slots, longest first (ties by first index).
  [[nodiscard]] std::span<const ReducedSlot> slots() const { return slots_; }
  /// Sum of the slot airtimes.
  [[nodiscard]] double total_airtime() const { return total_airtime_; }
  /// The matcher solve() ran, when there were at least two vertices.
  [[nodiscard]] std::optional<MatchingTier> tier() const { return tier_; }
  /// Relative total-cost gap of the approximate tier over exact blossom,
  /// when solve() was asked for it and both totals are finite.
  [[nodiscard]] std::optional<double> shadow_gap() const {
    return shadow_gap_;
  }

 private:
  std::vector<double> solo_;    ///< per client
  std::vector<int> vertices_;   ///< servable clients
  std::vector<double> serial_;  ///< per vertex, 0 for the dummy
  matching::CostMatrix costs_{0};
  std::vector<matching::WeightedEdge> edges_;
  std::vector<ReducedSlot> slots_;
  double total_airtime_ = 0.0;
  std::optional<MatchingTier> tier_;
  std::optional<double> shadow_gap_;
};

}  // namespace sic::core

#endif  // SICMAC_CORE_MATCHING_TIER_HPP
