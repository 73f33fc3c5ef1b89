#include "core/matching_tier.hpp"

#include <algorithm>
#include <cmath>

#include "matching/approx.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "util/mathx.hpp"

namespace sic::core {

MatchingTier resolve_matching_tier(SchedulerOptions::Pairing pairing,
                                   int num_clients, int auto_tier_threshold) {
  switch (pairing) {
    case SchedulerOptions::Pairing::kBlossom:
      return MatchingTier::kBlossom;
    case SchedulerOptions::Pairing::kGreedy:
      return MatchingTier::kGreedy;
    case SchedulerOptions::Pairing::kApprox:
      return MatchingTier::kApprox;
    case SchedulerOptions::Pairing::kAuto:
      return num_clients >= auto_tier_threshold ? MatchingTier::kApprox
                                                : MatchingTier::kBlossom;
  }
  return MatchingTier::kBlossom;
}

matching::Matching run_matching_tier(
    const matching::CostMatrix& costs, MatchingTier tier,
    std::span<const double> vertex_serial_cost, Decibels sparsify_margin,
    std::vector<matching::WeightedEdge>& edge_scratch) {
  switch (tier) {
    case MatchingTier::kBlossom:
      return matching::min_weight_perfect_matching(costs);
    case MatchingTier::kGreedy:
      return matching::greedy_min_weight_perfect_matching(costs, edge_scratch);
    case MatchingTier::kApprox:
      return matching::approx_min_weight_perfect_matching(
          costs, vertex_serial_cost, sparsify_margin, edge_scratch);
  }
  return matching::min_weight_perfect_matching(costs);
}

void PairingReduction::begin(std::span<const double> solo) {
  solo_.assign(solo.begin(), solo.end());
  vertices_.clear();
  for (std::size_t c = 0; c < solo.size(); ++c) {
    if (std::isfinite(solo[c])) vertices_.push_back(static_cast<int>(c));
  }
  const int k = static_cast<int>(vertices_.size());
  if (k < 2) return;
  const bool odd = (k % 2) != 0;
  const int m = odd ? k + 1 : k;
  costs_.reset(m);
  // Per-vertex solo cost feeding the approximate tier's sparsification;
  // the dummy's is 0 so its edges are always dropped and the fallback
  // pairs it.
  serial_.resize(static_cast<std::size_t>(m));
  for (int u = 0; u < k; ++u) {
    const std::size_t c =
        static_cast<std::size_t>(vertices_[static_cast<std::size_t>(u)]);
    serial_[static_cast<std::size_t>(u)] = solo_[c];
    if (odd) costs_.set(u, k, solo_[c]);
  }
  if (odd) serial_[static_cast<std::size_t>(k)] = 0.0;
}

void PairingReduction::solve(SchedulerOptions::Pairing pairing,
                             int auto_tier_threshold,
                             Decibels sparsify_margin, bool shadow_approx) {
  slots_.clear();
  total_airtime_ = 0.0;
  tier_.reset();
  shadow_gap_.reset();
  const int k = static_cast<int>(vertices_.size());
  const auto add_slot = [this](int first, int second, double airtime) {
    slots_.push_back(ReducedSlot{first, second, airtime});
    total_airtime_ += airtime;
  };
  if (k == 1) {
    const int c = vertices_.front();
    add_slot(c, -1, solo_[static_cast<std::size_t>(c)]);
  } else if (k >= 2) {
    const MatchingTier tier =
        resolve_matching_tier(pairing, k, auto_tier_threshold);
    tier_ = tier;
    const matching::Matching matching =
        run_matching_tier(costs_, tier, serial_, sparsify_margin, edges_);
    if (shadow_approx && tier == MatchingTier::kBlossom &&
        matching.total_cost > 0.0 && std::isfinite(matching.total_cost)) {
      const matching::Matching shadow = run_matching_tier(
          costs_, MatchingTier::kApprox, serial_, sparsify_margin, edges_);
      if (std::isfinite(shadow.total_cost)) {
        shadow_gap_ =
            (shadow.total_cost - matching.total_cost) / matching.total_cost;
      }
    }
    for (const auto& [a, b] : matching.pairs) {
      const int u = std::min(a, b);
      const int v = std::max(a, b);  // == k: the dummy, at the solo cost
      add_slot(vertices_[static_cast<std::size_t>(u)],
               v == k ? -1 : vertices_[static_cast<std::size_t>(v)],
               costs_.at(u, v));
    }
  }
  for (std::size_t c = 0; c < solo_.size(); ++c) {
    if (!std::isfinite(solo_[c])) add_slot(static_cast<int>(c), -1, solo_[c]);
  }
  // Deterministic presentation: longest slot first (the AP may use any
  // order; tests rely on a stable one).
  std::sort(slots_.begin(), slots_.end(),
            [](const ReducedSlot& a, const ReducedSlot& b) {
              // Bit-exact tie detection keeps the sort stable across
              // platforms; airtimes are computed identically on all paths.
              if (!bitwise_equal(a.airtime, b.airtime)) {
                return a.airtime > b.airtime;
              }
              return a.first < b.first;
            });
}

}  // namespace sic::core
