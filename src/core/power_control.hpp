#ifndef SICMAC_CORE_POWER_CONTROL_HPP
#define SICMAC_CORE_POWER_CONTROL_HPP

/// \file power_control.hpp
/// Section 5.2: "gain with SIC can be increased by reducing the power of
/// the weaker client, when the RSSs at the AP of both clients are close."
/// Scaling the weaker client's transmit power by β ∈ (0, 1] moves the pair
/// along a trade-off — the stronger client's interference-limited rate
/// rises, the weaker client's clean rate falls — and the completion time
/// max(L/r₁(β), L/r₂(β)) is minimized where the two rates meet.
///
/// Shannon closed form: equal rates ⇔ S¹/(βS² + N₀) = βS²/N₀, a quadratic
/// in (βS²):  (βS²)² + N₀(βS²) − S¹N₀ = 0  ⇒  βS²* = (−N₀ + √(N₀² + 4S¹N₀))/2.
/// Power is only ever *reduced* (the paper rules out boosting, Section 5.4),
/// so when βS²* > S² no reduction helps and the pair is left untouched.
///
/// For non-Shannon (discrete) policies, the same objective is minimized by
/// a dB-domain grid search with local refinement — the objective is the max
/// of a non-increasing and a non-decreasing step function of β, so a fine
/// grid finds the optimum basin exactly. The implementation walks the grid
/// by rate plateaus (bisecting for the indices where either SIC rate steps,
/// i.e. the rate table's SINR thresholds) over scales precomputed once per
/// process, which returns bit-identical results to the exhaustive scan at a
/// fraction of its cost — the scan paid 282 std::pow calls per pair.

#include "core/upload_pair.hpp"

namespace sic::core {

struct PowerControlResult {
  /// Linear power scale applied to the weaker client (1.0 = no change).
  double scale = 1.0;
  /// Completion time after the optimization (== sic_airtime when no
  /// reduction helps).
  double airtime = 0.0;
  /// Rates actually achieved at the chosen scale.
  SicRatePair rates;
  /// Whether any reduction was applied.
  bool applied = false;
};

/// Minimizes the pair completion time over weaker-client power scales
/// β ∈ (0, 1]. Never returns a result worse than plain SIC.
[[nodiscard]] PowerControlResult optimize_weaker_power(
    const UploadPairContext& ctx);

/// The same, starting from the pair's unscaled SIC rates already in hand
/// (\p unit_rates must be sic_rates(ctx)), so β = 1 costs no rate lookup.
[[nodiscard]] PowerControlResult optimize_weaker_power(
    const UploadPairContext& ctx, const SicRatePair& unit_rates);

/// Completion time with the optimal weaker-power reduction applied.
[[nodiscard]] double power_controlled_airtime(const UploadPairContext& ctx);

}  // namespace sic::core

#endif  // SICMAC_CORE_POWER_CONTROL_HPP
