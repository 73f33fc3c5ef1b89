#ifndef SICMAC_CORE_MULTIRATE_HPP
#define SICMAC_CORE_MULTIRATE_HPP

/// \file multirate.hpp
/// Section 5.3: multirate packetization [15]. Under SIC the stronger
/// client is interference-limited only while the weaker client is still
/// on air; once the weaker packet ends, the stronger client can switch the
/// *rest of its packet* to its clean-channel best rate (Fig. 10f).
///
///   t₂ = L/r₂ (weaker finishes first in the interesting regime)
///   Z_mr = t₂ + max(0, L − r₁·t₂) / r₁'     with r₁' = r(S¹/N₀)
///
/// When the stronger client would anyway finish first (extreme disparity),
/// the weaker clean-rate transmission is the bottleneck and multirate
/// cannot help — Z_mr = Z₊SIC.

#include "core/upload_pair.hpp"

namespace sic::core {

struct MultirateResult {
  double airtime = 0.0;
  /// Bits of the stronger packet sent at the interference-limited rate
  /// before the switch point (== L when multirate never engaged).
  double overlap_bits = 0.0;
  bool boosted = false;  ///< whether a rate switch actually happened
};

/// Completion time for the pair with multirate packetization on the
/// stronger client. Never worse than plain SIC (and never better than the
/// weaker packet's own airtime, which lower-bounds the pair).
[[nodiscard]] MultirateResult multirate_airtime_detailed(
    const UploadPairContext& ctx);

/// The same, from the pair's SIC rates already in hand (\p rates must be
/// sic_rates(ctx)): only the stronger client's clean rate is looked up.
[[nodiscard]] MultirateResult multirate_airtime_detailed(
    const UploadPairContext& ctx, const SicRatePair& rates);

[[nodiscard]] double multirate_airtime(const UploadPairContext& ctx);

}  // namespace sic::core

#endif  // SICMAC_CORE_MULTIRATE_HPP
