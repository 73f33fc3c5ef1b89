#ifndef SICMAC_CORE_UPLOAD_PAIR_HPP
#define SICMAC_CORE_UPLOAD_PAIR_HPP

/// \file upload_pair.hpp
/// Section 3.1: two transmitters, one packet each, one common receiver —
/// the WLAN-upload building block the paper identifies as SIC's sweet spot.
///
///   eq (5)  Z₋SIC = L/r(S¹/N₀) + L/r(S²/N₀)            (serial)
///   eq (6)  Z₊SIC = max( L/r(S¹/(S²+N₀)), L/r(S²/N₀) ) (concurrent)
///
/// where r(·) is the SINR→rate policy. With the Shannon adapter these are
/// literally equations (5) and (6); with a discrete adapter they are the
/// Section 7 "discrete bitrates" variants. The gain Z₋/Z₊ peaks when both
/// concurrent rates are equal, i.e. S¹ ≈ (S²)²/N₀ — "twice in terms of SNR
/// in dB" (Fig. 4).

#include "phy/capacity.hpp"
#include "phy/rate_adapter.hpp"
#include "util/units.hpp"

namespace sic::core {

/// Everything needed to evaluate one upload pair.
struct UploadPairContext {
  phy::TwoSignalArrival arrival;  ///< RSS of both clients at the AP + noise
  double packet_bits = 12000.0;   ///< L (1500-byte frame by default)
  const phy::RateAdapter* adapter = nullptr;

  [[nodiscard]] static UploadPairContext make(Milliwatts s1, Milliwatts s2,
                                              Milliwatts noise,
                                              const phy::RateAdapter& adapter,
                                              double packet_bits = 12000.0);
};

/// The two concurrent SIC-constrained rates (stronger first).
struct SicRatePair {
  BitsPerSecond stronger;  ///< eq (1): interference-limited
  BitsPerSecond weaker;    ///< eq (2): clean after cancellation
};

/// Practical-receiver impairments (the Section 9 caveats; [13] shows they
/// "sharply cut down SIC's usefulness"). Defaults reproduce the paper's
/// idealized analysis.
struct SicImpairments {
  /// Fraction of the cancelled signal's power left behind by imperfect
  /// channel estimation / reconstruction; interferes with the weaker
  /// signal's decode.
  double cancellation_residual = 0.0;
  /// ADC dynamic-range limit: when the stronger arrival exceeds the weaker
  /// by more than this, the weaker is unrecoverable even after perfect
  /// cancellation.
  Decibels max_decodable_disparity{1e9};
};

[[nodiscard]] SicRatePair sic_rates(const UploadPairContext& ctx);

/// Impairment-aware variant: the weaker rate is computed against the
/// cancellation residual and zeroed past the ADC disparity limit.
[[nodiscard]] SicRatePair sic_rates(const UploadPairContext& ctx,
                                    const SicImpairments& impairments);

/// eq (5): serial transmission of both packets at their clean best rates.
/// +inf when either link cannot sustain any rate.
[[nodiscard]] double serial_airtime(const UploadPairContext& ctx);

/// eq (6): concurrent SIC transmission; +inf when either SIC-constrained
/// rate is zero (SIC infeasible under this rate policy).
[[nodiscard]] double sic_airtime(const UploadPairContext& ctx);

/// eq (6) from rates already in hand: the slower of the two packets.
[[nodiscard]] double sic_airtime(const SicRatePair& rates, double packet_bits);

/// Impairment-aware eq (6).
[[nodiscard]] double sic_airtime(const UploadPairContext& ctx,
                                 const SicImpairments& impairments);

/// Impairment-aware realized gain (>= 1; serial fallback).
[[nodiscard]] double realized_gain(const UploadPairContext& ctx,
                                   const SicImpairments& impairments);

/// Raw ratio Z₋SIC/Z₊SIC (Fig. 4's color value). May be < 1: concurrency
/// can lose to serial when the RSS disparity is extreme. Returns 0 when
/// both are infinite.
[[nodiscard]] double sic_gain(const UploadPairContext& ctx);

/// The gain a rational MAC actually realizes: it falls back to serial when
/// SIC loses, so the realized gain is max(1, sic_gain).
[[nodiscard]] double realized_gain(const UploadPairContext& ctx);

/// The RSS (linear) of the *stronger* client at which the two concurrent
/// rates are exactly equal for a given weaker RSS — the Fig. 4 ridge:
/// S¹* = S²·(S² + N₀)/N₀, i.e. SNR₁ = SNR₂·(SNR₂+1) ≈ SNR₂² (square law,
/// "twice in dB"). Shannon-policy closed form.
[[nodiscard]] Milliwatts equal_rate_stronger_rss(Milliwatts weaker,
                                                 Milliwatts noise);

}  // namespace sic::core

#endif  // SICMAC_CORE_UPLOAD_PAIR_HPP
