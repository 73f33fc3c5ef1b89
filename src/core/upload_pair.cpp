#include "core/upload_pair.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace sic::core {

UploadPairContext UploadPairContext::make(Milliwatts s1, Milliwatts s2,
                                          Milliwatts noise,
                                          const phy::RateAdapter& adapter,
                                          double packet_bits) {
  SIC_CHECK(packet_bits > 0.0);
  UploadPairContext ctx;
  ctx.arrival = phy::TwoSignalArrival::make(s1, s2, noise);
  ctx.packet_bits = packet_bits;
  ctx.adapter = &adapter;
  return ctx;
}

SicRatePair sic_rates(const UploadPairContext& ctx) {
  SIC_CHECK(ctx.adapter != nullptr);
  const auto& a = ctx.arrival;
  SicRatePair out;
  out.stronger = ctx.adapter->rate(a.stronger / (a.weaker + a.noise));
  out.weaker = ctx.adapter->rate(a.weaker / a.noise);
  return out;
}

SicRatePair sic_rates(const UploadPairContext& ctx,
                      const SicImpairments& impairments) {
  SIC_CHECK(ctx.adapter != nullptr);
  SIC_CHECK(impairments.cancellation_residual >= 0.0 &&
            impairments.cancellation_residual <= 1.0);
  const auto& a = ctx.arrival;
  SicRatePair out;
  out.stronger = ctx.adapter->rate(a.stronger / (a.weaker + a.noise));
  if (a.weaker.value() > 0.0 &&
      Decibels::from_linear(a.stronger / a.weaker) >
          impairments.max_decodable_disparity) {
    out.weaker = BitsPerSecond{0.0};  // ADC saturation: weaker unrecoverable
    return out;
  }
  out.weaker = ctx.adapter->rate(
      a.weaker /
      (a.stronger * impairments.cancellation_residual + a.noise));
  return out;
}

double serial_airtime(const UploadPairContext& ctx) {
  SIC_CHECK(ctx.adapter != nullptr);
  const auto& a = ctx.arrival;
  const auto r1 = ctx.adapter->rate(a.stronger / a.noise);
  const auto r2 = ctx.adapter->rate(a.weaker / a.noise);
  return airtime_seconds(ctx.packet_bits, r1) +
         airtime_seconds(ctx.packet_bits, r2);
}

double sic_airtime(const SicRatePair& rates, double packet_bits) {
  return std::max(airtime_seconds(packet_bits, rates.stronger),
                  airtime_seconds(packet_bits, rates.weaker));
}

double sic_airtime(const UploadPairContext& ctx) {
  return sic_airtime(sic_rates(ctx), ctx.packet_bits);
}

double sic_airtime(const UploadPairContext& ctx,
                   const SicImpairments& impairments) {
  return sic_airtime(sic_rates(ctx, impairments), ctx.packet_bits);
}

double realized_gain(const UploadPairContext& ctx,
                     const SicImpairments& impairments) {
  const double z_minus = serial_airtime(ctx);
  const double z_plus = sic_airtime(ctx, impairments);
  if (!std::isfinite(z_plus) || !std::isfinite(z_minus)) return 1.0;
  return std::max(1.0, z_minus / z_plus);
}

double sic_gain(const UploadPairContext& ctx) {
  const double z_minus = serial_airtime(ctx);
  const double z_plus = sic_airtime(ctx);
  if (!std::isfinite(z_plus)) return 0.0;
  if (!std::isfinite(z_minus)) {
    return std::numeric_limits<double>::infinity();
  }
  return z_minus / z_plus;
}

double realized_gain(const UploadPairContext& ctx) {
  return std::max(1.0, sic_gain(ctx));
}

Milliwatts equal_rate_stronger_rss(Milliwatts weaker, Milliwatts noise) {
  SIC_CHECK(noise.value() > 0.0);
  // Equal rates: S¹/(S²+N₀) = S²/N₀  ⇒  S¹ = S²(S²+N₀)/N₀.
  return Milliwatts{weaker.value() * (weaker.value() + noise.value()) /
                    noise.value()};
}

}  // namespace sic::core
