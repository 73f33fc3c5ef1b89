#include "core/multirate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace sic::core {

MultirateResult multirate_airtime_detailed(const UploadPairContext& ctx) {
  return multirate_airtime_detailed(ctx, sic_rates(ctx));
}

MultirateResult multirate_airtime_detailed(const UploadPairContext& ctx,
                                           const SicRatePair& rates) {
  SIC_CHECK(ctx.adapter != nullptr);
  const double l = ctx.packet_bits;
  const double t_strong = airtime_seconds(l, rates.stronger);
  const double t_weak = airtime_seconds(l, rates.weaker);

  MultirateResult out;
  if (!std::isfinite(t_weak)) {
    // Weaker link dead even after cancellation: SIC (and multirate) is
    // infeasible for the pair.
    out.airtime = std::numeric_limits<double>::infinity();
    out.overlap_bits = 0.0;
    return out;
  }
  if (t_strong <= t_weak) {
    // The weaker clean-rate packet is the bottleneck; nothing to boost.
    out.airtime = t_weak;
    out.overlap_bits = l;
    return out;
  }
  // Stronger client lags: send r₁·t₂ bits under interference, then boost
  // the remainder to the clean rate.
  const double clean_rate =
      ctx.adapter->rate(ctx.arrival.stronger / ctx.arrival.noise).value();
  out.overlap_bits = rates.stronger.value() * t_weak;
  const double remaining = std::max(0.0, l - out.overlap_bits);
  if (clean_rate <= 0.0) {
    out.airtime = t_strong;  // cannot boost; fall back to plain SIC
    return out;
  }
  out.airtime = t_weak + remaining / clean_rate;
  out.boosted = remaining > 0.0;
  return out;
}

double multirate_airtime(const UploadPairContext& ctx) {
  return multirate_airtime_detailed(ctx).airtime;
}

}  // namespace sic::core
