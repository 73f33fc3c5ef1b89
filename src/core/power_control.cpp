#include "core/power_control.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "util/check.hpp"

namespace sic::core {

namespace {

/// The two SIC-constrained rates at a given weaker-power scale. Reducing
/// the weaker client's power can never flip the strength order.
SicRatePair rates_at_scale(const UploadPairContext& ctx, double scale) {
  UploadPairContext scaled = ctx;
  scaled.arrival.weaker = ctx.arrival.weaker * scale;
  return sic_rates(scaled);
}

/// The pair at weaker-power scale \p scale, whose SIC rates are \p rates;
/// the airtime is derived from them, not looked up again.
PowerControlResult result_at_scale(const UploadPairContext& ctx, double scale,
                                   const SicRatePair& rates) {
  PowerControlResult out;
  out.scale = scale;
  out.rates = rates;
  out.airtime = sic_airtime(rates, ctx.packet_bits);
  out.applied = scale < 1.0;
  return out;
}

/// Shannon-policy closed form: the βS² at which the two rates are equal.
double equal_rate_weaker_rss(const phy::TwoSignalArrival& a) {
  const double n0 = a.noise.value();
  const double s1 = a.stronger.value();
  return (-n0 + std::sqrt(n0 * n0 + 4.0 * s1 * n0)) / 2.0;
}

constexpr double kMinDb = -40.0;
constexpr int kCoarse = 201;  // 0.2 dB steps over [-40 dB, 0 dB]
constexpr int kFine = 81;     // ±0.2 dB at 0.005 dB steps

/// The dB grids of the generic search and their linear scales, shared by
/// every pair. The search used to pay kCoarse + kFine std::pow calls per
/// pair; precomputing the grids once per process removes all of them while
/// keeping the evaluated scales bit-identical (same pow, same arguments).
struct ScaleTables {
  std::array<double, kCoarse> coarse_scale;
  /// fine_scale[c][i]: fine point i of the refinement window around coarse
  /// point c, including the original loop's min(0 dB, ·) clamp.
  std::array<std::array<double, kFine>, kCoarse> fine_scale;
};

const ScaleTables& scale_tables() {
  static const ScaleTables tables = [] {
    ScaleTables t;
    for (int c = 0; c < kCoarse; ++c) {
      const double db = kMinDb + (0.0 - kMinDb) * c / (kCoarse - 1);
      t.coarse_scale[static_cast<std::size_t>(c)] = Decibels{db}.linear();
      for (int i = 0; i < kFine; ++i) {
        const double fine_db =
            std::min(0.0, db - 0.2 + 0.4 * i / (kFine - 1));
        t.fine_scale[static_cast<std::size_t>(c)][static_cast<std::size_t>(
            i)] = Decibels{fine_db}.linear();
      }
    }
    return t;
  }();
  return tables;
}

bool same_rates(const SicRatePair& a, const SicRatePair& b) {
  return a.stronger.value() == b.stronger.value() &&
         a.weaker.value() == b.weaker.value();
}

/// Minimizes the objective over an ascending scale grid by plateau
/// skipping instead of point-by-point evaluation. Both SIC rates are
/// monotone in the scale (the weaker's SINR rises with it, the stronger's
/// falls, and RateAdapter is monotone in SINR), so equal rate pairs at two
/// grid points pin every point in between to the same rates — and hence
/// the same airtime. For a discrete rate table the plateau boundaries are
/// its SINR thresholds, so one pass costs O(table · log grid) rate lookups
/// instead of evaluating all `grid` points; probing the actual adapter at
/// grid points (rather than inverting thresholds algebraically) keeps the
/// boundary placement bit-exact.
///
/// Only the first point of each plateau is fully evaluated, which is the
/// point the exhaustive loop would have recorded: its strict `<` keeps the
/// first point of the winning plateau. Points at scale exactly 1.0 (the
/// 0 dB grid end and the refinement window's clamped duplicates) are
/// skipped outright — they re-evaluate the β = 1 starting point, which the
/// strict `<` can never replace.
void refine_over_grid(const UploadPairContext& ctx,
                      std::span<const double> scales,
                      PowerControlResult& best, int* best_index) {
  std::size_t seg = 0;
  while (seg < scales.size()) {
    if (scales[seg] == 1.0) {
      ++seg;
      continue;
    }
    const SicRatePair seg_rates = rates_at_scale(ctx, scales[seg]);
    // Bisect for the last grid index sharing this plateau's rates.
    std::size_t lo = seg;
    std::size_t hi = scales.size() - 1;
    if (same_rates(seg_rates, rates_at_scale(ctx, scales[hi]))) {
      lo = hi;
    } else {
      while (lo + 1 < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (same_rates(seg_rates, rates_at_scale(ctx, scales[mid]))) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }
    const PowerControlResult cand =
        result_at_scale(ctx, scales[seg], seg_rates);
    if (cand.airtime < best.airtime) {
      best = cand;
      if (best_index != nullptr) *best_index = static_cast<int>(seg);
    }
    seg = lo + 1;
  }
}

}  // namespace

PowerControlResult optimize_weaker_power(const UploadPairContext& ctx) {
  return optimize_weaker_power(ctx, sic_rates(ctx));
}

PowerControlResult optimize_weaker_power(const UploadPairContext& ctx,
                                         const SicRatePair& unit_rates) {
  SIC_CHECK(ctx.adapter != nullptr);
  PowerControlResult best = result_at_scale(ctx, 1.0, unit_rates);
  if (ctx.arrival.weaker.value() <= 0.0) return best;

  if (dynamic_cast<const phy::ShannonRateAdapter*>(ctx.adapter) != nullptr) {
    const double target = equal_rate_weaker_rss(ctx.arrival);
    const double scale = target / ctx.arrival.weaker.value();
    if (scale < 1.0) {
      PowerControlResult cand =
          result_at_scale(ctx, scale, rates_at_scale(ctx, scale));
      if (cand.airtime < best.airtime) return cand;
    }
    return best;
  }

  // Generic (discrete) policy: coarse dB grid over [-40 dB, 0 dB] with one
  // local refinement pass around the best coarse point. Equivalent to
  // evaluating every grid point (pinned by test against the exhaustive
  // loop), but via precomputed scales and plateau skipping.
  const ScaleTables& tables = scale_tables();
  int best_coarse = kCoarse - 1;  // 0 dB — the refinement window when no
                                  // coarse point beats β = 1.
  refine_over_grid(ctx, tables.coarse_scale, best, &best_coarse);
  refine_over_grid(
      ctx, tables.fine_scale[static_cast<std::size_t>(best_coarse)], best,
      nullptr);
  return best;
}

double power_controlled_airtime(const UploadPairContext& ctx) {
  return optimize_weaker_power(ctx).airtime;
}

}  // namespace sic::core
