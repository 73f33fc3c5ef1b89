#include "core/pair_cost_engine.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/multirate.hpp"
#include "core/power_control.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/mathx.hpp"

namespace sic::core {

namespace {

/// Build scratch, shared by every engine on a thread. Only the plan cache
/// and the per-client state must outlive a build; a deployment keeps one
/// engine per AP for its whole run, so per-engine scratch would be paid
/// once per AP. Builds never nest on a thread.
struct BuildScratch {
  PairingReduction reduction;
  std::vector<double> solo;                   ///< solo airtime per position
  std::vector<int> row_cols;                  ///< dirty columns of a row
  std::vector<double> row_sinr;               ///< both SIC SINR lanes
  std::vector<BitsPerSecond> row_rates;       ///< rate_span results
};

thread_local BuildScratch tl_build_scratch;

/// The t_ij of Fig. 12 for a pair whose margin-derated context is \p ctx
/// and whose unscaled SIC rates are \p unit (sic_rates(ctx), looked up
/// once: plain SIC, the power-control search's β = 1 start and
/// multirate's overlap all share them). \p serial_airtime is the
/// unmargined solo-airtime sum of the two clients. Candidates are tried in
/// a fixed order and only a strictly shorter airtime replaces the best.
inline PairPlan select_pair_plan(const UploadPairContext& ctx,
                                 const SicRatePair& unit,
                                 double serial_airtime,
                                 const SchedulerOptions& options) {
  PairPlan best{PairMode::kSerial, serial_airtime, 1.0};
  const double t_sic = sic_airtime(unit, ctx.packet_bits);
  if (t_sic < best.airtime) {
    best = PairPlan{PairMode::kSic, t_sic, 1.0};
  }
  if (options.enable_power_control) {
    const auto pc = optimize_weaker_power(ctx, unit);
    if (pc.applied && pc.airtime < best.airtime) {
      best = PairPlan{PairMode::kSicPowerControl, pc.airtime, pc.scale};
    }
  }
  if (options.enable_multirate) {
    const auto mr = multirate_airtime_detailed(ctx, unit);
    if (mr.boosted && mr.airtime < best.airtime) {
      best = PairPlan{PairMode::kSicMultirate, mr.airtime, 1.0};
    }
  }
  return best;
}

}  // namespace

PairPlan best_pair_plan(const channel::LinkBudget& a,
                        const channel::LinkBudget& b,
                        const phy::RateAdapter& adapter,
                        const SchedulerOptions& options) {
  SIC_CHECK_MSG(a.noise == b.noise,
                "pair plan assumes a common receiver noise floor");
  SIC_CHECK_MSG(options.admission_margin_db.value() >= 0.0,
                "admission margin must be >= 0 dB");
  // Concurrent candidates are evaluated on a derated view of the channel
  // (both RSS backed off by the admission margin); the serial baseline
  // keeps the clean rates. A margined pair is therefore only admitted when
  // it beats serial *with headroom to spare*, and its recorded airtime is
  // the conservative one the executor realizes.
  const double derate = Decibels{-options.admission_margin_db.value()}.linear();
  const auto ctx = UploadPairContext::make(a.rss * derate, b.rss * derate,
                                           a.noise, adapter,
                                           options.packet_bits);
  return select_pair_plan(ctx, sic_rates(ctx),
                          solo_airtime(a, adapter, options.packet_bits) +
                              solo_airtime(b, adapter, options.packet_bits),
                          options);
}

PairCostEngine::PairCostEngine(const phy::RateAdapter& adapter,
                               SchedulerOptions options)
    : adapter_(&adapter) {
  reset(adapter, options);
}

void PairCostEngine::reset(const phy::RateAdapter& adapter,
                           SchedulerOptions options) {
  adapter_ = &adapter;
  options_ = options;
  derate_ = Decibels{-options.admission_margin_db.value()}.linear();
  noise_ = Milliwatts{0.0};
  n_ = 0;
  all_indices_.clear();
  last_tier_ = MatchingTier::kBlossom;
  stats_ = PairCostEngineStats{};
  published_ = PairCostEngineStats{};
}

void PairCostEngine::refresh_derived(int client) {
  const std::size_t c = static_cast<std::size_t>(client);
  derated_rss_[c] = rss_[c] * derate_;
  solo_airtime_[c] = solo_airtime(channel::LinkBudget{rss_[c], noise_},
                                  *adapter_, options_.packet_bits);
}

void PairCostEngine::set_clients(
    std::span<const channel::LinkBudget> clients) {
  n_ = static_cast<int>(clients.size());
  const std::size_t n = clients.size();
  noise_ = clients.empty() ? Milliwatts{0.0} : clients.front().noise;
  if (n_ >= 2) {
    SIC_CHECK_MSG(options_.admission_margin_db.value() >= 0.0,
                  "admission margin must be >= 0 dB");
    for (const auto& c : clients) {
      SIC_CHECK_MSG(c.noise == noise_,
                    "pair plan assumes a common receiver noise floor");
    }
  }
  rss_.resize(n);
  derated_rss_.resize(n);
  solo_airtime_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    rss_[c] = clients[c].rss;
    refresh_derived(static_cast<int>(c));
  }
  // The n × n tables are sized exactly, not left at a reused engine's
  // largest client set: a deployment keeps one engine per AP for its whole
  // run, and every AP's peak membership would stay allocated.
  plans_.assign(n * n, PairPlan{});
  plans_.shrink_to_fit();
  valid_.assign(n * n, 0);
  valid_.shrink_to_fit();
  all_indices_.resize(n);
  std::iota(all_indices_.begin(), all_indices_.end(), 0);
}

void PairCostEngine::update_client(int client, Milliwatts rss) {
  if (client < 0 || client >= n_) {
    throw std::out_of_range(
        "PairCostEngine::update_client: client index " +
        std::to_string(client) + " outside [0, " + std::to_string(n_) +
        ") — stale handoff against a changed topology?");
  }
  const std::size_t c = static_cast<std::size_t>(client);
  // Bit-exact: an unchanged RSS keeps the row and its cached plans.
  if (bitwise_equal(rss.value(), rss_[c].value())) return;
  rss_[c] = rss;
  refresh_derived(client);
  invalidate_row(client);
  ++stats_.row_invalidations;
}

void PairCostEngine::invalidate_row(int client) {
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::size_t c = static_cast<std::size_t>(client);
  for (std::size_t j = 0; j < n; ++j) {
    valid_[c * n + j] = 0;
    valid_[j * n + c] = 0;
  }
}

void PairCostEngine::compute_row(int gi, std::span<const int> cols) {
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::size_t count = cols.size();
  // Hoisted UploadPairContext::make preconditions: one noise and packet
  // size check per row, not one per pair.
  SIC_CHECK_MSG(noise_.value() > 0.0, "noise floor must be positive");
  SIC_CHECK(options_.packet_bits > 0.0);
  const double noise_mw = noise_.value();

  // Pass 1 — stronger/weaker normalization and both SIC SINRs, streaming
  // the SoA arrays. Lane layout: [0, count) stronger, [count, 2·count)
  // weaker. The (s1 >= s2 → s1 is stronger) rule with s1 the lower client
  // index replicates TwoSignalArrival::make called on (min, max) exactly.
  std::vector<double>& row_sinr = tl_build_scratch.row_sinr;
  std::vector<BitsPerSecond>& row_rates = tl_build_scratch.row_rates;
  row_sinr.resize(2 * count);
  row_rates.resize(2 * count);
  for (std::size_t t = 0; t < count; ++t) {
    const int gj = cols[t];
    const std::size_t a = static_cast<std::size_t>(std::min(gi, gj));
    const std::size_t b = static_cast<std::size_t>(std::max(gi, gj));
    const double s1 = derated_rss_[a].value();
    const double s2 = derated_rss_[b].value();
    SIC_CHECK_MSG(s1 >= 0.0 && s2 >= 0.0, "linear RSS must be non-negative");
    const double stronger = s1 >= s2 ? s1 : s2;
    const double weaker = s1 >= s2 ? s2 : s1;
    row_sinr[t] = stronger / (weaker + noise_mw);
    row_sinr[count + t] = weaker / noise_mw;
  }

  // Pass 2 — every rate lookup of the row in one batched call: a single
  // virtual dispatch instead of two per pair.
  adapter_->rate_span(row_sinr, row_rates);

  // Pass 3 — plan selection, with the pair's SIC rates from pass 2 (its
  // SINRs are sic_rates' expressions on the same normalized context).
  for (std::size_t t = 0; t < count; ++t) {
    const int gj = cols[t];
    const std::size_t a = static_cast<std::size_t>(std::min(gi, gj));
    const std::size_t b = static_cast<std::size_t>(std::max(gi, gj));
    // UploadPairContext::make's normalization; its checks ran above.
    const Milliwatts s1 = derated_rss_[a];
    const Milliwatts s2 = derated_rss_[b];
    const UploadPairContext ctx{
        s1 >= s2 ? phy::TwoSignalArrival{s1, s2, noise_}
                 : phy::TwoSignalArrival{s2, s1, noise_},
        options_.packet_bits, adapter_};
    const PairPlan best = select_pair_plan(
        ctx, SicRatePair{row_rates[t], row_rates[count + t]},
        solo_airtime_[a] + solo_airtime_[b], options_);
    plans_[a * n + b] = best;
    plans_[b * n + a] = best;
    valid_[a * n + b] = 1;
    valid_[b * n + a] = 1;
    ++stats_.pair_evals;
  }
}

Schedule PairCostEngine::schedule() { return schedule_indices(all_indices_); }

Schedule PairCostEngine::schedule_subset(std::span<const int> clients) {
  for (const int c : clients) SIC_CHECK(c >= 0 && c < n_);
  return schedule_indices(clients);
}

Schedule PairCostEngine::schedule_indices(std::span<const int> idx) {
  Schedule schedule;
  schedule.admission_margin_db = options_.admission_margin_db;
  if (idx.empty()) return schedule;
  ++stats_.builds;

  BuildScratch& scratch = tl_build_scratch;
  scratch.solo.clear();
  for (const int c : idx) {
    scratch.solo.push_back(solo_airtime_[static_cast<std::size_t>(c)]);
  }
  PairingReduction& reduction = scratch.reduction;
  reduction.begin(scratch.solo);
  const std::span<const int> vertices = reduction.vertices();
  const int k = static_cast<int>(vertices.size());
  const std::size_t n = static_cast<std::size_t>(n_);
  // Engine client at position \p pos of idx, and at matching vertex \p u.
  const auto at = [&](int pos) { return idx[static_cast<std::size_t>(pos)]; };
  const auto client = [&](int u) {
    return at(vertices[static_cast<std::size_t>(u)]);
  };
  obs::MetricsRegistry* reg = obs::metrics();
  if (k >= 2) {
    // Only dirty pairs reach the kernel — a row at a time, so the batched
    // passes amortize — everything else is a cache read.
    std::vector<int>& row_cols = scratch.row_cols;
    obs::ScopedTimer kernel_timer{
        reg != nullptr
            ? &reg->histogram("scheduler.pair_engine.kernel_wall_s")
            : nullptr};
    for (int u = 0; u < k; ++u) {
      const int gi = client(u);
      row_cols.clear();
      for (int v = u + 1; v < k; ++v) {
        const int gj = client(v);
        const std::size_t a = static_cast<std::size_t>(std::min(gi, gj));
        const std::size_t b = static_cast<std::size_t>(std::max(gi, gj));
        if (valid_[a * n + b] != 0) {
          ++stats_.pair_cache_hits;
        } else {
          row_cols.push_back(gj);
        }
      }
      if (!row_cols.empty()) compute_row(gi, row_cols);
      for (int v = u + 1; v < k; ++v) {
        const int gj = client(v);
        reduction.set_cost(u, v,
                           plans_[static_cast<std::size_t>(gi) * n +
                                  static_cast<std::size_t>(gj)]
                               .airtime);
      }
    }
  }

  // kAuto below the threshold also runs the approximate matcher
  // observationally and publishes the relative total-airtime gap — the
  // calibration signal for choosing the crossover. Observer-pure: the
  // schedule comes from the exact matching either way, and the shadow run
  // only happens with a registry attached.
  reduction.solve(options_.pairing, options_.auto_tier_threshold,
                  options_.admission_margin_db,
                  options_.pairing == SchedulerOptions::Pairing::kAuto &&
                      reg != nullptr);
  if (const auto tier = reduction.tier()) last_tier_ = *tier;
  if (const auto gap = reduction.shadow_gap(); gap && reg != nullptr) {
    reg->histogram("scheduler.matching.gap").observe(*gap);
  }
  for (const ReducedSlot& s : reduction.slots()) {
    PairPlan plan{PairMode::kSolo, s.airtime, 1.0};
    if (s.second >= 0) {
      plan = plans_[static_cast<std::size_t>(at(s.first)) * n +
                    static_cast<std::size_t>(at(s.second))];
    }
    schedule.slots.push_back(ScheduledSlot{s.first, s.second, plan});
  }
  schedule.total_airtime = reduction.total_airtime();
  publish_stats();
  return schedule;
}

void PairCostEngine::publish_stats() {
  obs::MetricsRegistry* reg = obs::metrics();
  if (reg == nullptr) return;
  reg->counter("scheduler.pair_engine.builds")
      .inc(stats_.builds - published_.builds);
  reg->counter("scheduler.pair_engine.row_invalidations")
      .inc(stats_.row_invalidations - published_.row_invalidations);
  reg->counter("scheduler.pair_engine.pair_evals")
      .inc(stats_.pair_evals - published_.pair_evals);
  reg->counter("scheduler.pair_engine.cache_hits")
      .inc(stats_.pair_cache_hits - published_.pair_cache_hits);
  published_ = stats_;
}

}  // namespace sic::core
