#ifndef SICMAC_CORE_SCHEDULER_HPP
#define SICMAC_CORE_SCHEDULER_HPP

/// \file scheduler.hpp
/// Section 6, the paper's algorithmic contribution:
///
///   "SIC-Aware Scheduling: Given a set of backlogged clients C, and their
///    respective maximum bitrates to the AP, find all pairs of clients and
///    their associated transmit powers, such that the total time to upload
///    all the backlogged traffic is minimum."
///
/// Reduction (Fig. 12): build a complete graph over the clients; the edge
/// cost t_ij is the minimum joint completion time for the pair — the best
/// of serialized transmission and concurrent SIC transmission (optionally
/// with power control / multirate packetization). A dummy client D with
/// edge cost = the solo airtime absorbs odd client counts. A minimum-weight
/// perfect matching (Edmonds' blossom algorithm, src/matching) is then the
/// optimal pairing, and the AP serves the pairs in any order.

#include <span>
#include <vector>

#include "channel/link.hpp"
#include "core/upload_pair.hpp"
#include "phy/rate_adapter.hpp"

namespace sic::core {

/// How a scheduled slot transmits.
enum class PairMode {
  kSolo,             ///< single client, clean best rate
  kSerial,           ///< pair transmits back-to-back (SIC loses)
  kSic,              ///< concurrent SIC transmission
  kSicPowerControl,  ///< concurrent with weaker-client power reduction
  kSicMultirate,     ///< concurrent with multirate packetization
};

[[nodiscard]] constexpr const char* to_string(PairMode m) {
  switch (m) {
    case PairMode::kSolo: return "solo";
    case PairMode::kSerial: return "serial";
    case PairMode::kSic: return "sic";
    case PairMode::kSicPowerControl: return "sic+power";
    case PairMode::kSicMultirate: return "sic+multirate";
  }
  return "?";
}

struct SchedulerOptions {
  double packet_bits = 12000.0;
  bool enable_power_control = false;  ///< Section 5.2
  bool enable_multirate = false;      ///< Section 5.3
  enum class Pairing {
    kBlossom,  ///< exact minimum-weight perfect matching (the paper)
    kGreedy,   ///< cheapest-pair-first heuristic (ablation baseline)
    kApprox,   ///< sparsified greedy + 2-opt postpass (scaling tier)
    kAuto,     ///< blossom below auto_tier_threshold clients, approx above
  } pairing = Pairing::kBlossom;
  /// kAuto crossover: backlogs of auto_tier_threshold or more clients use
  /// the approximate tier, smaller ones exact blossom. At sizes just below
  /// the threshold kAuto also runs the approximate matcher observationally
  /// and publishes the relative total-airtime gap as the
  /// scheduler.matching.gap histogram (observer purity: the schedule
  /// itself always comes from the exact tier there).
  int auto_tier_threshold = 64;
  /// Margin-aware pair admission: concurrent candidates (SIC, power
  /// control, multirate) are planned as if every RSS were this many dB
  /// lower, so an admitted pair carries that much SINR headroom against
  /// stale estimates and still has to beat the (unmargined) serial
  /// baseline. The executable version of the slack argument
  /// bench/ablation_stale_rates measures open-loop. 0 dB reproduces the
  /// paper's perfect-knowledge plan exactly.
  Decibels admission_margin_db{0.0};
};

[[nodiscard]] constexpr const char* to_string(SchedulerOptions::Pairing p) {
  switch (p) {
    case SchedulerOptions::Pairing::kBlossom: return "blossom";
    case SchedulerOptions::Pairing::kGreedy: return "greedy";
    case SchedulerOptions::Pairing::kApprox: return "approx";
    case SchedulerOptions::Pairing::kAuto: return "auto";
  }
  return "?";
}

/// The chosen transmission plan for one pair (or solo client).
struct PairPlan {
  PairMode mode = PairMode::kSolo;
  double airtime = 0.0;
  /// Power scale applied to the weaker client (1.0 unless mode is
  /// kSicPowerControl).
  double weaker_power_scale = 1.0;
};

/// Airtime of a lone client at its clean best rate.
[[nodiscard]] double solo_airtime(const channel::LinkBudget& client,
                                  const phy::RateAdapter& adapter,
                                  double packet_bits);

/// The t_ij of Fig. 12: minimum joint completion time for a client pair
/// under the enabled techniques, with the winning mode recorded. Defined
/// beside PairCostEngine's row kernel, which runs the same selection.
[[nodiscard]] PairPlan best_pair_plan(const channel::LinkBudget& a,
                                      const channel::LinkBudget& b,
                                      const phy::RateAdapter& adapter,
                                      const SchedulerOptions& options);

/// One slot of the final schedule. Client indices refer to the input span;
/// second == -1 marks the odd client transmitting alone.
struct ScheduledSlot {
  int first = 0;
  int second = -1;
  PairPlan plan;
};

struct Schedule {
  std::vector<ScheduledSlot> slots;
  double total_airtime = 0.0;
  /// The admission margin the slots were planned with; the executor must
  /// derate its concurrent-rate choices identically or the plan's headroom
  /// evaporates.
  Decibels admission_margin_db{0.0};
};

/// Baseline: every client transmits alone, serially (the no-SIC MAC).
[[nodiscard]] double serial_upload_airtime(
    std::span<const channel::LinkBudget> clients,
    const phy::RateAdapter& adapter, double packet_bits);

/// The SIC-aware schedule for one backlogged packet per client.
/// Guaranteed never worse than serial_upload_airtime under the same policy.
/// A client no rate serves gets a kSolo slot of infinite airtime.
[[nodiscard]] Schedule schedule_upload(
    std::span<const channel::LinkBudget> clients,
    const phy::RateAdapter& adapter, const SchedulerOptions& options = {});

}  // namespace sic::core

#endif  // SICMAC_CORE_SCHEDULER_HPP
