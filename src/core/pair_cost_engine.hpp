#ifndef SICMAC_CORE_PAIR_COST_ENGINE_HPP
#define SICMAC_CORE_PAIR_COST_ENGINE_HPP

/// \file pair_cost_engine.hpp
/// Incremental pair-cost engine for the Fig. 12 scheduling reduction.
///
/// The reduction's dominant cost at realistic client counts is not the
/// matching but the all-pairs completion-time matrix feeding it: n(n−1)/2
/// pair-plan evaluations, each re-deriving per-client state (solo airtime,
/// margin-derated RSS) that only depends on one endpoint. The engine splits
/// that work into
///
///  - per-client derived state, computed once per client and reused across
///    the client's whole row (SoA layout: rss / derated rss / solo airtime
///    in parallel arrays),
///  - a batched row kernel whose plan selection is the one best_pair_plan
///    runs, so the two cannot disagree, and
///  - a pair-plan cache with dirty-row invalidation keyed on the client's
///    channel fingerprint (its linear RSS): update_client() invalidates a
///    row only when the estimate actually changed, so a re-matching round
///    after re-estimation recomputes O(Δn·n) plans instead of O(n²), with
///    the plan table reused across rounds instead of reallocated (and the
///    matching reduction and row scratch shared by every engine on the
///    thread).
///
/// Contract: schedules are bit-identical to a from-scratch build (same
/// PairPlans, same matching input, same slot order), because the cache
/// only ever skips recomputations whose inputs are unchanged. Pinned by
/// tests/pair_cost_engine_test.cpp.
///
/// Observability: each schedule() / schedule_subset() publishes engine
/// counters (pair evals, cache hits, row invalidations, builds) and a
/// kernel wall-time histogram under scheduler.pair_engine.* at the build
/// boundary, following the zero-cost-when-detached contract — the hot path
/// accumulates plain integers and never touches the registry.

#include <cstdint>
#include <span>
#include <vector>

#include "channel/link.hpp"
#include "core/matching_tier.hpp"
#include "core/scheduler.hpp"
#include "phy/rate_adapter.hpp"

namespace sic::core {

/// Monotone counters for one engine instance (schedule-independent: they
/// depend only on the sequence of set_clients/update_client/schedule calls,
/// never on wall clock or thread placement).
struct PairCostEngineStats {
  std::uint64_t builds = 0;             ///< schedule()/schedule_subset() calls
  std::uint64_t row_invalidations = 0;  ///< rows dirtied by a new estimate
  std::uint64_t pair_evals = 0;         ///< pair plans computed by the kernel
  std::uint64_t pair_cache_hits = 0;    ///< pair plans served from cache
};

class PairCostEngine {
 public:
  /// \p adapter must outlive the engine.
  PairCostEngine(const phy::RateAdapter& adapter, SchedulerOptions options);

  /// Returns the engine to the state the constructor leaves with these
  /// arguments — no clients, zeroed stats — keeping its storage, so a
  /// caller that re-plans a new client set can reuse one engine instead
  /// of constructing another.
  void reset(const phy::RateAdapter& adapter, SchedulerOptions options);

  /// Installs a new client set: every row becomes dirty (a full rebuild),
  /// unconditionally — set_clients means "new topology", so counters stay
  /// independent of whatever happened to be cached. Storage is reused.
  /// Clients must share one noise floor when there are two or more.
  void set_clients(std::span<const channel::LinkBudget> clients);

  /// Re-estimates one client's RSS. Invalidates the client's row only when
  /// the estimate changed (bit for bit); otherwise the row keeps its cached
  /// plans. Throws std::out_of_range
  /// when \p client is not a current client index — callers racing a
  /// handoff against a topology change get a typed error instead of an
  /// out-of-bounds write.
  void update_client(int client, Milliwatts rss);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }
  [[nodiscard]] const PairCostEngineStats& stats() const { return stats_; }

  /// The concrete matcher the most recent schedule()/schedule_subset()
  /// resolved to (meaningful once a build with >= 2 servable clients ran;
  /// see PairingReduction for clients no rate serves); how a
  /// kAuto policy reports which side of the threshold it landed on.
  [[nodiscard]] MatchingTier last_matching_tier() const { return last_tier_; }

  /// The schedule over all clients; recomputes dirty pairs only.
  [[nodiscard]] Schedule schedule();

  /// The schedule over a subset of clients (the closed-loop executor's
  /// residual backlog). Slot indices refer to positions in \p clients, so
  /// the result is interchangeable with schedule_upload() called on the
  /// subset's budgets. Indices must be distinct and in range.
  [[nodiscard]] Schedule schedule_subset(std::span<const int> clients);

 private:
  /// Batched row kernel: computes and caches the pair plans of client
  /// \p gi against every client in \p cols in three passes over SoA
  /// scratch — (1) stronger/weaker normalization + both SIC SINRs,
  /// (2) one rate_span() call for all rate lookups (single virtual
  /// dispatch per row), (3) best_pair_plan's plan selection on those rates.
  void compute_row(int gi, std::span<const int> cols);
  [[nodiscard]] Schedule schedule_indices(std::span<const int> idx);
  void refresh_derived(int client);
  void invalidate_row(int client);
  void publish_stats();

  const phy::RateAdapter* adapter_;
  SchedulerOptions options_;
  double derate_ = 1.0;  ///< linear admission-margin back-off, hoisted
  Milliwatts noise_{0.0};
  int n_ = 0;

  // Per-client derived state, SoA so the row kernel streams it.
  std::vector<Milliwatts> rss_;          ///< fingerprinted channel estimate
  std::vector<Milliwatts> derated_rss_;  ///< rss × margin derate
  std::vector<double> solo_airtime_;     ///< clean solo airtime

  // Symmetric pair-plan cache (n × n, both triangles mirrored).
  std::vector<PairPlan> plans_;
  std::vector<std::uint8_t> valid_;

  std::vector<int> all_indices_;    ///< identity map for schedule()

  MatchingTier last_tier_ = MatchingTier::kBlossom;
  PairCostEngineStats stats_;
  PairCostEngineStats published_;  ///< high-water mark already published
};

}  // namespace sic::core

#endif  // SICMAC_CORE_PAIR_COST_ENGINE_HPP
