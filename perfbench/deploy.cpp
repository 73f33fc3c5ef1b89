/// The deployment workloads: closed-loop epochs of mac::DeploymentEngine.
///
/// deploy_dense   40 clients per AP on average on a jittered 50 m lattice of
///                100 APs, cells alternating 48 and 32 clients (checkerboard),
///                1 dB epoch drift, no chaos. Matching-bound.
/// deploy_churn   ~10 clients per AP on 2025 APs, 2 % arrivals and
///                departures per epoch made here through add_client /
///                remove_client, AP outages and interference bursts from a
///                ChaosProfile, 2 dB drift, 50 ms epoch budget, power control
///                and multirate on. Many small matchings (rebuilds and the
///                executor's re-matches), DES retries and association.
///
/// A run is a sequence of passes. Each pass builds a fresh engine from the
/// same seed-generated inputs (set-up), then runs a fixed number of timed
/// epochs in a closed loop: one caller, each epoch starting when the
/// previous one returned. Every pass must reproduce the same per-epoch
/// digest chain, and the chain's final value must equal the pinned digest.
/// The traced run (--trace 1) alternates untraced and traced passes; see
/// NOTES.md for how layer time is attributed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "channel/link.hpp"
#include "channel/pathloss.hpp"
#include "core/pair_cost_engine.hpp"
#include "mac/association.hpp"
#include "mac/chaos.hpp"
#include "mac/deployment_engine.hpp"
#include "mac/sim_time.hpp"
#include "mac/upload_sim.hpp"
#include "obs/metrics.hpp"
#include "phy/rate_adapter.hpp"
#include "topology/geometry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sicbench {

namespace {

using namespace sic;

constexpr double kPitch = 50.0;   ///< AP lattice pitch, m
constexpr double kJitter = 10.0;  ///< AP site jitter, ± m per axis

struct DeploySpec {
  int lattice_side = 0;  ///< APs = side²
  int clients_per_ap = 0;
  /// Checkerboard load skew: cells alternate clients_per_ap ± skew. An
  /// uneven load keeps the load-aware handoff active in every seed.
  int skew = 0;
  double drift_db = 0.0;
  bool chaos = false;         ///< AP outages + interference bursts
  double churn_frac = 0.0;    ///< arrivals = departures per epoch, × population
  bool power_control = false;
  bool multirate = false;
  double epoch_budget_s = 0.0;  ///< 0 = the library's default horizon
  /// Untimed epochs after set-up: on deploy_dense the load-aware handoff
  /// needs about ten epochs to reach its steady oscillation.
  int warmup_epochs = 0;
  int epochs_per_pass = 0;  ///< timed epochs
};

DeploySpec spec_for(const std::string& workload) {
  DeploySpec s;
  if (workload == "deploy_dense") {
    s.lattice_side = 10;
    s.clients_per_ap = 40;
    s.skew = 8;
    s.drift_db = 1.0;
    s.warmup_epochs = 10;
    s.epochs_per_pass = 10;
  } else {
    s.lattice_side = 45;
    s.clients_per_ap = 10;
    s.drift_db = 2.0;
    s.chaos = true;
    s.churn_frac = 0.02;
    s.power_control = true;
    s.multirate = true;
    s.epoch_budget_s = 0.05;
    s.epochs_per_pass = 20;
  }
  return s;
}

struct ChurnStep {
  std::vector<int> departures;
  std::vector<topology::Point> arrivals;
};

/// Everything the engine sees, generated from the seed before any timing.
/// Clients are stratified: a fixed number of them uniform in each lattice
/// cell, so the per-seed work varies little.
struct Inputs {
  std::vector<topology::Point> sites;
  std::vector<topology::Point> positions;  ///< by client id
  int initial = 0;
  std::vector<ChurnStep> churn;  ///< one step per epoch after set-up
};

topology::Point in_cell(Rng& rng, int cell, int side) {
  const double cx = static_cast<double>(cell % side) * kPitch;
  const double cy = static_cast<double>(cell / side) * kPitch;
  return {cx + rng.uniform(-0.5 * kPitch, 0.5 * kPitch),
          cy + rng.uniform(-0.5 * kPitch, 0.5 * kPitch)};
}

Inputs make_inputs(const DeploySpec& s, std::uint64_t seed) {
  Inputs in;
  const int side = s.lattice_side;
  const int n_aps = side * side;
  Rng site_rng = Rng::at(seed, 0);
  for (int a = 0; a < n_aps; ++a) {
    in.sites.push_back(
        {static_cast<double>(a % side) * kPitch +
             site_rng.uniform(-kJitter, kJitter),
         static_cast<double>(a / side) * kPitch +
             site_rng.uniform(-kJitter, kJitter)});
  }
  Rng client_rng = Rng::at(seed, 1);
  for (int a = 0; a < n_aps; ++a) {
    const bool hot = (a % side + a / side) % 2 == 0;
    const int n = s.clients_per_ap + (hot ? s.skew : -s.skew);
    for (int k = 0; k < n; ++k) {
      in.positions.push_back(in_cell(client_rng, a, side));
    }
  }
  in.initial = static_cast<int>(in.positions.size());
  if (s.churn_frac <= 0.0) return in;

  std::vector<int> active(static_cast<std::size_t>(in.initial));
  std::iota(active.begin(), active.end(), 0);
  const int per_epoch = static_cast<int>(
      std::lround(s.churn_frac * static_cast<double>(in.initial)));
  for (int e = 0; e < s.warmup_epochs + s.epochs_per_pass; ++e) {
    Rng rng = Rng::at(seed, 2 + static_cast<std::uint64_t>(e));
    ChurnStep step;
    for (int k = 0; k < per_epoch; ++k) {
      const int j = rng.uniform_int(k, static_cast<int>(active.size()) - 1);
      std::swap(active[static_cast<std::size_t>(k)],
                active[static_cast<std::size_t>(j)]);
      step.departures.push_back(active[static_cast<std::size_t>(k)]);
    }
    active.erase(active.begin(), active.begin() + per_epoch);
    for (int k = 0; k < per_epoch; ++k) {
      const topology::Point p = in_cell(rng, rng.uniform_int(0, n_aps - 1), side);
      active.push_back(static_cast<int>(in.positions.size()));
      in.positions.push_back(p);
      step.arrivals.push_back(p);
    }
    std::sort(step.departures.begin(), step.departures.end());
    in.churn.push_back(std::move(step));
  }
  return in;
}

mac::DeploymentEngineConfig make_config(const DeploySpec& s,
                                        std::uint64_t seed, int threads) {
  mac::DeploymentEngineConfig c;
  c.seed = seed;
  c.threads = threads;
  c.epoch_drift_sigma = Decibels{s.drift_db};
  c.scheduler.enable_power_control = s.power_control;
  c.scheduler.enable_multirate = s.multirate;
  if (s.epoch_budget_s > 0.0) c.upload.horizon = mac::from_seconds(s.epoch_budget_s);
  return c;
}

mac::FaultSchedule make_chaos(const DeploySpec& s) {
  if (!s.chaos) return {};
  mac::ChaosProfile p;
  p.ap_outage_prob = 0.01;
  p.outage_epochs = 3;
  p.burst_prob = 0.05;
  p.burst_depth = Decibels{20.0};
  p.burst_epochs = 2;
  return mac::FaultSchedule{p};
}

/// Library counters whose per-epoch deltas the traced run reads.
enum Count : std::size_t {
  kAssocCandidates,
  kRematchedAps,
  kPceBuilds,
  kPcePairEvals,
  kPceCacheHits,
  kBlossomEdgeVisits,
  kBlossomStages,
  kBlossomAugmentations,
  kGreedyEdgeVisits,
  kTransmissions,
  kDelivered,
  kRetransmissions,
  kRematchRounds,
  kNumCounts,
};
const char* const kCounterNames[kNumCounts] = {
    "deploy.assoc.candidates",
    "deploy.rematched_aps",
    "scheduler.pair_engine.builds",
    "scheduler.pair_engine.pair_evals",
    "scheduler.pair_engine.cache_hits",
    "matching.blossom.edge_visits",
    "matching.blossom.stages",
    "matching.blossom.augmentations",
    "matching.greedy.edge_visits",
    "mac.medium.transmissions",
    "mac.medium.delivered",
    "mac.upload.retransmissions",
    "mac.upload.rematch_rounds",
};
const char* const kMatchingTimers[] = {
    "matching.blossom.wall_s",
    "matching.greedy.wall_s",
    "matching.approx.wall_s",
};
constexpr const char* kKernelTimer = "scheduler.pair_engine.kernel_wall_s";

struct CounterSnap {
  std::uint64_t counts[kNumCounts] = {};
  double kernel_s = 0.0;
  double matching_s = 0.0;
};

CounterSnap snap(obs::MetricsRegistry& reg) {
  CounterSnap s;
  for (std::size_t i = 0; i < kNumCounts; ++i) {
    s.counts[i] = reg.counter(kCounterNames[i]).value();
  }
  s.kernel_s = reg.histogram(kKernelTimer).sum();
  for (const char* name : kMatchingTimers) {
    s.matching_s += reg.histogram(name).sum();
  }
  return s;
}

/// Sums over the traced epochs of every traced pass.
struct LayerTotals {
  int epochs = 0;
  double epoch_s = 0.0;        ///< traced epoch spans
  double self_s = 0.0;         ///< epoch spans minus attributed layer time
  double kernel_s = 0.0;       ///< in-epoch, library timer
  double matching_s = 0.0;     ///< in-epoch, library timer
  double assoc_s = 0.0;        ///< replayed
  double des_s = 0.0;          ///< replayed, minus its own matching/pair_cost
  double obs_s = 0.0;          ///< traced minus paired untraced epoch
  std::uint64_t counts[kNumCounts] = {};
  std::uint64_t eligible = 0;  ///< client-epochs eligible for association
  std::uint64_t active = 0;    ///< active client-epochs
  std::uint64_t handoffs = 0;
  std::uint64_t served = 0;    ///< served AP-epochs
  std::uint64_t ladder_steps = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t watchdog_fires = 0;
  int max_n = 0;               ///< largest matcher instance (vertices)
  std::uint64_t audited = 0;   ///< epochs the invariant auditor checked
};

/// What a pass produced. The deterministic part (chain and sums) must be
/// identical across passes, thread counts, and traced or not.
struct PassResult : Pass {
  std::uint64_t offered = 0;
  std::uint64_t unrecovered = 0;
  std::uint64_t client_epochs = 0;
  std::uint64_t served_ap_epochs = 0;
  double completion_sum_s = 0.0;
};

class DeployRun {
 public:
  DeployRun(const std::string& workload, std::uint64_t seed, int threads)
      : spec_(spec_for(workload)),
        inputs_(make_inputs(spec_, seed)),
        config_(make_config(spec_, seed, threads)),
        chaos_(make_chaos(spec_)),
        adapter_(megahertz(20.0)),
        pathloss_(channel::LogDistancePathLoss::for_carrier(
            config_.pathloss_exponent)) {}

  [[nodiscard]] const DeploySpec& spec() const { return spec_; }
  [[nodiscard]] int n_clients() const { return inputs_.initial; }
  [[nodiscard]] int n_aps() const { return static_cast<int>(inputs_.sites.size()); }

  /// Where a traced pass records: layer sums, spans, and the epoch times
  /// of the untraced pass it is paired with (the attach cost of obs is the
  /// difference).
  struct Trace {
    LayerTotals& totals;
    SpanLog& log;
    const std::vector<double>& untraced_epoch_s;
  };

  /// One pass. With \p trace the pass is traced: a metrics registry and
  /// the invariant auditor are attached, and the layer calls are replayed
  /// after every epoch.
  PassResult pass(const Trace* trace);

 private:
  void fold_epoch(const mac::DeploymentEngine& engine,
                  const mac::EpochStats& st, Digest& digest,
                  PassResult& out) const;
  void replay(const mac::DeploymentEngine& engine, int n_known, int epoch,
              int epoch_span, LayerTotals& totals, SpanLog& log);
  [[nodiscard]] core::SchedulerOptions ladder_options(int level) const;

  DeploySpec spec_;
  Inputs inputs_;
  mac::DeploymentEngineConfig config_;
  mac::FaultSchedule chaos_;
  phy::ShannonRateAdapter adapter_;
  channel::LogDistancePathLoss pathloss_;
  // Replay state (traced passes only).
  std::unique_ptr<mac::AssociationPlanner> planner_;
  ThreadPool replay_pool_{1};
  std::vector<double> xs_, ys_;
  std::vector<std::uint8_t> eligible_, alive_;
  std::vector<int> incumbent_, members_;
  std::vector<mac::AssociationProposal> proposals_;
  std::vector<channel::LinkBudget> budgets_;
  obs::MetricsRegistry des_registry_;  ///< times the DES replay's matching
};

void DeployRun::fold_epoch(const mac::DeploymentEngine& engine,
                           const mac::EpochStats& st, Digest& digest,
                           PassResult& out) const {
  const std::uint64_t ints[] = {
      static_cast<std::uint64_t>(st.epoch), st.offered, st.confirmed,
      st.unrecovered, st.deferred, st.decisions,
      static_cast<std::uint64_t>(st.live_aps),
      static_cast<std::uint64_t>(st.active_clients),
      static_cast<std::uint64_t>(st.quarantined_clients),
      static_cast<std::uint64_t>(st.handoffs),
      static_cast<std::uint64_t>(st.rematched_aps),
      static_cast<std::uint64_t>(st.outages_started),
      static_cast<std::uint64_t>(st.bursts_started),
      static_cast<std::uint64_t>(st.arrivals),
      static_cast<std::uint64_t>(st.departures),
      static_cast<std::uint64_t>(st.quarantines),
      static_cast<std::uint64_t>(st.readmissions),
      static_cast<std::uint64_t>(st.ladder_steps),
      static_cast<std::uint64_t>(st.watchdog_fires)};
  for (const std::uint64_t v : ints) digest.add_u64(v);
  digest.add_f64(st.mean_health);
  // Simulated completion of every AP that served this epoch. An AP still
  // alive with members after the epoch served it: members leave only by
  // quarantine after serving, and liveness changes only at epoch start.
  for (int a = 0; a < engine.n_aps(); ++a) {
    if (!engine.ap_alive(a) || engine.ap_members(a).empty()) continue;
    const double c = engine.last_ap_result(a).completion_s;
    digest.add_u64(static_cast<std::uint64_t>(a));
    digest.add_f64(c);
    out.completion_sum_s += c;
    ++out.served_ap_epochs;
  }
  out.offered += st.offered;
  out.unrecovered += st.unrecovered;
  out.client_epochs += static_cast<std::uint64_t>(st.active_clients);
}

core::SchedulerOptions DeployRun::ladder_options(int level) const {
  core::SchedulerOptions o = config_.scheduler;
  o.packet_bits = config_.upload.packet_bits;
  if (level >= 1) o.enable_multirate = false;
  if (level >= 2) o.enable_power_control = false;
  return o;
}

PassResult DeployRun::pass(const Trace* trace) {
  PassResult out;
  Digest digest;
  obs::MetricsRegistry reg;
  mac::InvariantAuditor auditor;

  const MetricsScope attach{trace != nullptr ? &reg : nullptr};
  Stopwatch setup{config_.threads};
  auto engine = std::make_unique<mac::DeploymentEngine>(
      inputs_.sites, adapter_, config_, chaos_);
  if (trace != nullptr) engine->set_auditor(&auditor);
  for (int c = 0; c < inputs_.initial; ++c) {
    (void)engine->add_client(inputs_.positions[static_cast<std::size_t>(c)]);
  }
  const mac::EpochStats first = engine->run_epoch();
  setup.stop();
  out.add_setup(setup);
  PassResult setup_epoch;  // enters the digest, not the sums
  fold_epoch(*engine, first, digest, setup_epoch);
  if (trace != nullptr && planner_ == nullptr) {
    planner_ = std::make_unique<mac::AssociationPlanner>(
        std::span<const topology::Point>(inputs_.sites), pathloss_,
        config_.client_tx_power, config_.load_penalty_per_client);
  }

  int n_known = inputs_.initial;
  PassResult warmup;  // warm-up epochs enter the digest, not the sums
  for (int e = 0; e < spec_.warmup_epochs + spec_.epochs_per_pass; ++e) {
    const bool timed = e >= spec_.warmup_epochs;
    const CounterSnap before =
        trace != nullptr && timed ? snap(reg) : CounterSnap{};
    Stopwatch watch{config_.threads};
    if (!inputs_.churn.empty()) {
      const ChurnStep& step = inputs_.churn[static_cast<std::size_t>(e)];
      for (const int c : step.departures) engine->remove_client(c);
      for (const topology::Point& p : step.arrivals) {
        (void)engine->add_client(p);
      }
      n_known += static_cast<int>(step.arrivals.size());
    }
    const mac::EpochStats st = engine->run_epoch();
    watch.stop();
    const double t0 = watch.start_s();
    const double t1 = watch.end_s();
    fold_epoch(*engine, st, digest, timed ? out : warmup);
    out.chain.push_back(digest.value());
    if (!timed) continue;
    out.add_epoch(watch);
    if (trace == nullptr) continue;

    LayerTotals& totals = trace->totals;
    SpanLog& log = trace->log;
    const CounterSnap after = snap(reg);
    const int span = log.add(Span{"epoch", t0, t1, -1, st.epoch, "timed"});
    // In-epoch layer time measured by the library's own obs timers,
    // placed back to back from the epoch start.
    const double kernel = after.kernel_s - before.kernel_s;
    const double matching = after.matching_s - before.matching_s;
    log.add(Span{"core.pair_cost", t0, t0 + kernel, span, st.epoch,
                 "program_timer"});
    log.add(Span{"matching", t0 + kernel, t0 + kernel + matching, span,
                 st.epoch, "program_timer"});
    // What attaching the registry and auditor cost this epoch, placed at
    // the epoch's end.
    const double obs_s =
        (t1 - t0) - trace->untraced_epoch_s[out.epoch_s.size() - 1];
    log.add(Span{"obs", t1 - obs_s, t1, span, st.epoch, "paired"});
    totals.kernel_s += kernel;
    totals.matching_s += matching;
    totals.obs_s += obs_s;
    for (std::size_t i = 0; i < kNumCounts; ++i) {
      totals.counts[i] += after.counts[i] - before.counts[i];
    }
    ++totals.epochs;
    totals.epoch_s += t1 - t0;
    totals.active += static_cast<std::uint64_t>(st.active_clients);
    totals.handoffs += static_cast<std::uint64_t>(st.handoffs);
    totals.ladder_steps += static_cast<std::uint64_t>(st.ladder_steps);
    totals.quarantines += static_cast<std::uint64_t>(st.quarantines);
    totals.watchdog_fires += static_cast<std::uint64_t>(st.watchdog_fires);
    {
      // Replays run detached so the counters above stay the epoch's own.
      const MetricsScope detach{nullptr};
      replay(*engine, n_known, st.epoch, span, totals, log);
    }
    totals.self_s += log.self_time(span);
  }
  out.operations = 1 + out.chain.size();
  if (trace != nullptr) {
    if (!auditor.ok()) {
      const auto& v = auditor.violations().front();
      throw OutputMismatch("invariant violated at epoch " +
                           std::to_string(v.epoch) + ": " + v.what + " (" +
                           std::to_string(auditor.violations().size()) +
                           " violations)");
    }
    trace->totals.audited += auditor.epochs_checked();
  }
  return out;
}

void DeployRun::replay(const mac::DeploymentEngine& engine, int n_known,
                       int epoch, int epoch_span, LayerTotals& totals,
                       SpanLog& log) {
  // Association: AssociationPlanner::plan over the post-epoch snapshot, as
  // the engine's score phase runs it (SoA positions, eligibility,
  // incumbents, AP liveness and loads).
  xs_.clear();
  ys_.clear();
  eligible_.clear();
  incumbent_.clear();
  for (int c = 0; c < n_known; ++c) {
    const topology::Point p = inputs_.positions[static_cast<std::size_t>(c)];
    xs_.push_back(p.x);
    ys_.push_back(p.y);
    const bool ok = engine.client_active(c) && !engine.quarantined(c);
    eligible_.push_back(ok ? 1 : 0);
    totals.eligible += ok ? 1 : 0;
    incumbent_.push_back(engine.assignment(c));
  }
  alive_.clear();
  members_.clear();
  for (int a = 0; a < n_aps(); ++a) {
    alive_.push_back(engine.ap_alive(a) ? 1 : 0);
    members_.push_back(static_cast<int>(engine.ap_members(a).size()));
  }
  const double ta0 = now_s();
  planner_->plan(config_.association_mode, xs_, ys_, eligible_, incumbent_,
                 alive_, members_, replay_pool_, proposals_);
  const double ta1 = now_s();
  totals.assoc_s += ta1 - ta0;
  log.add(Span{"mac.assoc", ta0, ta1, epoch_span, epoch, "replay"});

  // Serve: per served AP, plan with a fresh PairCostEngine (set_clients +
  // schedule, on nominal budgets) and execute with run_scheduled_upload
  // under the engine's seed for that AP-epoch. Only the executor call is
  // attributed (to mac.des); the planning replay only feeds it, since the
  // epoch's own planning time comes from the library timers above. Those
  // timers also count the executor's re-matching, so the executor runs
  // with a registry attached and its matching and pair-cost timer time is
  // taken out of mac.des.
  const CounterSnap nested_before = snap(des_registry_);
  double des = 0.0;
  double plan = 0.0;
  double des_start = -1.0;
  for (int a = 0; a < n_aps(); ++a) {
    const std::vector<int>& members = engine.ap_members(a);
    if (!engine.ap_alive(a) || members.empty()) continue;
    ++totals.served;
    const int n = static_cast<int>(members.size());
    totals.max_n = std::max(totals.max_n, n + (n % 2));
    budgets_.clear();
    for (const int m : members) budgets_.push_back(engine.nominal_budget(m, a));
    const int level = std::min(engine.ladder_level(a), 2);
    const double tp0 = now_s();
    core::PairCostEngine pce{adapter_, ladder_options(level)};
    pce.set_clients(budgets_);
    const core::Schedule schedule = pce.schedule();
    mac::UploadSimConfig run = config_.upload;
    run.seed = mac::DeploymentEngine::epoch_seed(config_.seed, a, epoch);
    run.recovery.enabled = config_.closed_loop;
    run.recovery.rematch_options = ladder_options(level);
    const MetricsScope attach{&des_registry_};
    const double td0 = now_s();
    const mac::UploadSimResult r =
        mac::run_scheduled_upload(budgets_, adapter_, schedule, run);
    const double td1 = now_s();
    if (r.offered == 0) throw OutputMismatch("replayed AP offered no frames");
    plan += td0 - tp0;
    des += td1 - td0;
    if (des_start < 0.0) des_start = td0;
  }
  const CounterSnap nested_after = snap(des_registry_);
  des -= (nested_after.kernel_s - nested_before.kernel_s) +
         (nested_after.matching_s - nested_before.matching_s);
  totals.des_s += des;
  if (des_start >= 0.0) {
    log.add(Span{"mac.des", des_start, des_start + des, epoch_span, epoch,
                 "replay"});
    log.add(Span{"replay.plan", des_start, des_start + plan, -1, epoch,
                 "replay"});
  }
}

}  // namespace

Report run_deploy(const Options& opt) {
  const int threads = opt.threads > 0 ? opt.threads : 1;
  use_last_cpus(threads);
  DeployRun run{opt.workload, opt.seed, threads};
  const DeploySpec& spec = run.spec();
  Report rep;
  if (opt.digest_only) {
    pin_digest(opt, run.pass(nullptr).chain.back(), rep);
    return rep;
  }

  PassResult p0;  // every pass computes the same, so the first one reports
  LayerTotals totals;
  SpanLog log;
  const Timings timings = run_cycles(
      opt, rep,
      [&]() -> Pass {
        PassResult p = run.pass(nullptr);
        if (p0.chain.empty()) p0 = p;
        return p;
      },
      [&](const Pass& untraced) -> std::uint64_t {
        const DeployRun::Trace trace{totals, log, untraced.epoch_s};
        const PassResult tp = run.pass(&trace);
        check_chain(untraced.chain, tp.chain, "the traced pass");
        return tp.operations;
      });

  const double frames_failed =
      p0.offered == 0 ? 0.0
                      : static_cast<double>(p0.unrecovered) /
                            static_cast<double>(p0.offered);
  const double completion_ms =
      p0.served_ap_epochs == 0
          ? 0.0
          : 1e3 * p0.completion_sum_s /
                static_cast<double>(p0.served_ap_epochs);
  rep.info.push_back(
      "workload: " + std::to_string(run.n_aps()) + " APs, " +
      std::to_string(run.n_clients()) + " clients, " +
      std::to_string(spec.warmup_epochs) + " warm-up + " +
      std::to_string(spec.epochs_per_pass) + " timed epochs per pass, " +
      std::to_string(timings.passes) + " passes, engine threads " +
      std::to_string(threads));
  rep.info.push_back(fmt("frames_failed_frac %.9g (unrecovered / offered, "
                         "deterministic)",
                         frames_failed));
  rep.info.push_back(fmt("sim_completion_ms %.9g (mean simulated upload "
                         "completion per served AP-epoch, deterministic)",
                         completion_ms));

  if (!opt.trace) {
    report_end_to_end(timings,
                      static_cast<double>(p0.client_epochs) /
                          static_cast<double>(p0.epoch_s.size()),
                      rep);
    return rep;
  }

  // Per-layer report: times are seconds per epoch, counts per epoch.
  const double n = static_cast<double>(totals.epochs);
  const auto per = [&](std::uint64_t v) { return static_cast<double>(v) / n; };
  const auto c = [&](Count k) { return totals.counts[k]; };
  const std::uint64_t evals = c(kPcePairEvals);
  const std::uint64_t hits = c(kPceCacheHits);
  rep.set("matching.wall_s", totals.matching_s / n, "s");
  rep.set("matching.edge_visits", per(c(kBlossomEdgeVisits) + c(kGreedyEdgeVisits)),
          "count");
  rep.set("matching.stages", per(c(kBlossomStages)), "count");
  rep.set("matching.augmentations", per(c(kBlossomAugmentations)), "count");
  rep.set("matching.max_n", totals.max_n, "count");
  rep.set("pair_cost.kernel_s", totals.kernel_s / n, "s");
  rep.set("pair_cost.pair_evals", per(evals), "count");
  rep.set("pair_cost.builds", per(c(kPceBuilds)), "count");
  rep.set("pair_cost.cache_hit_ratio",
          hits + evals == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + evals),
          "ratio");
  rep.set("assoc.plan_s", totals.assoc_s / n, "s");
  rep.set("assoc.candidates_per_client",
          totals.eligible == 0 ? 0.0
                               : static_cast<double>(c(kAssocCandidates)) /
                                     static_cast<double>(totals.eligible),
          "count");
  rep.set("assoc.handoffs_per_client_epoch",
          totals.active == 0 ? 0.0
                             : static_cast<double>(totals.handoffs) /
                                   static_cast<double>(totals.active),
          "ratio");
  rep.set("des.serve_s", totals.des_s / n, "s");
  rep.set("des.transmissions", per(c(kTransmissions)), "count");
  rep.set("des.retransmissions", per(c(kRetransmissions)), "count");
  rep.set("des.rematch_rounds", per(c(kRematchRounds)), "count");
  rep.set("des.delivered_per_tx",
          c(kTransmissions) == 0 ? 0.0
                                 : static_cast<double>(c(kDelivered)) /
                                       static_cast<double>(c(kTransmissions)),
          "ratio");
  rep.set("engine.self_s", totals.self_s / n, "s");
  rep.set("engine.rematched_ap_frac",
          totals.served == 0 ? 0.0
                             : static_cast<double>(c(kRematchedAps)) /
                                   static_cast<double>(totals.served),
          "ratio");
  rep.set("engine.ladder_steps", per(totals.ladder_steps), "count");
  rep.set("engine.quarantines", per(totals.quarantines), "count");
  rep.set("engine.watchdog_fires", per(totals.watchdog_fires), "count");
  rep.set("sweep.two_to_one_s", 0.0, "s");
  rep.set("sweep.upload_deploy_s", 0.0, "s");
  rep.set("sweep.download_trace_s", 0.0, "s");
  rep.set("sweep.parallel_efficiency", 0.0, "ratio");
  rep.set("trace.generate_s", 0.0, "s");
  double untraced_total = 0.0;
  for (const double t : timings.epoch_s) untraced_total += t;
  rep.set("obs.attach_overhead_frac",
          (totals.epoch_s / n) /
                  (untraced_total /
                   static_cast<double>(timings.epoch_s.size())) -
              1.0,
          "ratio");
  rep.set("result.frames_failed_frac", frames_failed, "ratio");
  rep.set("result.sim_completion_ms", completion_ms, "ms");
  rep.set("result.sic_gain_mean", 0.0, "ratio");

  // Accounting: epoch span = attributed layer time + engine self time.
  rep.info.push_back(fmt("traced epochs: %.0f", n) +
                     fmt(", invariant auditor checked %.0f epochs, 0 "
                         "violations",
                         static_cast<double>(totals.audited)));
  rep.info.push_back(
      fmt("epoch span %.6f s/epoch = ", totals.epoch_s / n) +
      fmt("pair_cost %.6f + ", totals.kernel_s / n) +
      fmt("matching %.6f + ", totals.matching_s / n) +
      fmt("assoc %.6f + ", totals.assoc_s / n) +
      fmt("des %.6f + ", totals.des_s / n) +
      fmt("obs %.6f + ", totals.obs_s / n) +
      fmt("engine.self %.6f", totals.self_s / n));
  if (!opt.spans_out.empty()) log.write(opt.spans_out);
  return rep;
}

}  // namespace sicbench
