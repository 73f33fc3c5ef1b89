#include "mac/deployment_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_sink.hpp"
#include "util/check.hpp"

namespace sic::mac {

namespace {

/// Stream salt separating the engine's per-epoch draws (drift, chaos,
/// arrival placement) from every inner-run seed.
constexpr std::uint64_t kEngineStream = 0xC1A05E19E57ULL;

/// Appends a flight-recorder event when a recorder is attached. Only ever
/// called from the engine's sequential phases (never from pool workers),
/// so the event stream — and therefore the post-mortem bytes — is
/// identical at any thread count.
void flight_event(int epoch, int ap, int client, const char* kind,
                  std::string detail = {}) {
  if (obs::FlightRecorder* fr = obs::flight()) {
    fr->record(obs::FlightEvent{static_cast<std::uint64_t>(epoch), ap, client,
                                kind, std::move(detail)});
  }
}

/// Name of an AP's health series, zero-padded so the registry's
/// lexicographic name order matches numeric AP order (fleets beyond 999
/// APs widen past the padding and would interleave; today's scales fit).
std::string ap_health_series(int ap) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "deploy.ap%03d.health", ap);
  return buf;
}

/// Removes \p client from an always-sorted member list. The list is kept
/// ascending by every insert (upper_bound), so removal is a binary search
/// + single erase, not a full std::remove scan.
void erase_member(std::vector<int>& members, int client) {
  const auto it = std::lower_bound(members.begin(), members.end(), client);
  SIC_CHECK(it != members.end() && *it == client);
  members.erase(it);
}

/// Ladder level 3: serial solo slots in member order, no matching.
core::Schedule serial_schedule(std::span<const channel::LinkBudget> budgets,
                               const phy::RateAdapter& adapter,
                               const core::SchedulerOptions& options) {
  core::Schedule s;
  s.admission_margin_db = options.admission_margin_db;
  for (int i = 0; i < static_cast<int>(budgets.size()); ++i) {
    core::ScheduledSlot slot;
    slot.first = i;
    slot.second = -1;
    slot.plan.mode = core::PairMode::kSolo;
    slot.plan.airtime = core::solo_airtime(
        budgets[static_cast<std::size_t>(i)], adapter, options.packet_bits);
    s.total_airtime += slot.plan.airtime;
    s.slots.push_back(slot);
  }
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// InvariantAuditor
// ---------------------------------------------------------------------------

void InvariantAuditor::check(const EpochInvariants& inv) {
  ++epochs_checked_;
  const auto fail = [&](std::string what) {
    violations_.push_back(Violation{inv.epoch, std::move(what)});
  };
  if (inv.confirmed + inv.unrecovered != inv.offered) {
    fail("conservation: confirmed (" + std::to_string(inv.confirmed) +
         ") + unrecovered (" + std::to_string(inv.unrecovered) +
         ") != offered (" + std::to_string(inv.offered) + ")");
  }
  const std::size_t n = inv.active.size();
  SIC_CHECK(inv.quarantined.size() == n && inv.assignment.size() == n &&
            inv.served_by.size() == n);
  std::uint64_t served = 0;
  std::uint64_t unassigned = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const int ap = inv.assignment[c];
    const int by = inv.served_by[c];
    const bool active = inv.active[c] != 0;
    const bool quarantined = inv.quarantined[c] != 0;
    const auto alive = [&](int a) {
      return a >= 0 && a < static_cast<int>(inv.ap_alive.size()) &&
             inv.ap_alive[static_cast<std::size_t>(a)] != 0;
    };
    if (!active && (ap >= 0 || by >= 0)) {
      fail("inactive client " + std::to_string(c) + " assigned or served");
      continue;
    }
    if (ap >= 0 && !alive(ap)) {
      fail("client " + std::to_string(c) + " assigned to dead AP " +
           std::to_string(ap));
    }
    if (by >= 0 && !alive(by)) {
      fail("client " + std::to_string(c) + " served by dead AP " +
           std::to_string(by));
    }
    if (quarantined && (ap >= 0 || by >= 0)) {
      fail("quarantined client " + std::to_string(c) +
           " appears in an active matching");
    }
    if (by >= 0 && ap != by) {
      fail("client " + std::to_string(c) + " served by AP " +
           std::to_string(by) + " but assigned to " + std::to_string(ap));
    }
    if (by >= 0) ++served;
    if (active && !quarantined && ap < 0) ++unassigned;
  }
  if (served != inv.offered) {
    fail("accounting: " + std::to_string(served) +
         " clients served but offered = " + std::to_string(inv.offered));
  }
  if (unassigned != inv.deferred) {
    fail("accounting: " + std::to_string(unassigned) +
         " unassigned active clients but deferred = " +
         std::to_string(inv.deferred));
  }
}

// ---------------------------------------------------------------------------
// DeploymentEngine
// ---------------------------------------------------------------------------

struct DeploymentEngine::ClientState {
  topology::Point position;
  bool active = true;
  int ap = -1;              ///< serving AP id, -1 = unassigned
  Decibels drift{0.0};      ///< truth deviation from nominal (epoch AR(1))
  Decibels est_drift{0.0};  ///< drift captured at the last re-estimation
  int fail_streak = 0;      ///< consecutive epochs with abandoned frames
  bool quarantined = false;
  int quarantine_until = 0;
  int quarantine_times = 0;
  /// AP the client was exiled from (-1 when unattributed) — attributes
  /// quarantine occupancy to the cell that was failing the client.
  int quarantined_from = -1;
};

struct DeploymentEngine::ApState {
  int id = 0;
  topology::Point site;
  bool alive = true;
  int down_until = 0;
  Decibels burst{0.0};  ///< active interference-burst depth
  int burst_until = 0;
  int ladder = 0;  ///< 0 = full options .. 3 = serial-only
  int healthy_streak = 0;
  int allfail_streak = 0;
  /// Re-estimate and re-plan from scratch before the next service. Every
  /// change a plan depends on (membership, ladder step, restart, outage,
  /// watchdog) sets it, so a clean AP's schedule indexes `members`.
  bool dirty = true;
  bool rematched_this_epoch = false;
  std::vector<int> members;  ///< ascending client ids
  /// Reset and re-planned on every dirty service below ladder level 3,
  /// keeping its storage.
  std::unique_ptr<core::PairCostEngine> pce;
  core::Schedule schedule;
  /// Matching tier the last rematch resolved to (-1 = never matched /
  /// serial ladder); flight-recorded on change from the sequential
  /// aggregate phase, so a kAuto fleet's per-AP tier crossings land in the
  /// post-mortem thread-invariantly.
  int last_tier = -1;
  UploadSimResult last;
  // Health bookkeeping (pure observation: nothing below feeds a decision).
  double last_health = 1.0;
  std::uint64_t epochs_served = 0;
  double health_sum = 0.0;
  double health_min = 1.0;
  double conf_sum = 0.0;
};

DeploymentEngine::DeploymentEngine(std::vector<topology::Point> ap_sites,
                                   const phy::RateAdapter& adapter,
                                   const DeploymentEngineConfig& config,
                                   FaultSchedule chaos)
    : adapter_(&adapter),
      config_(config),
      chaos_(std::move(chaos)),
      pathloss_(channel::LogDistancePathLoss::for_carrier(
          config.pathloss_exponent)),
      noise_mw_(config.noise_floor.to_milliwatts()),
      pool_(std::make_unique<ThreadPool>(ThreadPool::resolve(config.threads))) {
  SIC_CHECK_MSG(!ap_sites.empty(), "deployment needs at least one AP");
  SIC_CHECK_MSG(config_.upload.faults.initial_drift.empty(),
                "upload.faults.initial_drift is engine-owned; leave it empty");
  config_.upload.faults.validate();
  chaos_.profile().validate();
  config_.scheduler.packet_bits = config_.upload.packet_bits;
  config_.upload.recovery.enabled = config_.closed_loop;
  aps_.reserve(ap_sites.size());
  for (std::size_t i = 0; i < ap_sites.size(); ++i) {
    ApState ap;
    ap.id = static_cast<int>(i);
    ap.site = ap_sites[i];
    aps_.push_back(std::move(ap));
  }
  assoc_planner_ = std::make_unique<AssociationPlanner>(
      std::span<const topology::Point>(ap_sites), pathloss_,
      config_.client_tx_power, config_.load_penalty_per_client);
}

DeploymentEngine::~DeploymentEngine() = default;

int DeploymentEngine::n_aps() const { return static_cast<int>(aps_.size()); }

bool DeploymentEngine::ap_alive(int ap) const {
  SIC_CHECK(ap >= 0 && ap < n_aps());
  return aps_[static_cast<std::size_t>(ap)].alive;
}

int DeploymentEngine::ladder_level(int ap) const {
  SIC_CHECK(ap >= 0 && ap < n_aps());
  return aps_[static_cast<std::size_t>(ap)].ladder;
}

int DeploymentEngine::active_clients() const {
  int n = 0;
  for (const ClientState& c : clients_) n += c.active ? 1 : 0;
  return n;
}

bool DeploymentEngine::client_active(int client) const {
  SIC_CHECK(client >= 0 && client < static_cast<int>(clients_.size()));
  return clients_[static_cast<std::size_t>(client)].active;
}

bool DeploymentEngine::quarantined(int client) const {
  SIC_CHECK(client >= 0 && client < static_cast<int>(clients_.size()));
  return clients_[static_cast<std::size_t>(client)].quarantined;
}

int DeploymentEngine::assignment(int client) const {
  SIC_CHECK(client >= 0 && client < static_cast<int>(clients_.size()));
  return clients_[static_cast<std::size_t>(client)].ap;
}

const UploadSimResult& DeploymentEngine::last_ap_result(int ap) const {
  SIC_CHECK(ap >= 0 && ap < n_aps());
  return aps_[static_cast<std::size_t>(ap)].last;
}

std::vector<ApHealthSummary> DeploymentEngine::health_summary() const {
  std::vector<ApHealthSummary> out;
  out.reserve(aps_.size());
  for (const ApState& ap : aps_) {
    ApHealthSummary s;
    s.ap = ap.id;
    s.epochs_served = ap.epochs_served;
    if (ap.epochs_served > 0) {
      s.mean_health =
          ap.health_sum / static_cast<double>(ap.epochs_served);
      s.min_health = ap.health_min;
      s.mean_confirmation =
          ap.conf_sum / static_cast<double>(ap.epochs_served);
    }
    out.push_back(s);
  }
  return out;
}

channel::LinkBudget DeploymentEngine::nominal_budget(int client,
                                                     int ap) const {
  SIC_CHECK(client >= 0 && client < static_cast<int>(clients_.size()));
  SIC_CHECK(ap >= 0 && ap < n_aps());
  const ClientState& c = clients_[static_cast<std::size_t>(client)];
  const ApState& a = aps_[static_cast<std::size_t>(ap)];
  const double d = topology::distance(c.position, a.site);
  return channel::LinkBudget{
      pathloss_.received_power(config_.client_tx_power, d).to_milliwatts(),
      noise_mw_};
}

std::uint64_t DeploymentEngine::epoch_seed(std::uint64_t seed, int ap,
                                           int epoch) {
  const std::uint64_t stream =
      static_cast<std::uint64_t>(ap) * 0x9e3779b97f4a7c15ULL +
      static_cast<std::uint64_t>(epoch) * 0xbf58476d1ce4e5b9ULL + 1;
  return SplitMix64{seed ^ stream}.next();
}

Rng DeploymentEngine::epoch_rng() const {
  return Rng::at(config_.seed ^ kEngineStream,
                 static_cast<std::uint64_t>(epoch_));
}

int DeploymentEngine::add_client(topology::Point position) {
  ClientState c;
  c.position = position;
  clients_.push_back(c);
  client_x_.push_back(position.x);
  client_y_.push_back(position.y);
  return static_cast<int>(clients_.size()) - 1;
}

void DeploymentEngine::remove_client(int client) {
  SIC_CHECK(client >= 0 && client < static_cast<int>(clients_.size()));
  ClientState& c = clients_[static_cast<std::size_t>(client)];
  if (!c.active) return;
  c.active = false;
  c.quarantined = false;
  c.quarantined_from = -1;
  if (c.ap >= 0) {
    ApState& ap = aps_[static_cast<std::size_t>(c.ap)];
    erase_member(ap.members, client);
    ap.dirty = true;
    c.ap = -1;
  }
}

const std::vector<int>& DeploymentEngine::ap_members(int ap) const {
  SIC_CHECK(ap >= 0 && ap < n_aps());
  return aps_[static_cast<std::size_t>(ap)].members;
}

core::SchedulerOptions DeploymentEngine::ladder_options(int level) const {
  core::SchedulerOptions o = config_.scheduler;
  if (level >= 1) o.enable_multirate = false;
  if (level >= 2) o.enable_power_control = false;
  return o;
}

void DeploymentEngine::apply_chaos(const EpochChaos& chaos,
                                   EpochStats& stats) {
  for (const EpochChaos::Outage& o : chaos.outages) {
    if (o.ap < 0 || o.ap >= n_aps()) continue;
    ApState& ap = aps_[static_cast<std::size_t>(o.ap)];
    if (o.epochs <= 0) {  // scripted restart
      if (!ap.alive) {
        ap.alive = true;
        ap.down_until = epoch_;
        ap.dirty = true;
        flight_event(epoch_, o.ap, -1, "chaos.restart");
      }
      continue;
    }
    if (!ap.alive) {  // already down: extend the outage
      ap.down_until = std::max(ap.down_until, epoch_ + o.epochs);
      flight_event(epoch_, o.ap, -1, "chaos.outage_extend",
                   "down_until=" + std::to_string(ap.down_until));
      continue;
    }
    ap.alive = false;
    ap.down_until = epoch_ + o.epochs;
    // A dead AP holds no plan state: its members move to neighbours whose
    // engines grow meanwhile, so keeping this one would raise peak memory.
    ap.pce.reset();
    ap.schedule = core::Schedule{};
    ap.dirty = true;
    for (const int m : ap.members) {
      clients_[static_cast<std::size_t>(m)].ap = -1;
    }
    ap.members.clear();
    ++stats.outages_started;
    flight_event(epoch_, o.ap, -1, "chaos.outage",
                 "down_for=" + std::to_string(o.epochs));
  }
  for (const EpochChaos::Burst& b : chaos.bursts) {
    if (b.ap < 0 || b.ap >= n_aps()) continue;
    ApState& ap = aps_[static_cast<std::size_t>(b.ap)];
    ap.burst = std::max(ap.burst, b.depth);
    ap.burst_until = std::max(ap.burst_until, epoch_ + b.epochs);
    ++stats.bursts_started;
    flight_event(epoch_, b.ap, -1, "chaos.burst",
                 "depth_db=" + std::to_string(b.depth.value()) +
                     " epochs=" + std::to_string(b.epochs));
  }
  if (chaos.storm_epochs > 0) {
    storm_until_ = std::max(storm_until_, epoch_ + chaos.storm_epochs);
    flight_event(epoch_, -1, -1, "chaos.storm",
                 "epochs=" + std::to_string(chaos.storm_epochs));
  }
  for (const int c : chaos.departures) {
    remove_client(c);
    ++stats.departures;
    flight_event(epoch_, -1, c, "chaos.departure");
  }
  stats.arrivals += chaos.arrivals;
}

void DeploymentEngine::associate_clients(EpochStats& stats,
                                         std::vector<int>& handoff_flux) {
  const std::size_t n = clients_.size();
  // Phase 1 (parallel): score every eligible client against a snapshot
  // of the epoch-start AP state. Positions are append-only SoA mirrors
  // (add_client); eligibility/incumbents are rebuilt in one O(clients)
  // pass. Snapshot scoring makes every client's proposal independent of
  // commit order — all clients compare the same AP loads this epoch —
  // which is what lets the score phase fan out across threads while
  // staying bit-identical.
  assoc_eligible_.resize(n);
  assoc_incumbent_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ClientState& c = clients_[i];
    assoc_eligible_[i] = (c.active && !c.quarantined) ? 1 : 0;
    assoc_incumbent_[i] = c.ap;
  }
  ap_alive_scratch_.clear();
  ap_members_scratch_.clear();
  for (const ApState& ap : aps_) {
    ap_alive_scratch_.push_back(ap.alive ? 1 : 0);
    ap_members_scratch_.push_back(static_cast<int>(ap.members.size()));
  }
  assoc_planner_->plan(config_.association_mode, client_x_, client_y_,
                       assoc_eligible_, assoc_incumbent_, ap_alive_scratch_,
                       ap_members_scratch_, *pool_, proposals_);

  // Phase 2 (sequential, client-id order): hysteresis against the
  // incumbent score computed once in phase 1 — never re-derived — then
  // the member-list edits and flight events, exactly as before.
  std::uint64_t candidates = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (assoc_eligible_[i] == 0) continue;
    const AssociationProposal& p = proposals_[i];
    candidates += p.candidates;
    ClientState& c = clients_[i];
    const int best = p.best_ap;
    if (best < 0 || best == c.ap) continue;
    if (c.ap >= 0) {
      // Hysteresis: leave a live AP only for a clearly better one.
      if (p.best_score <= p.incumbent_score + config_.handoff_hysteresis) {
        continue;
      }
      ApState& old = aps_[static_cast<std::size_t>(c.ap)];
      erase_member(old.members, static_cast<int>(i));
      old.dirty = true;
      ++stats.handoffs;
      ++handoff_flux[static_cast<std::size_t>(c.ap)];
      ++handoff_flux[static_cast<std::size_t>(best)];
      flight_event(epoch_, best, static_cast<int>(i), "handoff",
                   "from_ap=" + std::to_string(c.ap));
    } else {
      ++handoff_flux[static_cast<std::size_t>(best)];
      flight_event(epoch_, best, static_cast<int>(i), "associate");
    }
    ApState& ap = aps_[static_cast<std::size_t>(best)];
    ap.members.insert(
        std::upper_bound(ap.members.begin(), ap.members.end(),
                         static_cast<int>(i)),
        static_cast<int>(i));
    ap.dirty = true;
    c.ap = best;
  }
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("deploy.assoc.candidates").inc(candidates);
  }
}

namespace {

/// Buffers serve_ap rebuilds for every AP it serves, one set per pool
/// thread; each call overwrites them before reading, so they carry only
/// capacity from one AP to the next.
struct ServeScratch {
  std::vector<channel::LinkBudget> budgets;
  UploadSimConfig run;
};

thread_local ServeScratch tl_serve_scratch;

}  // namespace

void DeploymentEngine::serve_ap(ApState& ap) {
  if (ap.dirty) {
    // Re-estimation: the AP measures every member's channel fresh.
    for (const int m : ap.members) {
      ClientState& c = clients_[static_cast<std::size_t>(m)];
      c.est_drift = c.drift;
    }
  }
  // Planning estimates (member order).
  ServeScratch& scratch = tl_serve_scratch;
  std::vector<channel::LinkBudget>& budgets = scratch.budgets;
  budgets.clear();
  for (const int m : ap.members) {
    const channel::LinkBudget nominal = nominal_budget(m, ap.id);
    const Decibels est = clients_[static_cast<std::size_t>(m)].est_drift;
    budgets.push_back(
        channel::LinkBudget{nominal.rss * est.linear(), noise_mw_});
  }
  // The one re-plan path, from scratch on the members' estimates. The
  // serial ladder level plans without the pair-cost engine and re-plans
  // every epoch it serves.
  if (ap.dirty || ap.ladder >= 3) {
    if (ap.ladder >= 3) {
      ap.schedule = serial_schedule(budgets, *adapter_, ladder_options(2));
    } else {
      if (ap.pce == nullptr) {
        ap.pce = std::make_unique<core::PairCostEngine>(
            *adapter_, ladder_options(ap.ladder));
      } else {
        ap.pce->reset(*adapter_, ladder_options(ap.ladder));
      }
      ap.pce->set_clients(budgets);
      ap.schedule = ap.pce->schedule();
    }
    ap.rematched_this_epoch = true;
    ap.dirty = false;
  }

  // Execution: the truth the packets fly through deviates from the
  // planning estimate by accumulated drift plus any active burst,
  // expressed through the fault model's initial_drift conduit.
  UploadSimConfig& run = scratch.run;
  run = config_.upload;
  run.seed = epoch_seed(config_.seed, ap.id, epoch_);
  run.recovery.enabled = config_.closed_loop;
  run.recovery.rematch_options = ladder_options(std::min(ap.ladder, 2));
  std::vector<Decibels>& offsets = run.faults.initial_drift;
  offsets.resize(ap.members.size());
  bool any_offset = false;
  for (std::size_t i = 0; i < ap.members.size(); ++i) {
    const ClientState& c =
        clients_[static_cast<std::size_t>(ap.members[i])];
    const Decibels off = c.drift - c.est_drift - ap.burst;
    offsets[i] = off;
    any_offset = any_offset || off != Decibels{0.0};
  }
  if (!any_offset) offsets.clear();
  ap.last = run_scheduled_upload(budgets, *adapter_, ap.schedule, run);
}

void DeploymentEngine::score_health(const std::vector<int>& serving,
                                    const std::vector<int>& handoff_flux,
                                    EpochStats& stats) {
  // Quarantine occupancy attributes each exiled client to the AP it was
  // exiled from; the AP's "population" is its current members plus those
  // exiles, so occupancy is the fraction of its flock it is failing.
  std::vector<int> exiled(aps_.size(), 0);
  for (const ClientState& c : clients_) {
    if (c.active && c.quarantined && c.quarantined_from >= 0) {
      ++exiled[static_cast<std::size_t>(c.quarantined_from)];
    }
  }
  double health_sum = 0.0;
  int scored = 0;
  for (const int id : serving) {
    ApState& ap = aps_[static_cast<std::size_t>(id)];
    const std::uint64_t offered = ap.last.offered;
    const std::uint64_t confirmed = offered - ap.last.failures.unrecovered;
    const double conf =
        offered == 0 ? 1.0
                     : static_cast<double>(confirmed) /
                           static_cast<double>(offered);
    const double retry_pressure =
        offered == 0 ? 0.0
                     : static_cast<double>(ap.last.failures.retransmissions) /
                           static_cast<double>(offered);
    const double population = static_cast<double>(
        ap.members.size() +
        static_cast<std::size_t>(exiled[static_cast<std::size_t>(id)]));
    const double occupancy =
        population == 0.0
            ? 0.0
            : static_cast<double>(exiled[static_cast<std::size_t>(id)]) /
                  population;
    const double flux =
        static_cast<double>(handoff_flux[static_cast<std::size_t>(id)]) /
        static_cast<double>(std::max<std::size_t>(1, ap.members.size()));
    const double health = conf * (1.0 / (1.0 + retry_pressure)) *
                          (1.0 - occupancy) * (1.0 / (1.0 + flux));
    ap.last_health = health;
    ++ap.epochs_served;
    ap.health_sum += health;
    ap.health_min =
        ap.epochs_served == 1 ? health : std::min(ap.health_min, health);
    ap.conf_sum += conf;
    health_sum += health;
    ++scored;
  }
  stats.mean_health =
      scored == 0 ? 1.0 : health_sum / static_cast<double>(scored);
}

EpochStats DeploymentEngine::run_epoch() {
  EpochStats stats;
  stats.epoch = epoch_;
  Rng rng = epoch_rng();

  // 1. Epoch-scale channel drift, client-id order (sequential: one
  //    deterministic draw stream regardless of thread count).
  if (config_.epoch_drift_sigma > Decibels{0.0}) {
    const double rho = config_.epoch_drift_rho;
    const double innovation = std::sqrt(std::max(0.0, 1.0 - rho * rho));
    for (ClientState& c : clients_) {
      if (!c.active) continue;
      c.drift = Decibels{
          rho * c.drift.value() +
          rng.normal(0.0, innovation * config_.epoch_drift_sigma.value())};
    }
  }

  // 2. Scheduled restarts and burst expiry.
  for (ApState& ap : aps_) {
    if (!ap.alive && epoch_ >= ap.down_until) {
      ap.alive = true;
      ap.dirty = true;
    }
    if (epoch_ >= ap.burst_until) ap.burst = Decibels{0.0};
  }

  // 3. Chaos resolution + application.
  if (!chaos_.empty()) {
    std::vector<std::uint8_t> alive;
    alive.reserve(aps_.size());
    for (const ApState& ap : aps_) alive.push_back(ap.alive ? 1 : 0);
    std::vector<int> active_ids;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i].active) active_ids.push_back(static_cast<int>(i));
    }
    const double mult =
        epoch_ < storm_until_ ? chaos_.profile().storm_multiplier : 1.0;
    const EpochChaos resolved =
        chaos_.resolve(epoch_, alive, active_ids, mult, rng);
    apply_chaos(resolved, stats);
    // Arrival placement draws stay on the engine's epoch stream.
    for (int k = 0; k < resolved.arrivals; ++k) {
      const int site = rng.uniform_int(0, n_aps() - 1);
      (void)add_client(topology::random_in_disc(
          rng, aps_[static_cast<std::size_t>(site)].site,
          config_.arrival_radius_m));
    }
  }

  // 4. Quarantine re-admission probes (before association so a released
  //    client is served this epoch).
  if (config_.closed_loop && config_.enable_quarantine) {
    for (ClientState& c : clients_) {
      if (c.active && c.quarantined && epoch_ >= c.quarantine_until) {
        c.quarantined = false;
        // Probation, not a clean slate: one failed probe epoch re-exiles
        // the client (a confirmed epoch clears the streak as usual), so a
        // still-hopeless link costs one epoch per probe instead of
        // another full quarantine_after streak.
        c.fail_streak = config_.quarantine_after - 1;
        c.quarantined_from = -1;
        ++stats.readmissions;
        flight_event(epoch_, -1, static_cast<int>(&c - clients_.data()),
                     "quarantine.probe");
      }
    }
  }

  // 5. Association / handoff with hysteresis. The per-AP flux count
  //    feeds the health score's churn factor.
  std::vector<int> handoff_flux(aps_.size(), 0);
  associate_clients(stats, handoff_flux);
  for (const ClientState& c : clients_) {
    if (c.active && !c.quarantined && c.ap < 0) ++stats.deferred;
  }
  for (const ApState& ap : aps_) stats.live_aps += ap.alive ? 1 : 0;
  for (const ClientState& c : clients_) {
    stats.active_clients += c.active ? 1 : 0;
    stats.quarantined_clients += (c.active && c.quarantined) ? 1 : 0;
  }

  // 6. Serve every live AP with members, in parallel over APs. One AP
  //    per chunk, so its metrics fold back in AP order and nothing a
  //    chunk does reaches the trace, time-series or flight sinks: all of
  //    it is identical at any thread count.
  std::vector<int> serving;
  for (const ApState& ap : aps_) {
    if (ap.alive && !ap.members.empty()) serving.push_back(ap.id);
  }
  obs::observed_parallel_for(
      *pool_, static_cast<std::int64_t>(serving.size()), 1,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t k = begin; k < end; ++k) {
          serve_ap(aps_[static_cast<std::size_t>(
              serving[static_cast<std::size_t>(k)])]);
        }
      });

  // 7. Aggregate, then audit the epoch exactly as executed.
  std::vector<int> served_by;
  if (auditor_ != nullptr) served_by.assign(clients_.size(), -1);
  for (const int id : serving) {
    ApState& ap = aps_[static_cast<std::size_t>(id)];
    stats.offered += ap.last.offered;
    stats.unrecovered += ap.last.failures.unrecovered;
    stats.decisions += ap.schedule.slots.size();
    if (ap.rematched_this_epoch) {
      ++stats.rematched_aps;
      ap.rematched_this_epoch = false;
      // Tier telemetry: record which matcher the rematch resolved to, once
      // per change (sequential phase — thread-invariant event stream).
      if (ap.ladder < 3 && ap.pce->size() >= 2) {
        const int tier = static_cast<int>(ap.pce->last_matching_tier());
        if (tier != ap.last_tier) {
          ap.last_tier = tier;
          flight_event(epoch_, id, -1, "matching.tier",
                       core::to_string(ap.pce->last_matching_tier()));
        }
      }
    }
    for (std::size_t i = 0; i < ap.members.size(); ++i) {
      const int m = ap.members[i];
      ClientState& c = clients_[static_cast<std::size_t>(m)];
      const std::uint64_t lost = i < ap.last.unrecovered_per_client.size()
                                     ? ap.last.unrecovered_per_client[i]
                                     : 0;
      if (lost > 0) {
        ++c.fail_streak;
      } else {
        c.fail_streak = 0;
      }
      if (auditor_ != nullptr) served_by[static_cast<std::size_t>(m)] = id;
    }
  }
  stats.confirmed = stats.offered - stats.unrecovered;
  if (auditor_ != nullptr) audit_epoch(stats, served_by);

  // 8. Quarantine decisions for next epoch (closed loop only).
  if (config_.closed_loop && config_.enable_quarantine) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      ClientState& c = clients_[i];
      if (!c.active || c.quarantined ||
          c.fail_streak < config_.quarantine_after) {
        continue;
      }
      c.quarantined = true;
      const int shift = std::min(c.quarantine_times, 10);
      c.quarantine_until =
          epoch_ + 1 + (config_.quarantine_base_epochs << shift);
      ++c.quarantine_times;
      c.fail_streak = 0;
      c.quarantined_from = c.ap;
      if (c.ap >= 0) {
        ApState& ap = aps_[static_cast<std::size_t>(c.ap)];
        erase_member(ap.members, static_cast<int>(i));
        ap.dirty = true;
        c.ap = -1;
      }
      ++stats.quarantines;
      flight_event(epoch_, c.quarantined_from, static_cast<int>(i),
                   "quarantine.enter",
                   "until_epoch=" + std::to_string(c.quarantine_until) +
                       " times=" + std::to_string(c.quarantine_times));
    }
  }

  // 9. Per-AP health score — pure observation folded from this epoch's
  //    confirmation, retries, quarantine occupancy, and handoff flux;
  //    nothing downstream reads it (the ladder keys on raw confirmation).
  score_health(serving, handoff_flux, stats);

  // 10. Per-AP recovery: degradation ladder + stuck-AP watchdog.
  if (config_.closed_loop) {
    for (const int id : serving) {
      ApState& ap = aps_[static_cast<std::size_t>(id)];
      const std::uint64_t offered = ap.last.offered;
      if (offered == 0) continue;
      const std::uint64_t confirmed =
          offered - ap.last.failures.unrecovered;
      if (confirmed == 0) {
        ++ap.allfail_streak;
        if (ap.allfail_streak < config_.watchdog_epochs) {
          flight_event(epoch_, id, -1, "watchdog.warn",
                       "allfail_streak=" + std::to_string(ap.allfail_streak));
        }
      } else {
        ap.allfail_streak = 0;
      }
      if (ap.allfail_streak >= config_.watchdog_epochs) {
        // Stuck AP: nothing confirmed for K epochs. Force fresh
        // estimates and a full from-scratch re-match.
        ++stats.watchdog_fires;
        ap.allfail_streak = 0;
        ap.dirty = true;
        if (obs::FlightRecorder* fr = obs::flight()) {
          fr->record(obs::FlightEvent{static_cast<std::uint64_t>(epoch_), id,
                                      -1, "watchdog.fire",
                                      "epochs=" +
                                          std::to_string(
                                              config_.watchdog_epochs)});
          // Latch the trip; whoever owns the recorder dumps the
          // post-mortem. The return value is deliberately dropped — the
          // engine must never branch on observer state.
          (void)fr->trip("watchdog fire: ap " + std::to_string(id),
                         static_cast<std::uint64_t>(epoch_));
        }
      }
      const double frac =
          static_cast<double>(confirmed) / static_cast<double>(offered);
      if (frac < config_.unhealthy_below) {
        ap.healthy_streak = 0;
        if (ap.ladder < 3) {
          ++ap.ladder;
          ++stats.ladder_steps;
          ap.dirty = true;
          flight_event(epoch_, id, -1, "ladder.down",
                       "level=" + std::to_string(ap.ladder));
        }
      } else {
        ++ap.healthy_streak;
        if (ap.ladder > 0 &&
            ap.healthy_streak >= config_.ladder_recover_epochs) {
          --ap.ladder;
          ++stats.ladder_steps;
          ap.dirty = true;
          ap.healthy_streak = 0;
          flight_event(epoch_, id, -1, "ladder.up",
                       "level=" + std::to_string(ap.ladder));
        }
      }
    }
  }

  // 11. Publish the epoch to obs (counters per fault cause, epoch-stamped
  //     health gauge, time-series samples, one trace span).
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("deploy.epochs").inc();
    reg->counter("deploy.offered").inc(stats.offered);
    reg->counter("deploy.confirmed").inc(stats.confirmed);
    reg->counter("deploy.unrecovered").inc(stats.unrecovered);
    reg->counter("deploy.deferred").inc(stats.deferred);
    reg->counter("deploy.decisions").inc(stats.decisions);
    reg->counter("deploy.handoffs").inc(
        static_cast<std::uint64_t>(stats.handoffs));
    reg->counter("deploy.rematched_aps").inc(
        static_cast<std::uint64_t>(stats.rematched_aps));
    reg->counter("deploy.fault.outages").inc(
        static_cast<std::uint64_t>(stats.outages_started));
    reg->counter("deploy.fault.bursts").inc(
        static_cast<std::uint64_t>(stats.bursts_started));
    reg->counter("deploy.fault.departures").inc(
        static_cast<std::uint64_t>(stats.departures));
    reg->counter("deploy.fault.arrivals").inc(
        static_cast<std::uint64_t>(stats.arrivals));
    reg->counter("deploy.quarantines").inc(
        static_cast<std::uint64_t>(stats.quarantines));
    reg->counter("deploy.readmissions").inc(
        static_cast<std::uint64_t>(stats.readmissions));
    reg->counter("deploy.ladder_steps").inc(
        static_cast<std::uint64_t>(stats.ladder_steps));
    reg->counter("deploy.watchdog_fires").inc(
        static_cast<std::uint64_t>(stats.watchdog_fires));
    // Stamped with the epoch so parallel-chunk merges keep the newest
    // epoch's value regardless of merge order (see Gauge::merge_from).
    reg->gauge("deploy.mean_health")
        .set(stats.mean_health, static_cast<std::uint64_t>(epoch_) + 1);
  }
  if (obs::TimeSeriesRegistry* ts = obs::timeseries()) {
    const auto e = static_cast<std::uint64_t>(epoch_);
    ts->series("deploy.confirmation_rate").record(e, stats.confirmation_rate());
    ts->series("deploy.mean_health").record(e, stats.mean_health);
    ts->series("deploy.offered")
        .record(e, static_cast<double>(stats.offered));
    ts->series("deploy.unrecovered")
        .record(e, static_cast<double>(stats.unrecovered));
    ts->series("deploy.deferred")
        .record(e, static_cast<double>(stats.deferred));
    ts->series("deploy.live_aps").record(e, stats.live_aps);
    ts->series("deploy.active_clients").record(e, stats.active_clients);
    ts->series("deploy.quarantined_clients")
        .record(e, stats.quarantined_clients);
    ts->series("deploy.handoffs").record(e, stats.handoffs);
    // Per-AP health only for APs that served: a dead AP's column goes
    // blank in the CSV, which is exactly how an outage should read.
    for (const int id : serving) {
      ts->series(ap_health_series(id))
          .record(e, aps_[static_cast<std::size_t>(id)].last_health);
    }
  }
  if (obs::TraceSink* sink = obs::trace()) {
    // Epochs have no shared sim clock; one synthetic second per epoch
    // keeps the timeline ordered and readable.
    sink->complete(
        "epoch", static_cast<double>(epoch_) * 1e6, 1e6, /*tid=*/0,
        {{"offered", std::to_string(stats.offered)},
         {"confirmed", std::to_string(stats.confirmed)},
         {"live_aps", std::to_string(stats.live_aps)},
         {"quarantined", std::to_string(stats.quarantined_clients)}});
  }

  result_.epochs.push_back(stats);
  result_.offered += stats.offered;
  result_.confirmed += stats.confirmed;
  result_.unrecovered += stats.unrecovered;
  result_.deferred += stats.deferred;
  result_.decisions += stats.decisions;
  result_.handoffs += static_cast<std::uint64_t>(stats.handoffs);
  result_.quarantines += static_cast<std::uint64_t>(stats.quarantines);
  result_.readmissions += static_cast<std::uint64_t>(stats.readmissions);
  result_.watchdog_fires += static_cast<std::uint64_t>(stats.watchdog_fires);
  ++epoch_;
  return stats;
}

void DeploymentEngine::audit_epoch(const EpochStats& stats,
                                   const std::vector<int>& served_by) const {
  EpochInvariants inv;
  inv.epoch = epoch_;
  inv.offered = stats.offered;
  inv.confirmed = stats.confirmed;
  inv.unrecovered = stats.unrecovered;
  inv.deferred = stats.deferred;
  inv.ap_alive.reserve(aps_.size());
  for (const ApState& ap : aps_) inv.ap_alive.push_back(ap.alive ? 1 : 0);
  inv.active.reserve(clients_.size());
  inv.quarantined.reserve(clients_.size());
  inv.assignment.reserve(clients_.size());
  for (const ClientState& c : clients_) {
    inv.active.push_back(c.active ? 1 : 0);
    inv.quarantined.push_back((c.active && c.quarantined) ? 1 : 0);
    inv.assignment.push_back(c.ap);
  }
  inv.served_by = served_by;
  auditor_->check(inv);
}

DeploymentResult DeploymentEngine::run_epochs(int n) {
  SIC_CHECK(n >= 0);
  for (int i = 0; i < n; ++i) (void)run_epoch();
  return result_;
}

}  // namespace sic::mac
