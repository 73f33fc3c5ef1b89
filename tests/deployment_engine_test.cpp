/// Multi-AP deployment engine: single-AP bit-identity with the existing
/// closed-loop executor, thread-count invariance (results and obs counter
/// maps), handoff hysteresis, quarantine/readmission, the stuck-AP
/// watchdog, and the epoch invariant auditor.

#include "mac/deployment_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_sink.hpp"

namespace sic::mac {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};

void expect_same_run(const UploadSimResult& a, const UploadSimResult& b,
                     int epoch) {
  EXPECT_EQ(a.completion_s, b.completion_s) << "epoch " << epoch;
  EXPECT_EQ(a.offered, b.offered) << "epoch " << epoch;
  EXPECT_EQ(a.delivered, b.delivered) << "epoch " << epoch;
  EXPECT_EQ(a.retries, b.retries) << "epoch " << epoch;
  EXPECT_EQ(a.drops, b.drops) << "epoch " << epoch;
  EXPECT_EQ(a.medium.transmissions, b.medium.transmissions) << epoch;
  EXPECT_EQ(a.medium.delivered, b.medium.delivered) << epoch;
  EXPECT_EQ(a.medium.sic_decodes, b.medium.sic_decodes) << epoch;
  EXPECT_EQ(a.failures.rate_misses, b.failures.rate_misses) << epoch;
  EXPECT_EQ(a.failures.cancellation_failures, b.failures.cancellation_failures)
      << epoch;
  EXPECT_EQ(a.failures.ack_losses, b.failures.ack_losses) << epoch;
  EXPECT_EQ(a.failures.retransmissions, b.failures.retransmissions) << epoch;
  EXPECT_EQ(a.failures.recovered, b.failures.recovered) << epoch;
  EXPECT_EQ(a.failures.unrecovered, b.failures.unrecovered) << epoch;
  EXPECT_EQ(a.unrecovered_per_client, b.unrecovered_per_client) << epoch;
}

void expect_same_epoch(const EpochStats& a, const EpochStats& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.offered, b.offered) << "epoch " << a.epoch;
  EXPECT_EQ(a.confirmed, b.confirmed) << "epoch " << a.epoch;
  EXPECT_EQ(a.unrecovered, b.unrecovered) << "epoch " << a.epoch;
  EXPECT_EQ(a.deferred, b.deferred) << "epoch " << a.epoch;
  EXPECT_EQ(a.decisions, b.decisions) << "epoch " << a.epoch;
  EXPECT_EQ(a.handoffs, b.handoffs) << "epoch " << a.epoch;
  EXPECT_EQ(a.rematched_aps, b.rematched_aps) << "epoch " << a.epoch;
  EXPECT_EQ(a.outages_started, b.outages_started) << "epoch " << a.epoch;
  EXPECT_EQ(a.bursts_started, b.bursts_started) << "epoch " << a.epoch;
  EXPECT_EQ(a.arrivals, b.arrivals) << "epoch " << a.epoch;
  EXPECT_EQ(a.departures, b.departures) << "epoch " << a.epoch;
  EXPECT_EQ(a.quarantines, b.quarantines) << "epoch " << a.epoch;
  EXPECT_EQ(a.readmissions, b.readmissions) << "epoch " << a.epoch;
  EXPECT_EQ(a.ladder_steps, b.ladder_steps) << "epoch " << a.epoch;
  EXPECT_EQ(a.watchdog_fires, b.watchdog_fires) << "epoch " << a.epoch;
}

/// A line of clients at varied distances from one AP at the origin.
std::vector<topology::Point> line_clients(int n, double start_m,
                                          double step_m) {
  std::vector<topology::Point> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({start_m + step_m * i, 0.0});
  }
  return out;
}

TEST(DeploymentEngine, SingleApNoChaosBitIdenticalToClosedLoopExecutor) {
  // The acceptance pin: one AP, no chaos schedule — every epoch of the
  // engine must reproduce plan-with-schedule_upload +
  // run-with-run_scheduled_upload exactly, including under the inner
  // fault model.
  DeploymentEngineConfig config;
  config.scheduler.enable_power_control = true;
  config.scheduler.enable_multirate = true;
  config.upload.faults.stale_rss_sigma = Decibels{3.0};
  config.upload.faults.ack_loss_prob = 0.02;
  config.seed = 7;

  DeploymentEngine engine{{topology::Point{0.0, 0.0}}, kShannon, config};
  for (const auto& p : line_clients(6, 8.0, 7.0)) {
    (void)engine.add_client(p);
  }

  // The reference path: identical budgets, plan once, run per epoch with
  // the engine's per-(AP, epoch) seed.
  std::vector<channel::LinkBudget> budgets;
  for (int c = 0; c < 6; ++c) budgets.push_back(engine.nominal_budget(c, 0));
  core::SchedulerOptions options = config.scheduler;
  options.packet_bits = config.upload.packet_bits;
  const auto schedule = core::schedule_upload(budgets, kShannon, options);

  for (int epoch = 0; epoch < 4; ++epoch) {
    const EpochStats stats = engine.run_epoch();
    UploadSimConfig inner = config.upload;
    inner.seed = DeploymentEngine::epoch_seed(config.seed, 0, epoch);
    inner.recovery.enabled = true;
    inner.recovery.rematch_options = options;
    const auto expected =
        run_scheduled_upload(budgets, kShannon, schedule, inner);
    expect_same_run(engine.last_ap_result(0), expected, epoch);
    EXPECT_EQ(stats.offered, expected.offered);
    EXPECT_EQ(stats.unrecovered, expected.failures.unrecovered);
    EXPECT_EQ(stats.deferred, 0u);
  }
}

TEST(DeploymentEngine, BitIdenticalAcrossThreadCounts) {
  // Same seed, same chaos, threads 1 / 4 / 7: every epoch stat and the
  // full obs counter map must match bit for bit.
  const auto run = [](int threads) {
    obs::MetricsRegistry registry;
    const obs::Attach attach{{.metrics = &registry}};
    DeploymentEngineConfig config;
    config.scheduler.enable_power_control = true;
    config.epoch_drift_sigma = Decibels{2.0};
    config.threads = threads;
    config.seed = 11;
    std::vector<topology::Point> sites{{0.0, 0.0}, {60.0, 0.0}, {120.0, 0.0},
                                       {180.0, 0.0}};
    DeploymentEngine engine{sites, kShannon,config,
                            FaultSchedule::preset("default", 24)};
    for (int c = 0; c < 24; ++c) {
      (void)engine.add_client({7.0 * (c % 8) + 45.0 * (c / 8), 5.0});
    }
    InvariantAuditor auditor;
    engine.set_auditor(&auditor);
    const DeploymentResult result = engine.run_epochs(12);
    EXPECT_TRUE(auditor.ok());
    return std::pair{result, registry.counter_values()};
  };

  const auto [r1, c1] = run(1);
  const auto [r4, c4] = run(4);
  const auto [r7, c7] = run(7);
  ASSERT_EQ(r1.epochs.size(), r4.epochs.size());
  ASSERT_EQ(r1.epochs.size(), r7.epochs.size());
  for (std::size_t e = 0; e < r1.epochs.size(); ++e) {
    expect_same_epoch(r1.epochs[e], r4.epochs[e]);
    expect_same_epoch(r1.epochs[e], r7.epochs[e]);
  }
  EXPECT_EQ(c1, c4);
  EXPECT_EQ(c1, c7);
}

TEST(DeploymentEngine, AutoTierCrossingDeterministicAcrossThreadCounts) {
  // kAuto with a small crossover (n0 = 6): AP 0 starts below it (4 clients,
  // exact blossom) and AP 1 at it (6 clients, approximate tier). A scripted
  // outage of AP 1 hands its clients to AP 0, pushing AP 0 across the
  // threshold mid-run; the restart hands them back. The epoch stats, the
  // obs counter map, and the matching.tier flight-event stream must all be
  // identical at threads 1 / 4 / 7.
  const auto run = [](int threads) {
    obs::MetricsRegistry registry;
    obs::FlightRecorder recorder;
    const obs::Attach attach{{.metrics = &registry, .flight = &recorder}};
    DeploymentEngineConfig config;
    config.scheduler.pairing = core::SchedulerOptions::Pairing::kAuto;
    config.scheduler.auto_tier_threshold = 6;
    config.threads = threads;
    config.seed = 5;
    std::vector<topology::Point> sites{{0.0, 0.0}, {60.0, 0.0}};
    FaultSchedule chaos;
    chaos.add({.epoch = 3, .kind = ChaosEventKind::kApOutage, .ap = 1,
               .duration_epochs = 3});
    DeploymentEngine engine{sites, kShannon, config, std::move(chaos)};
    for (int c = 0; c < 4; ++c) (void)engine.add_client({3.0 * c, 5.0});
    for (int c = 0; c < 6; ++c) {
      (void)engine.add_client({60.0 + 3.0 * c, 5.0});
    }
    const DeploymentResult result = engine.run_epochs(10);
    std::vector<std::string> tiers;
    for (std::size_t i = 0; i < recorder.size(); ++i) {
      const obs::FlightEvent& e = recorder.event(i);
      if (e.kind == "matching.tier") {
        tiers.push_back(std::to_string(e.epoch) + ":ap" +
                        std::to_string(e.ap) + ":" + e.detail);
      }
    }
    return std::tuple{result, registry.counter_values(), tiers};
  };

  const auto [r1, c1, t1] = run(1);
  const auto [r4, c4, t4] = run(4);
  const auto [r7, c7, t7] = run(7);
  ASSERT_EQ(r1.epochs.size(), r4.epochs.size());
  ASSERT_EQ(r1.epochs.size(), r7.epochs.size());
  for (std::size_t e = 0; e < r1.epochs.size(); ++e) {
    expect_same_epoch(r1.epochs[e], r4.epochs[e]);
    expect_same_epoch(r1.epochs[e], r7.epochs[e]);
  }
  EXPECT_EQ(c1, c4);
  EXPECT_EQ(c1, c7);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t7);
  // The crossing actually happened: AP 0 was recorded on both sides of the
  // threshold, and AP 1's backlog resolved to the approximate tier.
  const auto has = [&t1 = t1](const std::string& needle) {
    return std::any_of(t1.begin(), t1.end(), [&](const std::string& s) {
      return s.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(has("ap0:blossom")) << "AP 0 should start on the exact tier";
  EXPECT_TRUE(has("ap0:approx"))
      << "the outage should push AP 0 across the auto-tier threshold";
  EXPECT_TRUE(has("ap1:approx")) << "AP 1 starts at the threshold";
}

TEST(DeploymentEngine, EquidistantClientTieBreaksToLowerApId) {
  DeploymentEngineConfig config;
  std::vector<topology::Point> sites{{0.0, 0.0}, {40.0, 0.0}};
  DeploymentEngine engine{sites, kShannon, config};
  const int mid = engine.add_client({20.0, 0.0});
  (void)engine.run_epoch();
  EXPECT_EQ(engine.assignment(mid), 0);
}

TEST(DeploymentEngine, HandoffOnOutageAndHysteresisPreventsFlapBack) {
  // The equidistant client starts on AP 0 (tie-break). AP 0 dies: the
  // client must move to AP 1 without a hysteresis test (its AP is gone).
  // When AP 0 restarts the scores tie again, which is NOT better by the
  // hysteresis margin — the client stays on AP 1. No flapping.
  DeploymentEngineConfig config;
  std::vector<topology::Point> sites{{0.0, 0.0}, {40.0, 0.0}};
  FaultSchedule chaos;
  chaos.add({.epoch = 1, .kind = ChaosEventKind::kApOutage, .ap = 0,
             .duration_epochs = 2});
  DeploymentEngine engine{sites, kShannon, config, chaos};
  const int mid = engine.add_client({20.0, 0.0});
  InvariantAuditor auditor;
  engine.set_auditor(&auditor);

  (void)engine.run_epoch();  // epoch 0: associates with AP 0
  EXPECT_EQ(engine.assignment(mid), 0);
  const EpochStats during = engine.run_epoch();  // epoch 1: AP 0 down
  EXPECT_FALSE(engine.ap_alive(0));
  EXPECT_EQ(engine.assignment(mid), 1);
  EXPECT_EQ(during.outages_started, 1);
  (void)engine.run_epoch();               // epoch 2: still down
  const auto after = engine.run_epoch();  // epoch 3: AP 0 back up
  EXPECT_TRUE(engine.ap_alive(0));
  EXPECT_EQ(engine.assignment(mid), 1);  // hysteresis holds it on AP 1
  EXPECT_EQ(after.handoffs, 0);
  EXPECT_TRUE(auditor.ok()) << auditor.violations().size() << " violations";
}

TEST(DeploymentEngine, DeadApClientsAreDeferredWhenNoAlternative) {
  DeploymentEngineConfig config;
  FaultSchedule chaos;
  chaos.add({.epoch = 1, .kind = ChaosEventKind::kApOutage, .ap = 0,
             .duration_epochs = 1});
  DeploymentEngine engine{{topology::Point{0.0, 0.0}}, kShannon, config,
                          chaos};
  (void)engine.add_client({10.0, 0.0});
  (void)engine.add_client({15.0, 0.0});
  InvariantAuditor auditor;
  engine.set_auditor(&auditor);

  const auto normal = engine.run_epoch();
  EXPECT_EQ(normal.offered, 2u);
  EXPECT_EQ(normal.deferred, 0u);
  const auto outage = engine.run_epoch();
  EXPECT_EQ(outage.offered, 0u);
  EXPECT_EQ(outage.deferred, 2u);
  const auto recovered = engine.run_epoch();
  EXPECT_EQ(recovered.offered, 2u);
  EXPECT_EQ(recovered.confirmed, 2u);
  EXPECT_TRUE(auditor.ok());
}

TEST(DeploymentEngine, ZeroMemberApIsSkippedGracefully) {
  DeploymentEngineConfig config;
  std::vector<topology::Point> sites{{0.0, 0.0}, {500.0, 0.0}};
  DeploymentEngine engine{sites, kShannon, config};
  // Every client hugs AP 0; AP 1 serves nobody.
  (void)engine.add_client({5.0, 0.0});
  (void)engine.add_client({9.0, 0.0});
  InvariantAuditor auditor;
  engine.set_auditor(&auditor);
  const auto stats = engine.run_epoch();
  EXPECT_EQ(stats.offered, 2u);
  EXPECT_EQ(stats.confirmed, 2u);
  EXPECT_EQ(stats.live_aps, 2);
  EXPECT_TRUE(auditor.ok());
}

TEST(DeploymentEngine, MidStreamDepartureRematchesItsAp) {
  DeploymentEngineConfig config;
  DeploymentEngine engine{{topology::Point{0.0, 0.0}}, kShannon, config};
  (void)engine.add_client({8.0, 0.0});
  const int leaver = engine.add_client({12.0, 0.0});
  (void)engine.add_client({16.0, 0.0});
  InvariantAuditor auditor;
  engine.set_auditor(&auditor);

  const auto before = engine.run_epoch();
  EXPECT_EQ(before.offered, 3u);
  engine.remove_client(leaver);
  EXPECT_FALSE(engine.client_active(leaver));
  const auto after = engine.run_epoch();
  EXPECT_EQ(after.offered, 2u);
  EXPECT_EQ(after.active_clients, 2);
  EXPECT_EQ(after.rematched_aps, 1);  // departure dirtied the AP
  EXPECT_TRUE(auditor.ok());
}

TEST(DeploymentEngine, QuarantineExilesPersistentFailureAndProbesBack) {
  // One client is far outside coverage (zero rate at the true channel):
  // it fails every epoch. After quarantine_after epochs it must be
  // quarantined, confirmation goes to 100% for the others, and the
  // backoff re-admission probe fails and re-exiles it with a longer
  // backoff.
  DeploymentEngineConfig config;
  config.quarantine_after = 2;
  config.quarantine_base_epochs = 2;
  // Tight per-epoch budget: near clients confirm in microseconds, the
  // out-of-coverage client's ~kbps link cannot finish a frame in time.
  config.upload.horizon = from_seconds(0.05);
  DeploymentEngine engine{{topology::Point{0.0, 0.0}}, kShannon, config};
  (void)engine.add_client({8.0, 0.0});
  (void)engine.add_client({12.0, 0.0});
  const int hopeless = engine.add_client({5000.0, 0.0});
  InvariantAuditor auditor;
  engine.set_auditor(&auditor);

  const DeploymentResult result = engine.run_epochs(14);
  EXPECT_TRUE(engine.quarantined(hopeless) ||
              engine.assignment(hopeless) == -1);
  EXPECT_GE(result.quarantines, 2u);   // exiled, probed, re-exiled
  EXPECT_GE(result.readmissions, 1u);  // at least one probe happened
  // Steady state after the first quarantine: the two viable clients
  // confirm everything.
  const EpochStats& last = result.epochs.back();
  EXPECT_EQ(last.confirmed, last.offered);
  EXPECT_TRUE(auditor.ok());

  // The open-loop engine never quarantines: the hopeless client keeps
  // dragging the confirmation rate every epoch.
  DeploymentEngineConfig open = config;
  open.closed_loop = false;
  DeploymentEngine baseline{{topology::Point{0.0, 0.0}}, kShannon, open};
  (void)baseline.add_client({8.0, 0.0});
  (void)baseline.add_client({12.0, 0.0});
  (void)baseline.add_client({5000.0, 0.0});
  const DeploymentResult open_result = baseline.run_epochs(14);
  EXPECT_EQ(open_result.quarantines, 0u);
  EXPECT_LT(open_result.confirmation_rate(), result.confirmation_rate());
}

TEST(DeploymentEngine, WatchdogFreesStuckApAfterDeepBurst) {
  // An 80 dB scripted burst buries the cell: zero rate, zero
  // confirmations, epoch after epoch. The watchdog must fire after
  // watchdog_epochs all-fail epochs, and once the burst lifts the AP
  // recovers to full confirmation.
  DeploymentEngineConfig config;
  config.watchdog_epochs = 2;
  config.enable_quarantine = false;  // isolate the watchdog path
  // Tight per-epoch budget so the 80 dB burst really zeroes the epoch:
  // re-estimation finds the true (buried) rate, but a frame at that rate
  // cannot finish inside the epoch.
  config.upload.horizon = from_seconds(0.05);
  FaultSchedule chaos;
  chaos.add({.epoch = 1, .kind = ChaosEventKind::kBurst, .ap = 0,
             .duration_epochs = 4, .depth = Decibels{80.0}});
  DeploymentEngine engine{{topology::Point{0.0, 0.0}}, kShannon, config,
                          chaos};
  (void)engine.add_client({8.0, 0.0});
  (void)engine.add_client({12.0, 0.0});
  InvariantAuditor auditor;
  engine.set_auditor(&auditor);

  const DeploymentResult result = engine.run_epochs(8);
  EXPECT_GE(result.watchdog_fires, 1u);
  const EpochStats& last = result.epochs.back();
  EXPECT_EQ(last.confirmed, last.offered);
  EXPECT_GT(last.offered, 0u);
  EXPECT_TRUE(auditor.ok());
}

TEST(DeploymentEngine, LadderStepsDownWhenEpochsAreUnhealthy) {
  // Inner recovery is hobbled (one attempt, no re-match rounds) so a
  // moderate persistent burst makes epochs unhealthy: the ladder must
  // walk down toward serial, and step back up after the burst lifts.
  DeploymentEngineConfig config;
  config.upload.recovery.max_attempts_per_frame = 1;
  config.upload.recovery.max_rematch_rounds = 0;
  config.enable_quarantine = false;
  config.watchdog_epochs = 100;  // keep the watchdog out of the picture
  config.ladder_recover_epochs = 2;
  FaultSchedule chaos;
  chaos.add({.epoch = 1, .kind = ChaosEventKind::kBurst, .ap = 0,
             .duration_epochs = 3, .depth = Decibels{30.0}});
  DeploymentEngine engine{{topology::Point{0.0, 0.0}}, kShannon, config,
                          chaos};
  for (const auto& p : line_clients(6, 8.0, 4.0)) (void)engine.add_client(p);
  InvariantAuditor auditor;
  engine.set_auditor(&auditor);

  int max_ladder = 0;
  std::uint64_t ladder_steps = 0;
  for (int e = 0; e < 12; ++e) {
    const EpochStats stats = engine.run_epoch();
    ladder_steps += static_cast<std::uint64_t>(stats.ladder_steps);
    max_ladder = std::max(max_ladder, engine.ladder_level(0));
  }
  EXPECT_GE(max_ladder, 1);
  EXPECT_GE(ladder_steps, 2u);           // down and back up
  EXPECT_EQ(engine.ladder_level(0), 0);  // healthy again at the end
  EXPECT_TRUE(auditor.ok());
}

TEST(DeploymentEngine, DefaultChaosProfileStaysAuditClean) {
  // A longer run under the full default chaos profile: the auditor must
  // pass every single epoch.
  DeploymentEngineConfig config;
  config.epoch_drift_sigma = Decibels{2.0};
  config.seed = 3;
  std::vector<topology::Point> sites{{0.0, 0.0}, {60.0, 0.0}, {120.0, 0.0}};
  DeploymentEngine engine{sites, kShannon, config,
                          FaultSchedule::preset("default", 18)};
  for (int c = 0; c < 18; ++c) {
    (void)engine.add_client({6.0 * (c % 6) + 55.0 * (c / 6), 8.0});
  }
  InvariantAuditor auditor;
  engine.set_auditor(&auditor);
  const DeploymentResult result = engine.run_epochs(30);
  EXPECT_TRUE(auditor.ok()) << (auditor.violations().empty()
                                    ? ""
                                    : auditor.violations().front().what);
  EXPECT_EQ(auditor.epochs_checked(), 30u);
  EXPECT_GT(result.offered, 0u);
  EXPECT_GT(result.confirmation_rate(), 0.9);
}

TEST(DeploymentEngine, PostmortemByteIdenticalAcrossThreadCounts) {
  // The PR's acceptance pin: a seeded AP-outage run under the default
  // chaos profile must produce a byte-identical post-mortem document —
  // events, time-series, and all — at threads 1 / 4 / 7, because flight
  // events and series samples are only recorded on the engine's
  // sequential phases.
  const auto run = [](int threads) {
    obs::FlightRecorder recorder;
    obs::TimeSeriesRegistry series;
    const obs::Attach attach{{.timeseries = &series, .flight = &recorder}};
    DeploymentEngineConfig config;
    config.scheduler.enable_power_control = true;
    config.epoch_drift_sigma = Decibels{2.0};
    config.threads = threads;
    config.seed = 11;
    std::vector<topology::Point> sites{{0.0, 0.0}, {60.0, 0.0}, {120.0, 0.0},
                                       {180.0, 0.0}};
    FaultSchedule chaos = FaultSchedule::preset("default", 24);
    chaos.add({.epoch = 4, .kind = ChaosEventKind::kApOutage, .ap = 1,
               .duration_epochs = 3});
    DeploymentEngine engine{sites, kShannon, config, std::move(chaos)};
    for (int c = 0; c < 24; ++c) {
      (void)engine.add_client({7.0 * (c % 8) + 45.0 * (c / 8), 5.0});
    }
    (void)engine.run_epochs(12);
    return recorder.postmortem_json(&series, /*window_epochs=*/12);
  };

  const std::string pm1 = run(1);
  // The scripted outage and its telemetry must actually be in there.
  EXPECT_NE(pm1.find("\"kind\":\"chaos.outage\""), std::string::npos);
  EXPECT_NE(pm1.find("\"deploy.mean_health\""), std::string::npos);
  EXPECT_EQ(pm1, run(4));
  EXPECT_EQ(pm1, run(7));
}

TEST(DeploymentEngine, TraceByteIdenticalAcrossThreadCounts) {
  // With a trace sink attached the engine traces only from its sequential
  // phases; a served AP never traces, on whichever thread serves it. So
  // the trace is byte-identical at threads 1 / 4 / 7 and on a repeated run.
  const auto run = [](int threads) {
    std::ostringstream os;
    {
      obs::TraceSink sink{os};
      const obs::Attach attach{{.trace = &sink}};
      DeploymentEngineConfig config;
      config.epoch_drift_sigma = Decibels{2.0};
      config.threads = threads;
      config.seed = 11;
      std::vector<topology::Point> sites{
          {0.0, 0.0}, {60.0, 0.0}, {120.0, 0.0}, {180.0, 0.0}};
      DeploymentEngine engine{sites, kShannon, config,
                              FaultSchedule::preset("default", 24)};
      for (int c = 0; c < 24; ++c) {
        (void)engine.add_client({7.0 * (c % 8) + 45.0 * (c / 8), 5.0});
      }
      (void)engine.run_epochs(8);
    }
    return os.str();
  };

  const std::string t1 = run(1);
  EXPECT_NE(t1.find("\"name\":\"epoch\""), std::string::npos);
  EXPECT_EQ(t1, run(4));
  EXPECT_EQ(t1, run(7));
  EXPECT_EQ(t1, run(4));
}

TEST(DeploymentEngine, WatchdogTripLatchesFlightRecorderExactlyOnce) {
  // Same scripted 80 dB burst as WatchdogFreesStuckApAfterDeepBurst, with
  // the flight recorder attached: the watchdog's first fire must trip the
  // recorder, and later fires (the burst outlives the first watchdog
  // window) must not re-trip or overwrite the reason.
  obs::FlightRecorder recorder;
  const obs::Attach attach{{.flight = &recorder}};
  DeploymentEngineConfig config;
  config.watchdog_epochs = 2;
  config.enable_quarantine = false;
  config.upload.horizon = from_seconds(0.05);
  FaultSchedule chaos;
  chaos.add({.epoch = 1, .kind = ChaosEventKind::kBurst, .ap = 0,
             .duration_epochs = 4, .depth = Decibels{80.0}});
  DeploymentEngine engine{{topology::Point{0.0, 0.0}}, kShannon, config,
                          chaos};
  (void)engine.add_client({8.0, 0.0});
  (void)engine.add_client({12.0, 0.0});

  const DeploymentResult result = engine.run_epochs(8);
  ASSERT_GE(result.watchdog_fires, 1u);
  EXPECT_TRUE(recorder.tripped());
  EXPECT_EQ(recorder.trip_reason(), "watchdog fire: ap 0");

  // The trip anchors at the FIRST watchdog.fire event even if the
  // watchdog fired again later in the run.
  std::uint64_t first_fire = 0;
  std::size_t fires = 0;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    if (recorder.event(i).kind == "watchdog.fire") {
      if (fires == 0) first_fire = recorder.event(i).epoch;
      ++fires;
    }
  }
  EXPECT_EQ(fires, result.watchdog_fires);
  EXPECT_EQ(recorder.trip_epoch(), first_fire);
}

TEST(DeploymentEngine, HealthScoreBoundedAndPerfectWhenCalm) {
  // No chaos, no drift, near clients: after the associations of epoch 0
  // settle (initial association counts as handoff flux, so epoch 0 is
  // legitimately below 1), every epoch must score a perfect 1.0, and the
  // per-AP summary must agree.
  DeploymentEngineConfig config;
  DeploymentEngine engine{{topology::Point{0.0, 0.0}}, kShannon, config};
  (void)engine.add_client({8.0, 0.0});
  (void)engine.add_client({12.0, 0.0});

  const DeploymentResult result = engine.run_epochs(6);
  for (const EpochStats& e : result.epochs) {
    EXPECT_GE(e.mean_health, 0.0) << "epoch " << e.epoch;
    EXPECT_LE(e.mean_health, 1.0) << "epoch " << e.epoch;
  }
  for (std::size_t e = 1; e < result.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(result.epochs[e].mean_health, 1.0) << "epoch " << e;
  }

  const std::vector<ApHealthSummary> summary = engine.health_summary();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].ap, 0);
  EXPECT_EQ(summary[0].epochs_served, 6u);
  EXPECT_GT(summary[0].mean_health, 0.9);   // epoch 0 flux dilutes slightly
  EXPECT_GT(summary[0].min_health, 0.0);
  EXPECT_LE(summary[0].min_health, 1.0);
  EXPECT_DOUBLE_EQ(summary[0].mean_confirmation, 1.0);
}

TEST(DeploymentEngine, HealthDropsUnderBurstAndTimeSeriesRecordsIt) {
  // The WatchdogFreesStuckApAfterDeepBurst scenario again, now asserting
  // the health channel: buried epochs must score well below calm ones,
  // and the attached time-series must carry the same per-epoch values.
  obs::TimeSeriesRegistry series;
  const obs::Attach attach{{.timeseries = &series}};
  DeploymentEngineConfig config;
  config.watchdog_epochs = 2;
  config.enable_quarantine = false;
  config.upload.horizon = from_seconds(0.05);
  FaultSchedule chaos;
  chaos.add({.epoch = 1, .kind = ChaosEventKind::kBurst, .ap = 0,
             .duration_epochs = 4, .depth = Decibels{80.0}});
  DeploymentEngine engine{{topology::Point{0.0, 0.0}}, kShannon, config,
                          chaos};
  (void)engine.add_client({8.0, 0.0});
  (void)engine.add_client({12.0, 0.0});

  const DeploymentResult result = engine.run_epochs(8);

  double min_health = 1.0;
  for (const EpochStats& e : result.epochs) {
    min_health = std::min(min_health, e.mean_health);
  }
  EXPECT_LT(min_health, 0.5);  // buried epochs confirm nothing
  const std::vector<ApHealthSummary> summary = engine.health_summary();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_DOUBLE_EQ(summary[0].min_health, min_health);
  EXPECT_LT(summary[0].mean_health, 1.0);

  // The engine published one mean-health sample per epoch, matching the
  // per-epoch stats bit for bit.
  const obs::TimeSeries& health = series.series("deploy.mean_health");
  ASSERT_EQ(health.size(), result.epochs.size());
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    EXPECT_EQ(health.point(e).epoch, e);
    EXPECT_EQ(health.point(e).value, result.epochs[e].mean_health);
  }
}

TEST(InvariantAuditor, SeededViolationsActuallyFire) {
  // A deliberately inconsistent snapshot must trip every law: broken
  // conservation, a client served by a dead AP, and a quarantined client
  // inside an active matching.
  InvariantAuditor auditor;
  EpochInvariants inv;
  inv.epoch = 5;
  inv.offered = 2;
  inv.confirmed = 1;
  inv.unrecovered = 0;  // 1 + 0 != 2 → conservation violation
  inv.ap_alive = {1, 0};
  inv.active = {1, 1, 1};
  inv.quarantined = {0, 0, 1};
  inv.assignment = {1, 0, 0};  // client 0 assigned to dead AP 1
  inv.served_by = {1, 0, 0};   // client 0 served by dead AP 1; client 2
                               // (quarantined) served by AP 0
  auditor.check(inv);
  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.violations().size(), 4u);
  for (const auto& v : auditor.violations()) {
    EXPECT_EQ(v.epoch, 5);
  }

  // And a consistent snapshot stays clean.
  InvariantAuditor clean;
  EpochInvariants good;
  good.epoch = 1;
  good.offered = 2;
  good.confirmed = 2;
  good.unrecovered = 0;
  good.ap_alive = {1};
  good.active = {1, 1, 0};
  good.quarantined = {0, 0, 0};
  good.assignment = {0, 0, -1};
  good.served_by = {0, 0, -1};
  clean.check(good);
  EXPECT_TRUE(clean.ok());
}

}  // namespace
}  // namespace sic::mac
