/// Cross-module consistency properties: the analytic algebra, the
/// scheduler, and the discrete-event simulator must tell one story.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "core/cross_link.hpp"
#include "core/packing.hpp"
#include "core/scheduler.hpp"
#include "core/upload_pair.hpp"
#include "mac/upload_sim.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace sic {
namespace {

constexpr Milliwatts kN0{1.0};
const phy::ShannonRateAdapter kShannon{megahertz(20.0)};

std::vector<channel::LinkBudget> random_clients(Rng& rng, int n) {
  std::vector<channel::LinkBudget> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(channel::LinkBudget{
        Milliwatts{Decibels{rng.uniform(10.0, 35.0)}.linear()}, kN0});
  }
  return out;
}

TEST(Consistency, SimulatedScheduleTimeTracksAnalyticTotal) {
  // The scheduled-upload simulation must take the schedule's analytic
  // airtime plus bounded MAC overhead (preambles, SIFS, ACKs) — never
  // less than the airtime, never more than airtime + per-slot overhead.
  Rng rng{7};
  for (int trial = 0; trial < 10; ++trial) {
    const auto clients = random_clients(rng, rng.uniform_int(2, 8));
    core::SchedulerOptions options;
    options.enable_power_control = true;
    const auto schedule = core::schedule_upload(clients, kShannon, options);
    mac::UploadSimConfig config;
    const auto run =
        mac::run_scheduled_upload(clients, kShannon, schedule, config);
    ASSERT_EQ(run.delivered, run.offered) << "trial " << trial;
    EXPECT_GT(run.completion_s, schedule.total_airtime);
    // Overhead bound: every slot costs at most 2 preambles + 3 SIFS +
    // 2 ACKs + scheduling slack. 200 us/slot is generous.
    const double overhead_bound = 200e-6 * schedule.slots.size() * 2.0;
    EXPECT_LT(run.completion_s, schedule.total_airtime + overhead_bound)
        << "trial " << trial;
  }
}

TEST(Consistency, SchedulerInvariantUnderClientPermutation) {
  Rng rng{13};
  const auto clients = random_clients(rng, 9);
  const auto base = core::schedule_upload(clients, kShannon, {});
  auto shuffled = clients;
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  const auto permuted = core::schedule_upload(shuffled, kShannon, {});
  EXPECT_NEAR(base.total_airtime, permuted.total_airtime,
              base.total_airtime * 1e-9);
}

TEST(Consistency, MonteCarloMirrorSymmetry) {
  // evaluate_cross_link must be invariant under swapping the two links.
  Rng rng{17};
  topology::SamplerConfig config;
  for (int i = 0; i < 500; ++i) {
    const auto sample = topology::sample_two_link(rng, config);
    const auto fwd = core::evaluate_cross_link(sample.rss, kShannon);
    const auto mir = core::evaluate_cross_link(sample.rss.mirrored(), kShannon);
    EXPECT_EQ(fwd.sic_feasible, mir.sic_feasible);
    EXPECT_NEAR(fwd.gain, mir.gain, fwd.gain * 1e-9);
    EXPECT_NEAR(fwd.serial_airtime, mir.serial_airtime,
                fwd.serial_airtime * 1e-12);
  }
}

TEST(Consistency, PairGainMatchesMonteCarloEvaluator) {
  // The per-pair technique evaluator must equal the raw core calls.
  Rng rng{19};
  topology::SamplerConfig config;
  for (int i = 0; i < 100; ++i) {
    const auto sample = topology::sample_two_to_one(rng, config);
    const auto ctx = core::UploadPairContext::make(sample.s1, sample.s2,
                                                   sample.noise, kShannon);
    const auto gains = analysis::evaluate_upload_pair_techniques(ctx);
    EXPECT_DOUBLE_EQ(gains.sic, core::realized_gain(ctx));
    EXPECT_DOUBLE_EQ(gains.packing, core::packing_two_to_one(ctx).gain);
  }
}

TEST(Consistency, ImperfectApLosesSicDecodesInSimulation) {
  // The Section 9 knobs must flow through to the end-to-end simulator: a
  // 10% residual eliminates SIC decodes that the perfect AP achieves.
  const std::vector<channel::LinkBudget> clients{
      channel::LinkBudget{Milliwatts{Decibels{24.0}.linear()}, kN0},
      channel::LinkBudget{Milliwatts{Decibels{12.0}.linear()}, kN0}};
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  mac::UploadSimConfig perfect;
  const auto clean = mac::run_scheduled_upload(clients, kShannon, schedule,
                                               perfect);
  ASSERT_GT(clean.medium.sic_decodes, 0u);
  mac::UploadSimConfig impaired = perfect;
  impaired.cancellation_residual = 0.1;
  impaired.recovery.enabled = false;  // open loop: the loss stays a drop
  const auto degraded =
      mac::run_scheduled_upload(clients, kShannon, schedule, impaired);
  EXPECT_EQ(degraded.medium.sic_decodes, 0u);
  EXPECT_LT(degraded.delivered, degraded.offered);
  // The closed-loop executor sees the same decode failure but recovers it
  // through a solo retry (the clean path is immune to the residual).
  impaired.recovery.enabled = true;
  const auto recovered =
      mac::run_scheduled_upload(clients, kShannon, schedule, impaired);
  EXPECT_EQ(recovered.failures.unrecovered, 0u);
  EXPECT_GT(recovered.failures.recovered, 0u);
}

TEST(Consistency, ObserversNeverPerturbTheSimulation) {
  // The sic::obs contract: a MetricsRegistry or TraceSink is a pure
  // observer. Attaching both must leave every simulation result
  // bit-for-bit identical to a detached run, even on the fault-heavy
  // closed-loop path where the instrumentation is densest.
  Rng rng{23};
  const auto clients = random_clients(rng, 6);
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  mac::UploadSimConfig config;
  config.frames_per_client = 3;
  config.faults.stale_rss_sigma = Decibels{3.0};
  config.faults.cancellation_failure_prob = 0.2;
  config.faults.ack_loss_prob = 0.05;

  const auto detached =
      mac::run_scheduled_upload(clients, kShannon, schedule, config);

  obs::MetricsRegistry registry;
  std::ostringstream trace_os;
  obs::TraceSink sink{trace_os};
  const auto observed = [&] {
    const obs::Attach attach{{.metrics = &registry, .trace = &sink}};
    return mac::run_scheduled_upload(clients, kShannon, schedule, config);
  }();

  // Observers saw the run...
  EXPECT_GT(registry.counter("mac.upload.runs").value(), 0u);
  EXPECT_GT(sink.events_written(), 0u);

  // ...without changing a single bit of it. EXPECT_EQ on the doubles is
  // deliberate: bit-identity, not tolerance.
  EXPECT_EQ(observed.completion_s, detached.completion_s);
  EXPECT_EQ(observed.offered, detached.offered);
  EXPECT_EQ(observed.delivered, detached.delivered);
  EXPECT_EQ(observed.retries, detached.retries);
  EXPECT_EQ(observed.drops, detached.drops);
  EXPECT_EQ(observed.medium.transmissions, detached.medium.transmissions);
  EXPECT_EQ(observed.medium.delivered, detached.medium.delivered);
  EXPECT_EQ(observed.medium.failed_clean, detached.medium.failed_clean);
  EXPECT_EQ(observed.medium.failed_collision,
            detached.medium.failed_collision);
  EXPECT_EQ(observed.medium.sic_decodes, detached.medium.sic_decodes);
  EXPECT_EQ(observed.medium.capture_decodes, detached.medium.capture_decodes);
  EXPECT_EQ(observed.failures.rate_misses, detached.failures.rate_misses);
  EXPECT_EQ(observed.failures.cancellation_failures,
            detached.failures.cancellation_failures);
  EXPECT_EQ(observed.failures.ack_losses, detached.failures.ack_losses);
  EXPECT_EQ(observed.failures.duplicate_deliveries,
            detached.failures.duplicate_deliveries);
  EXPECT_EQ(observed.failures.retransmissions,
            detached.failures.retransmissions);
  EXPECT_EQ(observed.failures.mode_demotions, detached.failures.mode_demotions);
  EXPECT_EQ(observed.failures.client_demotions,
            detached.failures.client_demotions);
  EXPECT_EQ(observed.failures.rematch_rounds, detached.failures.rematch_rounds);
  EXPECT_EQ(observed.failures.recovered, detached.failures.recovered);
  EXPECT_EQ(observed.failures.unrecovered, detached.failures.unrecovered);
  EXPECT_EQ(observed.failures.retry_histogram, detached.failures.retry_histogram);
}

TEST(Consistency, AdcLimitFlowsThroughSimulator) {
  // 25 dB disparity pair with a 20 dB ADC limit: weaker frame lost.
  const std::vector<channel::LinkBudget> clients{
      channel::LinkBudget{Milliwatts{Decibels{30.0}.linear()}, kN0},
      channel::LinkBudget{Milliwatts{Decibels{5.0}.linear()}, kN0}};
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  // Only meaningful when the scheduler actually picked a SIC slot.
  if (schedule.slots.size() == 1 &&
      schedule.slots[0].plan.mode == core::PairMode::kSic) {
    mac::UploadSimConfig limited;
    limited.max_decodable_disparity = Decibels{20.0};
    limited.recovery.enabled = false;  // open loop: the loss stays a drop
    const auto run =
        mac::run_scheduled_upload(clients, kShannon, schedule, limited);
    EXPECT_LT(run.delivered, run.offered);
    // Closed loop: the weaker client's frame is retried solo (no disparity
    // once it transmits alone) and everything lands.
    limited.recovery.enabled = true;
    const auto recovered =
        mac::run_scheduled_upload(clients, kShannon, schedule, limited);
    EXPECT_EQ(recovered.failures.unrecovered, 0u);
    EXPECT_EQ(recovered.delivered, recovered.offered);
  }
}

}  // namespace
}  // namespace sic
