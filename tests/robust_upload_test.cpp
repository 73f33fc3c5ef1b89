/// Failure-path tests of the closed-loop scheduled executor: injected
/// cancellation failures, ACK loss, stale-RSS re-matching, and the
/// zero-fault bit-identity guarantee.

#include "mac/upload_sim.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "core/scheduler.hpp"
#include "phy/rate_table.hpp"

namespace sic::mac {
namespace {

constexpr Milliwatts kN0{1.0};
const phy::ShannonRateAdapter kShannon{megahertz(20.0)};

std::vector<channel::LinkBudget> clients_db(
    std::initializer_list<double> snrs) {
  std::vector<channel::LinkBudget> out;
  for (const double db : snrs) {
    out.push_back(channel::LinkBudget{Milliwatts{Decibels{db}.linear()}, kN0});
  }
  return out;
}

TEST(RobustUpload, CancellationFailureFallsBackToSerialAndCompletes) {
  // Every SIC-path decode is force-failed: the weaker frame of the pair
  // can never ride the collision. The closed loop must recover it on a
  // clean solo retry (immune to cancellation faults) and lose nothing.
  const auto clients = clients_db({24.0, 12.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  ASSERT_EQ(schedule.slots.size(), 1u);
  ASSERT_NE(schedule.slots[0].plan.mode, core::PairMode::kSerial);

  UploadSimConfig config;
  config.faults.cancellation_failure_prob = 1.0;
  const auto result = run_scheduled_upload(clients, kShannon, schedule, config);
  EXPECT_EQ(result.offered, 2u);
  EXPECT_EQ(result.failures.unrecovered, 0u);
  EXPECT_GE(result.failures.cancellation_failures, 1u);
  EXPECT_GE(result.failures.recovered, 1u);
  EXPECT_GE(result.failures.mode_demotions, 1u);
  EXPECT_GE(result.retries, 1u);
}

TEST(RobustUpload, OpenLoopDropsWhatClosedLoopRecovers) {
  const auto clients = clients_db({24.0, 12.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.cancellation_failure_prob = 1.0;
  config.recovery.enabled = false;
  const auto result = run_scheduled_upload(clients, kShannon, schedule, config);
  EXPECT_GE(result.failures.unrecovered, 1u);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_LT(result.delivered, result.offered);
  // The abandoned frame died of an injected cancellation failure, and the
  // terminal-cause split always accounts for every unrecovered frame.
  EXPECT_GE(result.failures.gave_up_cancellation, 1u);
  EXPECT_EQ(result.failures.gave_up_rate_miss +
                result.failures.gave_up_cancellation +
                result.failures.gave_up_ack_loss +
                result.failures.gave_up_unattempted,
            result.failures.unrecovered);
  std::uint64_t per_client_sum = 0;
  for (const std::uint64_t lost : result.unrecovered_per_client) {
    per_client_sum += lost;
  }
  EXPECT_EQ(per_client_sum, result.failures.unrecovered);
}

TEST(RobustUpload, CertainAckLossAccountsDuplicatesExactly) {
  // p = 1: the station never hears an ACK, retransmits until its attempt
  // budget runs out, and every retransmission is a duplicate at the AP.
  const auto clients = clients_db({20.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.ack_loss_prob = 1.0;
  const auto result = run_scheduled_upload(clients, kShannon, schedule, config);
  const auto attempts =
      static_cast<std::uint64_t>(config.recovery.max_attempts_per_frame);
  EXPECT_EQ(result.offered, 1u);
  EXPECT_EQ(result.delivered, attempts);  // AP decoded every transmission
  EXPECT_EQ(result.failures.duplicate_deliveries, attempts - 1);
  EXPECT_EQ(result.failures.ack_losses, attempts);
  EXPECT_EQ(result.failures.unrecovered, 1u);  // never confirmed
  EXPECT_EQ(result.failures.recovered, 0u);
  // Terminal-cause attribution: the budget ran out on ACK loss, and the
  // per-client split points at the only client.
  EXPECT_EQ(result.failures.gave_up_ack_loss, 1u);
  EXPECT_EQ(result.failures.gave_up_rate_miss, 0u);
  EXPECT_EQ(result.failures.gave_up_cancellation, 0u);
  EXPECT_EQ(result.failures.gave_up_unattempted, 0u);
  ASSERT_EQ(result.unrecovered_per_client.size(), 1u);
  EXPECT_EQ(result.unrecovered_per_client[0], 1u);
}

TEST(RobustUpload, OccasionalAckLossRecoversViaDuplicate) {
  const auto clients = clients_db({22.0, 18.0, 14.0, 10.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.ack_loss_prob = 0.5;
  bool saw_duplicate = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    config.seed = seed;
    const auto result =
        run_scheduled_upload(clients, kShannon, schedule, config);
    EXPECT_EQ(result.failures.unrecovered, 0u) << "seed " << seed;
    EXPECT_EQ(result.failures.duplicate_deliveries, result.failures.ack_losses)
        << "seed " << seed;
    saw_duplicate |= result.failures.duplicate_deliveries > 0;
  }
  EXPECT_TRUE(saw_duplicate);
}

TEST(RobustUpload, OddClientCountSurvivesRematching) {
  // Five clients under heavy drift: re-matching repeatedly runs the
  // blossom reduction on odd residual backlogs (dummy-vertex path) and
  // must still confirm every frame.
  const auto clients = clients_db({26.0, 21.0, 17.0, 12.0, 8.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.stale_rss_sigma = Decibels{6.0};
  config.faults.stale_rss_rho = 0.9;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    config.seed = seed;
    const auto result =
        run_scheduled_upload(clients, kShannon, schedule, config);
    EXPECT_EQ(result.failures.unrecovered, 0u) << "seed " << seed;
  }
}

TEST(RobustUpload, AcceptanceCombinedFaultsClosedLoopLosesNothing) {
  // The headline criterion: 1% cancellation failures + 4 dB stale RSS +
  // 1% ACK loss. Closed loop: zero unrecovered drops on every seed.
  // Open loop: losses on at least some seeds.
  const auto clients =
      clients_db({27.0, 24.0, 21.0, 18.0, 15.0, 12.0, 9.0, 6.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.stale_rss_sigma = Decibels{4.0};
  config.faults.stale_rss_rho = 0.9;
  config.faults.cancellation_failure_prob = 0.01;
  config.faults.ack_loss_prob = 0.01;

  std::uint64_t open_loop_drops = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    config.seed = seed;
    config.recovery.enabled = true;
    const auto closed =
        run_scheduled_upload(clients, kShannon, schedule, config);
    EXPECT_EQ(closed.failures.unrecovered, 0u) << "seed " << seed;
    EXPECT_EQ(closed.drops, 0u) << "seed " << seed;
    config.recovery.enabled = false;
    const auto open = run_scheduled_upload(clients, kShannon, schedule, config);
    open_loop_drops += open.failures.unrecovered;
  }
  EXPECT_GT(open_loop_drops, 0u);
}

TEST(RobustUpload, ZeroFaultsMatchesOpenLoopBitForBit) {
  // With every fault knob at zero the recovery layer must never engage:
  // identical results (including the event-driven completion time) with
  // recovery on or off, and an all-zero telemetry block.
  const auto clients = clients_db({30.0, 24.0, 15.0, 12.0, 20.0, 10.0});
  core::SchedulerOptions options;
  options.enable_power_control = true;
  options.enable_multirate = true;
  const auto schedule = core::schedule_upload(clients, kShannon, options);

  UploadSimConfig config;
  config.recovery.enabled = true;
  const auto closed = run_scheduled_upload(clients, kShannon, schedule, config);
  config.recovery.enabled = false;
  const auto open = run_scheduled_upload(clients, kShannon, schedule, config);

  EXPECT_EQ(closed.completion_s, open.completion_s);  // exact, not near
  EXPECT_EQ(closed.delivered, open.delivered);
  EXPECT_EQ(closed.delivered, closed.offered);
  EXPECT_EQ(closed.retries, 0u);
  EXPECT_EQ(closed.drops, 0u);
  EXPECT_EQ(closed.failures.rate_misses, 0u);
  EXPECT_EQ(closed.failures.cancellation_failures, 0u);
  EXPECT_EQ(closed.failures.ack_losses, 0u);
  EXPECT_EQ(closed.failures.duplicate_deliveries, 0u);
  EXPECT_EQ(closed.failures.mode_demotions, 0u);
  EXPECT_EQ(closed.failures.client_demotions, 0u);
  EXPECT_EQ(closed.failures.rematch_rounds, 0u);
  EXPECT_EQ(closed.failures.recovered, 0u);
  EXPECT_EQ(closed.failures.unrecovered, 0u);
  EXPECT_EQ(closed.failures.gave_up_rate_miss, 0u);
  EXPECT_EQ(closed.failures.gave_up_cancellation, 0u);
  EXPECT_EQ(closed.failures.gave_up_ack_loss, 0u);
  EXPECT_EQ(closed.failures.gave_up_unattempted, 0u);
  for (const std::uint64_t lost : closed.unrecovered_per_client) {
    EXPECT_EQ(lost, 0u);
  }
}

TEST(RobustUpload, StaleRssDemotesChronicFailures) {
  // A fully decorrelated channel (rho = 0) makes every re-estimate stale
  // again by flight time, so some client fails repeatedly; after
  // demote_after_failures it must drain solo and the run must still
  // confirm everything.
  const auto clients = clients_db({25.0, 23.0, 21.0, 19.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.stale_rss_sigma = Decibels{8.0};
  config.faults.stale_rss_rho = 0.0;
  bool saw_demotion = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    config.seed = seed;
    const auto result =
        run_scheduled_upload(clients, kShannon, schedule, config);
    EXPECT_EQ(result.failures.unrecovered, 0u) << "seed " << seed;
    saw_demotion |= result.failures.client_demotions > 0;
  }
  EXPECT_TRUE(saw_demotion);
}

TEST(RobustUpload, RematchOfClientsNoRateServesCompletes) {
  // 802.11g serves nothing below 6 dB. Two clients were planned at 8 and
  // 7 dB but sit 5 dB lower for the whole run: their frames fail, and the
  // re-estimated channels fall below the table's lowest threshold. With
  // demotion out of the way both stay pairable, so the re-match hands the
  // engine two clients no rate serves. It must plan them solo (their sends
  // then fail at confirmation) instead of aborting the run, and the other
  // clients still deliver.
  const phy::DiscreteRateAdapter dot11g{phy::RateTable::dot11g()};
  const auto clients = clients_db({26.0, 20.0, 8.0, 7.0});
  const auto schedule = core::schedule_upload(clients, dot11g, {});
  UploadSimConfig config;
  config.faults.initial_drift = {Decibels{0.0}, Decibels{0.0},
                                 Decibels{-5.0}, Decibels{-5.0}};
  config.recovery.demote_after_failures = 1000;
  const auto result = run_scheduled_upload(clients, dot11g, schedule, config);
  EXPECT_GE(result.failures.rematch_rounds, 1u);
  ASSERT_EQ(result.unrecovered_per_client.size(), 4u);
  EXPECT_EQ(result.unrecovered_per_client[0], 0u);
  EXPECT_EQ(result.unrecovered_per_client[1], 0u);
  EXPECT_EQ(result.unrecovered_per_client[2], 1u);
  EXPECT_EQ(result.unrecovered_per_client[3], 1u);
  EXPECT_EQ(result.failures.unrecovered, 2u);
}

}  // namespace
}  // namespace sic::mac
