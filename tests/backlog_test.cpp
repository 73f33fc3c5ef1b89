#include "core/backlog.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/upload_pair.hpp"
#include "phy/rate_table.hpp"
#include "util/rng.hpp"

namespace sic::core {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};
constexpr Milliwatts kN0{1.0};

BacklogClient client_db(double snr_db, int packets) {
  return BacklogClient{
      channel::LinkBudget{Milliwatts{Decibels{snr_db}.linear()}, kN0},
      packets};
}

TEST(BacklogDrain, SoloDrainScalesLinearly) {
  const auto c1 = client_db(20.0, 1);
  const auto c5 = client_db(20.0, 5);
  EXPECT_NEAR(solo_drain_airtime(c5, kShannon, 12000.0),
              5.0 * solo_drain_airtime(c1, kShannon, 12000.0), 1e-15);
  EXPECT_DOUBLE_EQ(solo_drain_airtime(client_db(20.0, 0), kShannon, 12000.0),
                   0.0);
}

TEST(BacklogDrain, SingleFrameEachMatchesPairPlan) {
  // With one packet per client the backlog machinery must agree with the
  // single-packet algebra.
  const auto a = client_db(24.0, 1);
  const auto b = client_db(12.0, 1);
  BacklogOptions options;
  options.enable_packing = false;
  const auto plan = best_drain_plan(a, b, kShannon, options);
  const auto ctx =
      UploadPairContext::make(a.link.rss, b.link.rss, kN0, kShannon, 12000.0);
  const double expect = std::min(serial_airtime(ctx), sic_airtime(ctx));
  EXPECT_NEAR(plan.airtime, expect, expect * 1e-12);
}

TEST(BacklogDrain, DisciplinesOrdered) {
  // Packed trains <= SIC rounds <= serial whenever SIC is feasible, since
  // each discipline generalizes the previous one's schedule space here.
  Rng rng{3};
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = client_db(rng.uniform(8.0, 40.0), rng.uniform_int(1, 10));
    const auto b = client_db(rng.uniform(4.0, 35.0), rng.uniform_int(1, 10));
    BacklogOptions none;
    none.enable_packing = false;
    const auto without = best_drain_plan(a, b, kShannon, none);
    BacklogOptions with;
    const auto packed = best_drain_plan(a, b, kShannon, with);
    EXPECT_LE(packed.airtime, without.airtime + without.airtime * 1e-12)
        << "trial " << trial;
    const double serial = solo_drain_airtime(a, kShannon, 12000.0) +
                          solo_drain_airtime(b, kShannon, 12000.0);
    EXPECT_LE(without.airtime, serial + serial * 1e-12);
  }
}

TEST(BacklogDrain, PackingShinesWithAsymmetricQueues) {
  // A deep queue on the concurrent-fast client: trains ride the slow
  // client's long packets. Versus *lockstep* SIC rounds the saving is
  // large (the fast queue would otherwise drain serially); versus the best
  // non-packing discipline the saving is the slow client's clean airtime
  // per train.
  const auto slow = client_db(21.0, 2);    // similar RSS ⇒ slow under SIC
  const auto fast = client_db(20.0, 12);
  BacklogOptions options;
  const auto plan = best_drain_plan(slow, fast, kShannon, options);
  EXPECT_EQ(plan.mode, DrainMode::kPackedTrains);

  // Explicit lockstep-rounds time: min(q) concurrent rounds + leftovers.
  const auto ctx = UploadPairContext::make(slow.link.rss, fast.link.rss, kN0,
                                           kShannon, 12000.0);
  const double lockstep =
      2.0 * sic_airtime(ctx) +
      10.0 * solo_airtime(fast.link, kShannon, 12000.0);
  EXPECT_LT(plan.airtime, lockstep * 0.8);

  // And strictly better than the best non-packing discipline.
  BacklogOptions no_pack;
  no_pack.enable_packing = false;
  const auto without = best_drain_plan(slow, fast, kShannon, no_pack);
  EXPECT_LT(plan.airtime, without.airtime);
}

TEST(BacklogDrain, TrainAccountingExactOnSmallCase) {
  // slow client: 1 packet, fast: 6 packets, t_slow/t_fast just above 6: a
  // single full train carries everything and beats the serial drain by the
  // slow client's clean airtime.
  const auto a = client_db(20.5, 1);  // stronger, slow under SIC
  const auto b = client_db(20.0, 6);
  const auto ctx =
      UploadPairContext::make(a.link.rss, b.link.rss, kN0, kShannon, 12000.0);
  const auto rates = sic_rates(ctx);
  const double t_slow = 12000.0 / rates.stronger.value();
  const double t_fast = 12000.0 / rates.weaker.value();
  ASSERT_GT(t_slow / t_fast, 6.0);
  ASSERT_LT(t_slow / t_fast, 7.0);
  const auto plan = best_drain_plan(a, b, kShannon, BacklogOptions{});
  EXPECT_EQ(plan.mode, DrainMode::kPackedTrains);
  EXPECT_EQ(plan.rounds, 1);
  EXPECT_NEAR(plan.airtime, t_slow, t_slow * 1e-12);
}

TEST(BacklogDrain, ZeroQueuePairDegradesToSolo) {
  const auto a = client_db(20.0, 4);
  const auto b = client_db(15.0, 0);
  const auto plan = best_drain_plan(a, b, kShannon, BacklogOptions{});
  EXPECT_NEAR(plan.airtime, solo_drain_airtime(a, kShannon, 12000.0),
              1e-12);
}

TEST(BacklogSchedule, NeverWorseThanSerial) {
  Rng rng{9};
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<BacklogClient> clients;
    const int n = rng.uniform_int(2, 10);
    for (int i = 0; i < n; ++i) {
      clients.push_back(
          client_db(rng.uniform(8.0, 40.0), rng.uniform_int(1, 8)));
    }
    const auto schedule =
        schedule_backlog_upload(clients, kShannon, BacklogOptions{});
    const double serial =
        serial_backlog_airtime(clients, kShannon, 12000.0);
    EXPECT_LE(schedule.total_airtime, serial + serial * 1e-9)
        << "trial " << trial;
    // Every client appears exactly once.
    std::vector<int> seen(static_cast<std::size_t>(n), 0);
    for (const auto& slot : schedule.slots) {
      ++seen[static_cast<std::size_t>(slot.first)];
      if (slot.second >= 0) ++seen[static_cast<std::size_t>(slot.second)];
    }
    for (const int s : seen) EXPECT_EQ(s, 1);
  }
}

TEST(BacklogSchedule, DeeperQueuesRaiseThePackingPayoff) {
  // The paper: packing "will depend heavily on the traffic patterns" — its
  // payoff over lockstep SIC grows with queue depth.
  std::vector<BacklogClient> shallow;
  std::vector<BacklogClient> deep;
  Rng rng{12};
  for (int i = 0; i < 8; ++i) {
    const double snr = rng.uniform(15.0, 30.0);
    shallow.push_back(client_db(snr, 1));
    deep.push_back(client_db(snr, 10));
  }
  BacklogOptions with;
  BacklogOptions without;
  without.enable_packing = false;
  const double shallow_ratio =
      schedule_backlog_upload(shallow, kShannon, without).total_airtime /
      schedule_backlog_upload(shallow, kShannon, with).total_airtime;
  const double deep_ratio =
      schedule_backlog_upload(deep, kShannon, without).total_airtime /
      schedule_backlog_upload(deep, kShannon, with).total_airtime;
  EXPECT_GE(deep_ratio + 1e-9, shallow_ratio);
}

TEST(BacklogSchedule, EmptyAndSingle) {
  EXPECT_TRUE(
      schedule_backlog_upload({}, kShannon, BacklogOptions{}).slots.empty());
  const std::vector<BacklogClient> one{client_db(20.0, 3)};
  const auto schedule =
      schedule_backlog_upload(one, kShannon, BacklogOptions{});
  ASSERT_EQ(schedule.slots.size(), 1u);
  EXPECT_EQ(schedule.slots[0].second, -1);
  EXPECT_NEAR(schedule.total_airtime,
              solo_drain_airtime(one[0], kShannon, 12000.0), 1e-12);
}

TEST(BacklogSchedule, BlossomBeatsGreedyPairing) {
  Rng rng{21};
  std::vector<BacklogClient> clients;
  for (int i = 0; i < 10; ++i) {
    clients.push_back(client_db(rng.uniform(8.0, 40.0), rng.uniform_int(1, 6)));
  }
  BacklogOptions blossom;
  BacklogOptions greedy;
  greedy.pairing = SchedulerOptions::Pairing::kGreedy;
  EXPECT_LE(schedule_backlog_upload(clients, kShannon, blossom).total_airtime,
            schedule_backlog_upload(clients, kShannon, greedy).total_airtime +
                1e-9);
}

TEST(BacklogSchedule, UnservableClientDrainsSoloInsteadOfAborting) {
  // 802.11g serves nothing below 6 dB: that client's drain time, and every
  // pair cost it is part of, is infinite. It gets a solo slot and the other
  // clients are scheduled exactly as without it.
  const phy::DiscreteRateAdapter dot11g{phy::RateTable::dot11g()};
  const std::vector<BacklogClient> servable{
      client_db(25.0, 3), client_db(18.0, 2), client_db(12.0, 5),
      client_db(30.0, 1)};
  std::vector<BacklogClient> clients = servable;
  clients.insert(clients.begin() + 1, client_db(4.0, 2));
  const std::vector<int> position{0, 2, 3, 4};
  const BacklogSchedule got =
      schedule_backlog_upload(clients, dot11g, BacklogOptions{});
  const BacklogSchedule want =
      schedule_backlog_upload(servable, dot11g, BacklogOptions{});
  ASSERT_EQ(got.slots.size(), want.slots.size() + 1);
  EXPECT_EQ(got.slots[0].first, 1);
  EXPECT_EQ(got.slots[0].second, -1);
  EXPECT_EQ(got.slots[0].plan.mode, DrainMode::kSerial);
  EXPECT_EQ(got.slots[0].plan.airtime,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(got.total_airtime, std::numeric_limits<double>::infinity());
  for (std::size_t s = 0; s < want.slots.size(); ++s) {
    const BacklogSlot& g = got.slots[s + 1];
    const BacklogSlot& w = want.slots[s];
    EXPECT_EQ(g.first, position[static_cast<std::size_t>(w.first)]);
    EXPECT_EQ(g.second,
              w.second < 0 ? -1 : position[static_cast<std::size_t>(w.second)]);
    EXPECT_EQ(g.plan.mode, w.plan.mode);
    EXPECT_EQ(g.plan.airtime, w.plan.airtime);
    EXPECT_EQ(g.plan.rounds, w.plan.rounds);
  }

  // An empty queue on such a link takes no time and pairs like any other.
  clients[1].packets = 0;
  EXPECT_EQ(solo_drain_airtime(clients[1], dot11g, 12000.0), 0.0);
  const BacklogSchedule empty_queue =
      schedule_backlog_upload(clients, dot11g, BacklogOptions{});
  EXPECT_EQ(empty_queue.total_airtime, want.total_airtime);
}

/// Identity corpus of the backlog planner: n = 1…24 clients on Shannon and
/// 802.11g (every client servable), packing on and off, under each pairing
/// policy. kAuto runs with a threshold of 12 so both of its sides appear.
/// Every schedule is folded into one FNV digest, pinned to the value the
/// planner produced before it shared the matching reduction with the
/// pair-cost engine.
constexpr std::uint64_t kPinnedBacklogDigest = 0xe6d2134340662579ULL;
constexpr int kBacklogMaxClients = 24;

struct BacklogCase {
  std::vector<BacklogClient> clients;
  const phy::RateAdapter* adapter = nullptr;
  BacklogOptions options;
};

const phy::DiscreteRateAdapter kDot11g{phy::RateTable::dot11g()};

/// Case i: n = 1 + i % 24; then adapter, packing and pairing policy cycle
/// so every combination meets every size.
BacklogCase make_backlog_case(int i) {
  constexpr std::array kPairings{
      SchedulerOptions::Pairing::kBlossom, SchedulerOptions::Pairing::kGreedy,
      SchedulerOptions::Pairing::kApprox, SchedulerOptions::Pairing::kAuto};
  Rng rng = Rng::at(20261020, static_cast<std::uint64_t>(i));
  const int n = 1 + i % kBacklogMaxClients;
  const int combo = i / kBacklogMaxClients;
  const bool shannon = combo % 2 == 0;
  BacklogCase c;
  c.adapter = shannon ? static_cast<const phy::RateAdapter*>(&kShannon)
                      : static_cast<const phy::RateAdapter*>(&kDot11g);
  c.options.enable_packing = (combo / 2) % 2 == 0;
  c.options.pairing = kPairings[static_cast<std::size_t>(combo / 4)];
  c.options.auto_tier_threshold = 12;
  // 802.11g's lowest threshold is 6 dB: every client stays above it.
  const double min_snr_db = shannon ? 3.0 : 7.0;
  for (int k = 0; k < n; ++k) {
    c.clients.push_back(BacklogClient{
        channel::LinkBudget{
            Milliwatts{Decibels{rng.uniform(min_snr_db, 40.0)}.linear()}, kN0},
        rng.chance(0.1) ? 0 : rng.uniform_int(1, 8)});
  }
  return c;
}

constexpr int kBacklogCorpusSize = kBacklogMaxClients * 16;

void fnv_add(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t backlog_corpus_digest() {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < kBacklogCorpusSize; ++i) {
    const BacklogCase c = make_backlog_case(i);
    const BacklogSchedule s =
        schedule_backlog_upload(c.clients, *c.adapter, c.options);
    fnv_add(h, std::bit_cast<std::uint64_t>(s.total_airtime));
    fnv_add(h, s.slots.size());
    for (const BacklogSlot& slot : s.slots) {
      fnv_add(h, static_cast<std::uint64_t>(slot.first));
      fnv_add(h, static_cast<std::uint64_t>(slot.second));
      fnv_add(h, static_cast<std::uint64_t>(slot.plan.mode));
      fnv_add(h, std::bit_cast<std::uint64_t>(slot.plan.airtime));
      fnv_add(h, static_cast<std::uint64_t>(slot.plan.rounds));
    }
  }
  return h;
}

TEST(BacklogIdentity, CorpusCoversEveryDisciplineAndTier) {
  std::array<int, 3> modes{};
  int solo_slots = 0;
  int auto_approx = 0;
  int auto_blossom = 0;
  for (int i = 0; i < kBacklogCorpusSize; ++i) {
    const BacklogCase c = make_backlog_case(i);
    const BacklogSchedule s =
        schedule_backlog_upload(c.clients, *c.adapter, c.options);
    for (const BacklogSlot& slot : s.slots) {
      if (slot.second < 0) {
        ++solo_slots;
      } else {
        ++modes[static_cast<std::size_t>(slot.plan.mode)];
      }
    }
    if (c.options.pairing == SchedulerOptions::Pairing::kAuto &&
        c.clients.size() >= 2) {
      ++(static_cast<int>(c.clients.size()) >= c.options.auto_tier_threshold
             ? auto_approx
             : auto_blossom);
    }
  }
  for (const int count : modes) EXPECT_GT(count, 0);
  EXPECT_GT(solo_slots, 0);
  EXPECT_GT(auto_approx, 0);
  EXPECT_GT(auto_blossom, 0);
}

TEST(BacklogIdentity, CorpusDigestMatchesPin) {
  EXPECT_EQ(backlog_corpus_digest(), kPinnedBacklogDigest)
      << std::hex << "digest 0x" << backlog_corpus_digest();
}

}  // namespace
}  // namespace sic::core
