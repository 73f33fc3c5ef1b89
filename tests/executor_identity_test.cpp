/// Identity oracle of the scheduled executor. A seeded corpus of scheduled
/// uploads covers n = 1…48, every PairMode (planned and forced), retry
/// slots and demotions, stale-RSS tracks plus initial_drift, cancellation
/// failures, ACK loss, horizon cuts, and open and closed loop. Each run's
/// full UploadSimResult is folded into a 64-bit digest; the corpus digest
/// is pinned to the value the executor produced before it moved onto a
/// reused per-thread workspace. Replays in shuffled size order (every run
/// inherits the capacity of a differently-sized predecessor) and on a
/// fresh thread must reproduce it bit for bit.

#include "mac/upload_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <exception>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sic::mac {
namespace {

/// Corpus digest pinned from the executor before the workspace rewrite.
constexpr std::uint64_t kPinnedCorpusDigest = 0xf0b3182db974ff26ULL;
constexpr int kCorpusSize = 480;
constexpr int kMaxClients = 48;

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};
const phy::DiscreteRateAdapter kDot11g{phy::RateTable::dot11g()};

struct Case {
  std::vector<channel::LinkBudget> clients;
  const phy::RateAdapter* adapter = nullptr;
  core::Schedule schedule;
  UploadSimConfig config;
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const UploadSimResult& r) {
  Fnv h;
  h.add(r.completion_s);
  h.add(r.offered);
  h.add(r.delivered);
  h.add(r.retries);
  h.add(r.drops);
  const MediumStats& m = r.medium;
  for (const std::uint64_t v :
       {m.transmissions, m.delivered, m.failed_clean, m.failed_collision,
        m.sic_decodes, m.capture_decodes, m.injected_failures}) {
    h.add(v);
  }
  const FailureTelemetry& t = r.failures;
  for (const std::uint64_t v :
       {t.rate_misses, t.cancellation_failures, t.ack_losses,
        t.duplicate_deliveries, t.retransmissions, t.mode_demotions,
        t.client_demotions, t.rematch_rounds, t.recovered, t.unrecovered,
        t.gave_up_rate_miss, t.gave_up_cancellation, t.gave_up_ack_loss,
        t.gave_up_unattempted}) {
    h.add(v);
  }
  h.add(static_cast<std::uint64_t>(t.retry_histogram.size()));
  for (const std::uint64_t v : t.retry_histogram) h.add(v);
  h.add(static_cast<std::uint64_t>(r.unrecovered_per_client.size()));
  for (const std::uint64_t v : r.unrecovered_per_client) h.add(v);
  return h.value();
}

/// Case i has n = 1 + i % 48 clients, so every size appears ten times.
Case make_case(int i) {
  Rng rng = Rng::at(20261019, static_cast<std::uint64_t>(i));
  Case c;
  const int n = 1 + i % kMaxClients;
  // The 802.11g cases keep every estimate, drift included, above the
  // table's lowest threshold (6 dB). Clients no rate serves are covered by
  // RobustUpload.RematchOfClientsNoRateServesCompletes and the
  // PairCostEngine.UnservableClients* tests.
  const bool shannon = (i / kMaxClients) % 2 == 0;
  c.adapter = shannon ? static_cast<const phy::RateAdapter*>(&kShannon)
                      : static_cast<const phy::RateAdapter*>(&kDot11g);
  const double min_snr_db = shannon ? 3.0 : 16.0;
  const double max_sigma_db = shannon ? 6.0 : 1.5;
  const double min_drift_db = shannon ? -8.0 : -3.0;
  const Milliwatts noise{1.0};
  for (int k = 0; k < n; ++k) {
    c.clients.push_back(channel::LinkBudget{
        Milliwatts{Decibels{rng.uniform(min_snr_db, 40.0)}.linear()}, noise});
  }
  core::SchedulerOptions options;
  options.enable_power_control = rng.chance(0.6);
  options.enable_multirate = rng.chance(0.6);
  options.admission_margin_db = Decibels{rng.chance(0.3) ? 1.5 : 0.0};
  c.schedule = core::schedule_upload(c.clients, *c.adapter, options);
  // Force a mode onto some pairs, so every PairMode runs on both adapters
  // regardless of what the planner preferred.
  constexpr std::array kForced{
      core::PairMode::kSerial, core::PairMode::kSic,
      core::PairMode::kSicPowerControl, core::PairMode::kSicMultirate};
  for (auto& slot : c.schedule.slots) {
    if (slot.second >= 0 && rng.chance(0.2)) {
      slot.plan.mode = kForced[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      slot.plan.weaker_power_scale = 1.0;
    }
  }

  UploadSimConfig& cfg = c.config;
  cfg.seed = 1000 + static_cast<std::uint64_t>(i);
  cfg.sic_at_ap = !rng.chance(0.05);
  if (rng.chance(0.5)) {
    cfg.faults.stale_rss_sigma = Decibels{rng.uniform(0.5, max_sigma_db)};
    cfg.faults.stale_rss_rho = rng.uniform(0.0, 1.0);
  }
  if (rng.chance(0.4)) {
    for (int k = 0; k < n; ++k) {
      cfg.faults.initial_drift.push_back(
          Decibels{rng.uniform(min_drift_db, 4.0)});
    }
  }
  if (rng.chance(0.5)) {
    cfg.faults.cancellation_failure_prob = rng.chance(0.5) ? 0.01 : 0.3;
  }
  if (rng.chance(0.5)) cfg.faults.ack_loss_prob = rng.chance(0.5) ? 0.01 : 0.2;
  cfg.recovery.enabled = rng.chance(0.75);
  cfg.recovery.max_attempts_per_frame = rng.uniform_int(1, 8);
  cfg.recovery.demote_after_failures = rng.uniform_int(1, 3);
  cfg.recovery.max_rematch_rounds = rng.uniform_int(0, 6);
  cfg.recovery.rematch_options.enable_power_control = rng.chance(0.5);
  cfg.recovery.rematch_options.enable_multirate = rng.chance(0.5);
  if (rng.chance(0.2)) {
    cfg.recovery.rematch_options.pairing =
        core::SchedulerOptions::Pairing::kGreedy;
  }
  // Horizon cuts: some runs end mid-schedule, some mid-retry.
  if (rng.chance(0.15)) {
    cfg.horizon = from_seconds(rng.uniform(0.2e-3, 6e-3));
  }
  return c;
}

const std::vector<Case>& corpus() {
  static const std::vector<Case> cases = [] {
    std::vector<Case> out;
    out.reserve(kCorpusSize);
    for (int i = 0; i < kCorpusSize; ++i) out.push_back(make_case(i));
    return out;
  }();
  return cases;
}

/// Runs the corpus in \p order and returns the per-case digests, indexed
/// by case.
std::vector<std::uint64_t> replay(const std::vector<int>& order) {
  const auto& cases = corpus();
  std::vector<std::uint64_t> digests(cases.size(), 0);
  for (const int i : order) {
    const Case& c = cases[static_cast<std::size_t>(i)];
    digests[static_cast<std::size_t>(i)] = digest(
        run_scheduled_upload(c.clients, *c.adapter, c.schedule, c.config));
  }
  return digests;
}

std::uint64_t combine(const std::vector<std::uint64_t>& digests) {
  Fnv h;
  for (const std::uint64_t d : digests) h.add(d);
  return h.value();
}

std::vector<int> corpus_order() {
  std::vector<int> order(corpus().size());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

TEST(ExecutorIdentity, CorpusCoversEveryPathOfTheExecutor) {
  std::array<int, 5> modes{};
  FailureTelemetry sum;
  std::uint64_t duplicates = 0;
  int open_loop_drops = 0;
  for (const Case& c : corpus()) {
    for (const auto& slot : c.schedule.slots) {
      const auto mode = slot.second < 0 ? core::PairMode::kSolo
                                        : slot.plan.mode;
      ++modes[static_cast<std::size_t>(mode)];
    }
    const auto r =
        run_scheduled_upload(c.clients, *c.adapter, c.schedule, c.config);
    const FailureTelemetry& t = r.failures;
    sum.rate_misses += t.rate_misses;
    sum.cancellation_failures += t.cancellation_failures;
    sum.ack_losses += t.ack_losses;
    sum.retransmissions += t.retransmissions;
    sum.mode_demotions += t.mode_demotions;
    sum.client_demotions += t.client_demotions;
    sum.rematch_rounds += t.rematch_rounds;
    sum.recovered += t.recovered;
    sum.gave_up_unattempted += t.gave_up_unattempted;
    sum.gave_up_rate_miss += t.gave_up_rate_miss;
    duplicates += t.duplicate_deliveries;
    if (!c.config.recovery.enabled && t.unrecovered > 0) ++open_loop_drops;
  }
  for (std::size_t m = 0; m < modes.size(); ++m) {
    EXPECT_GT(modes[m], 0) << "no slot of mode " << m;
  }
  EXPECT_GT(sum.rate_misses, 0u);
  EXPECT_GT(sum.cancellation_failures, 0u);
  EXPECT_GT(sum.ack_losses, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(sum.retransmissions, 0u);
  EXPECT_GT(sum.mode_demotions, 0u);
  EXPECT_GT(sum.client_demotions, 0u);
  EXPECT_GT(sum.rematch_rounds, 0u);
  EXPECT_GT(sum.recovered, 0u);
  EXPECT_GT(sum.gave_up_unattempted, 0u);  // horizon cuts
  EXPECT_GT(sum.gave_up_rate_miss, 0u);
  EXPECT_GT(open_loop_drops, 0);
}

TEST(ExecutorIdentity, CorpusDigestMatchesPin) {
  EXPECT_EQ(combine(replay(corpus_order())), kPinnedCorpusDigest);
}

TEST(ExecutorIdentity, ShuffledSizeOrderReusesWorkspaceIdentically) {
  // Alternate the largest and smallest remaining sizes, then a seeded
  // shuffle: every run starts from storage a different-sized run grew.
  std::vector<int> order = corpus_order();
  std::sort(order.begin(), order.end(), [](int a, int b) {
    const auto na = corpus()[static_cast<std::size_t>(a)].clients.size();
    const auto nb = corpus()[static_cast<std::size_t>(b)].clients.size();
    return na != nb ? na > nb : a < b;
  });
  std::vector<int> zigzag;
  for (std::size_t lo = 0, hi = order.size(); lo < hi;) {
    zigzag.push_back(order[lo++]);
    if (lo < hi) zigzag.push_back(order[--hi]);
  }
  EXPECT_EQ(combine(replay(zigzag)), kPinnedCorpusDigest);

  Rng rng{77};
  std::vector<int> shuffled = corpus_order();
  for (std::size_t k = shuffled.size(); k > 1; --k) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(k) - 1));
    std::swap(shuffled[k - 1], shuffled[j]);
  }
  EXPECT_EQ(combine(replay(shuffled)), kPinnedCorpusDigest);
}

TEST(ExecutorIdentity, FreshThreadReproducesPin) {
  (void)corpus();  // build the shared corpus before the thread reads it
  std::vector<int> reversed = corpus_order();
  std::reverse(reversed.begin(), reversed.end());
  std::uint64_t on_thread = 0;
  std::string error;
  std::thread worker{[&] {
    try {
      on_thread = combine(replay(reversed));
    } catch (const std::exception& e) {
      error = e.what();
    }
  }};
  worker.join();
  EXPECT_EQ(error, "");
  EXPECT_EQ(on_thread, kPinnedCorpusDigest);
}

/// Shannon rates, but the first rate() call re-enters the executor from
/// inside the run that asked for the rate. With \p catch_inner false the
/// inner call's error aborts the outer run mid-flight.
class ReentrantAdapter final : public phy::RateAdapter {
 public:
  explicit ReentrantAdapter(bool catch_inner) : catch_inner_(catch_inner) {}

  [[nodiscard]] BitsPerSecond rate(double sinr_linear) const override {
    if (!tried_) {
      tried_ = true;
      const Case& c = corpus().front();
      try {
        (void)run_scheduled_upload(c.clients, kShannon, c.schedule, c.config);
      } catch (const CheckError&) {
        inner_rejected_ = true;
        if (!catch_inner_) throw;
      }
    }
    return kShannon.rate(sinr_linear);
  }
  [[nodiscard]] std::string name() const override { return "reentrant"; }

  bool catch_inner_;
  mutable bool tried_ = false;
  mutable bool inner_rejected_ = false;
};

TEST(ExecutorIdentity, ReentrantCallIsRejectedAndWorkspaceRecovers) {
  const Case& c = corpus()[7];
  const ReentrantAdapter adapter{/*catch_inner=*/true};
  const auto outer =
      run_scheduled_upload(c.clients, adapter, c.schedule, c.config);
  EXPECT_TRUE(adapter.inner_rejected_);
  // The rejected inner call left the outer run untouched: a second run,
  // which no longer re-enters, reproduces it.
  EXPECT_EQ(digest(outer),
            digest(run_scheduled_upload(c.clients, adapter, c.schedule,
                                        c.config)));

  // An outer run aborted mid-flight releases the workspace, and the next
  // runs start clean.
  const ReentrantAdapter aborting{/*catch_inner=*/false};
  EXPECT_THROW(
      (void)run_scheduled_upload(c.clients, aborting, c.schedule, c.config),
      CheckError);
  EXPECT_TRUE(aborting.inner_rejected_);
  EXPECT_EQ(combine(replay(corpus_order())), kPinnedCorpusDigest);
}

}  // namespace
}  // namespace sic::mac
