/// Decision identity of the dense blossom solver: on every complete graph
/// it must return the same mate vector as the general edge-list reference
/// (tests/support) and do the same work — identical stages,
/// augmentations, edge visits and blossoms formed. Optimal pairings often
/// tie (every perfect matching of c_ij = a_i + a_j costs the same), so
/// identity is stronger than optimality: it is what keeps schedules, and
/// every digest derived from them, unchanged.
///
/// The dense solver keeps its state per thread, so consecutive solves on
/// the test thread reuse one state across all sizes and input families;
/// a solve on a new thread starts from a fresh one.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pair_cost_engine.hpp"
#include "core/scheduler.hpp"
#include "matching/blossom.hpp"
#include "obs/metrics.hpp"
#include "phy/rate_adapter.hpp"
#include "phy/rate_table.hpp"
#include "support/blossom_reference.hpp"
#include "util/rng.hpp"

namespace sic::matching {
namespace {

/// A solve's decisions and its published work counters.
struct Outcome {
  Matching matching;
  std::vector<std::uint64_t> work;
};

constexpr const char* kWorkCounters[] = {
    "matching.blossom.stages",          "matching.blossom.augmentations",
    "matching.blossom.edge_visits",     "matching.blossom.blossoms_formed",
    "matching.blossom.dual_updates",    "matching.blossom.vertices",
    "matching.blossom.calls"};

/// Runs \p solve with a fresh registry attached and collects its counters.
template <typename Solve>
Outcome observe(Solve&& solve) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry* previous = obs::set_metrics(&reg);
  Outcome out{solve(), {}};
  obs::set_metrics(previous);
  for (const char* name : kWorkCounters) {
    out.work.push_back(reg.counter(name).value());
  }
  return out;
}

void expect_identical(const CostMatrix& costs, const std::string& what) {
  const Outcome want =
      observe([&] { return reference::min_weight_perfect_matching(costs); });
  const Outcome got =
      observe([&] { return min_weight_perfect_matching(costs); });
  ASSERT_EQ(got.matching.pairs, want.matching.pairs) << what;
  EXPECT_EQ(got.matching.total_cost, want.matching.total_cost) << what;
  EXPECT_EQ(got.work, want.work) << what;
}

/// Even sizes 2..200: every size up to 40, then a stride (the reference
/// is the slow side of each comparison).
std::vector<int> sizes() {
  std::vector<int> out;
  for (int n = 2; n <= 40; n += 2) out.push_back(n);
  for (int n = 52; n <= 200; n += 12) out.push_back(n);
  if (out.back() != 200) out.push_back(200);
  return out;
}

template <typename Cost>
CostMatrix complete(int n, Cost&& cost) {
  CostMatrix costs{n};
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) costs.set(i, j, cost(i, j));
  }
  return costs;
}

TEST(DenseBlossomIdentity, UniformRandomCosts) {
  for (const int n : sizes()) {
    Rng rng{1000 + static_cast<std::uint64_t>(n)};
    const auto costs =
        complete(n, [&](int, int) { return rng.uniform(1.0, 100.0); });
    expect_identical(costs, "uniform n=" + std::to_string(n));
  }
}

TEST(DenseBlossomIdentity, AllTieCosts) {
  // c_ij = a_i + a_j: every perfect matching has total sum(a), so the
  // returned pairing is decided by tie-breaking alone.
  for (const int n : sizes()) {
    Rng rng{2000 + static_cast<std::uint64_t>(n)};
    std::vector<double> a(static_cast<std::size_t>(n));
    for (double& x : a) x = rng.uniform(0.0, 50.0);
    const auto costs = complete(n, [&](int i, int j) {
      return a[static_cast<std::size_t>(i)] + a[static_cast<std::size_t>(j)];
    });
    expect_identical(costs, "all-tie n=" + std::to_string(n));
  }
}

TEST(DenseBlossomIdentity, SmallIntegerCosts) {
  for (const int n : sizes()) {
    Rng rng{3000 + static_cast<std::uint64_t>(n)};
    const auto costs = complete(
        n, [&](int, int) { return static_cast<double>(rng.uniform_int(0, 4)); });
    expect_identical(costs, "small-int n=" + std::to_string(n));
  }
}

TEST(DenseBlossomIdentity, TieOrderWitnesses) {
  // Two small-integer instances, found by random search, on which a
  // blossom merge that offered a leaf's row in descending neighbour order
  // returns a different pairing: equal-slack edges to one S-blossom, where
  // only the ascending order's first minimum is the reference's choice.
  const std::vector<std::vector<double>> witnesses = {
      {1, 2, 1, 1, 2, 0, 0, 1, 2,  //
       0, 0, 2, 0, 1, 2, 0, 0,     //
       0, 1, 1, 2, 2, 1, 2,        //
       2, 0, 1, 1, 1, 0,           //
       0, 1, 1, 1, 2,              //
       1, 2, 2, 0,                 //
       0, 1, 2,                    //
       1, 2,                       //
       2},
      {2, 2, 0, 1, 2,  //
       0, 2, 1, 0,     //
       2, 1, 0,        //
       0, 1,           //
       2}};
  for (const auto& upper : witnesses) {
    int n = 2;
    while (n * (n - 1) / 2 < static_cast<int>(upper.size())) ++n;
    CostMatrix costs{n};
    std::size_t k = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) costs.set(i, j, upper[k++]);
    }
    expect_identical(costs, "tie-order witness n=" + std::to_string(n));
  }
}

TEST(DenseBlossomIdentity, StateReusedAcrossShrinkingAndGrowingSizes) {
  int round = 0;
  for (const int n : {170, 2, 64, 170}) {
    Rng rng{4000 + static_cast<std::uint64_t>(round++)};
    std::vector<double> a(static_cast<std::size_t>(n));
    for (double& x : a) x = rng.uniform(0.0, 50.0);
    const auto costs = complete(n, [&](int i, int j) {
      return a[static_cast<std::size_t>(i)] + a[static_cast<std::size_t>(j)] +
             rng.uniform(0.0, 1e-3);
    });
    const std::string what = "reuse n=" + std::to_string(n);
    expect_identical(costs, what);
    // A fresh thread's state agrees with this thread's reused one.
    Matching fresh;
    std::thread([&] { fresh = min_weight_perfect_matching(costs); }).join();
    EXPECT_EQ(fresh.pairs, min_weight_perfect_matching(costs).pairs) << what;
  }
}

/// Clients with RSS drawn uniformly from [6.5, 40] dB over a 1 mW noise
/// floor: every client clears 802.11g's lowest rate (6 dB).
std::vector<channel::LinkBudget> random_clients(int n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<channel::LinkBudget> clients;
  for (int i = 0; i < n; ++i) {
    clients.push_back(channel::LinkBudget{
        Milliwatts{Decibels{rng.uniform(6.5, 40.0)}.linear()},
        Milliwatts{1.0}});
  }
  return clients;
}

/// The engine's own matching call against the reference solving the same
/// cost matrix rebuilt from scratch; an odd client count gets the Fig. 12
/// dummy vertex, joined to each client at its solo airtime.
void expect_engine_identical(const phy::RateAdapter& adapter,
                             const core::SchedulerOptions& options,
                             const std::vector<channel::LinkBudget>& clients,
                             const std::string& what) {
  core::PairCostEngine engine{adapter, options};
  engine.set_clients(clients);
  core::Schedule schedule;
  const Outcome got = observe([&] {
    schedule = engine.schedule();
    return Matching{};
  });

  const int n = static_cast<int>(clients.size());
  const int m = n + n % 2;
  CostMatrix costs{m};
  for (int i = 0; i < n; ++i) {
    const auto& ci = clients[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n; ++j) {
      costs.set(i, j,
                core::best_pair_plan(ci, clients[static_cast<std::size_t>(j)],
                                     adapter, options)
                    .airtime);
    }
    if (m != n) {
      costs.set(i, n, core::solo_airtime(ci, adapter, options.packet_bits));
    }
  }
  const Outcome want =
      observe([&] { return reference::min_weight_perfect_matching(costs); });

  std::vector<std::pair<int, int>> pairs;
  for (const auto& slot : schedule.slots) {
    pairs.emplace_back(slot.first, slot.second == -1 ? n : slot.second);
  }
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs, want.matching.pairs) << what;
  EXPECT_EQ(got.work, want.work) << what;
}

core::SchedulerOptions blossom_options() {
  core::SchedulerOptions options;
  options.pairing = core::SchedulerOptions::Pairing::kBlossom;
  return options;
}

TEST(DenseBlossomIdentity, OddPairCostEngineBuildsWithDummyVertex) {
  const phy::ShannonRateAdapter adapter{megahertz(20.0)};
  for (const int n : {3, 5, 9, 17, 33, 65, 101}) {
    const auto seed = 5000 + static_cast<std::uint64_t>(n);
    expect_engine_identical(adapter, blossom_options(),
                            random_clients(n, seed),
                            "engine n=" + std::to_string(n));
  }
}

TEST(DenseBlossomIdentity, DiscreteRatePowerControlMultirateEngineBuilds) {
  // 802.11g's eight rates make many pair plans cost exactly the same, and
  // power control and multirate add more exact ties: the regime of the
  // deployment engine's small churned cells, where only tie-breaking
  // decides the pairing.
  const phy::DiscreteRateAdapter adapter{phy::RateTable::dot11g()};
  core::SchedulerOptions options = blossom_options();
  options.enable_power_control = true;
  options.enable_multirate = true;
  for (int n = 5; n <= 25; ++n) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      expect_engine_identical(
          adapter, options,
          random_clients(n, 6000 + 100 * seed + static_cast<std::uint64_t>(n)),
          "dot11g pc+mr n=" + std::to_string(n) +
              " seed=" + std::to_string(seed));
    }
  }
}

TEST(DenseBlossomIdentity, LargestDenseDeploymentCell) {
  // n = 224: the largest cell the herded dense deployment hands the
  // matcher.
  const phy::ShannonRateAdapter adapter{megahertz(20.0)};
  expect_engine_identical(adapter, blossom_options(), random_clients(224, 7224),
                          "engine n=224");
}

}  // namespace
}  // namespace sic::matching
