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
    "matching.blossom.vertices",        "matching.blossom.calls"};

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

TEST(DenseBlossomIdentity, OddPairCostEngineBuildsWithDummyVertex) {
  // The engine's own matching call (odd client count, so the Fig. 12
  // dummy vertex closes the graph) against the reference solving the same
  // cost matrix rebuilt from scratch.
  const phy::ShannonRateAdapter adapter{megahertz(20.0)};
  core::SchedulerOptions options;
  options.pairing = core::SchedulerOptions::Pairing::kBlossom;
  core::PairCostEngine engine{adapter, options};
  for (const int n : {3, 5, 9, 17, 33, 65, 101}) {
    Rng rng{5000 + static_cast<std::uint64_t>(n)};
    std::vector<channel::LinkBudget> clients;
    for (int i = 0; i < n; ++i) {
      clients.push_back(channel::LinkBudget{
          Milliwatts{Decibels{rng.uniform(6.5, 40.0)}.linear()},
          Milliwatts{1.0}});
    }
    engine.set_clients(clients);
    core::Schedule schedule;
    const Outcome got = observe([&] {
      schedule = engine.schedule();
      return Matching{};
    });

    const int m = n + 1;
    CostMatrix costs{m};
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        costs.set(i, j,
                  core::best_pair_plan(clients[static_cast<std::size_t>(i)],
                                       clients[static_cast<std::size_t>(j)],
                                       adapter, options)
                      .airtime);
      }
      costs.set(i, n,
                core::solo_airtime(clients[static_cast<std::size_t>(i)],
                                   adapter, options.packet_bits));
    }
    const Outcome want =
        observe([&] { return reference::min_weight_perfect_matching(costs); });

    std::vector<std::pair<int, int>> pairs;
    for (const auto& slot : schedule.slots) {
      pairs.emplace_back(slot.first, slot.second == -1 ? n : slot.second);
    }
    std::sort(pairs.begin(), pairs.end());
    const std::string what = "engine n=" + std::to_string(n);
    EXPECT_EQ(pairs, want.matching.pairs) << what;
    EXPECT_EQ(got.work, want.work) << what;
  }
}

}  // namespace
}  // namespace sic::matching
