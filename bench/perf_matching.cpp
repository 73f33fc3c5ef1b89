/// Performance of the matching engines: the O(n³) blossom matcher (the
/// paper quotes O(n²m) for Edmonds; our dense implementation is O(n³)),
/// the greedy heuristic, the approximate tier (greedy + 2-opt postpass),
/// and the exponential oracle. Also reports the exact-vs-heuristic quality
/// gaps as counters (schedule cost ratios).
///
/// Unlike the other perf binaries this one emits an *extended* one-line
/// JSON summary: besides wall_ms/throughput it carries the approximate
/// tier's headline numbers — samples/sec for blossom and approx at n = 256,
/// their ratio (the speedup the scaling tier buys), blossom samples/sec on
/// tie-heavy costs at n = 128 (the blossom-forming regime), and the
/// deterministic scheduler-level airtime gap at n <= 64 — so the bench gate
/// can pin the speedup and the quality floor from day one.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "channel/link.hpp"
#include "core/scheduler.hpp"
#include "matching/approx.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/oracle.hpp"
#include "phy/rate_adapter.hpp"
#include "util/rng.hpp"

namespace {

using namespace sic;
using namespace sic::matching;

CostMatrix random_costs(int n, std::uint64_t seed) {
  Rng rng{seed};
  CostMatrix costs{n};
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) costs.set(i, j, rng.uniform(1.0, 100.0));
  }
  return costs;
}

/// Tie-heavy costs c_ij = a_i + a_j + noise: with zero noise every perfect
/// matching costs the same, and the small noise keeps near-ties everywhere.
/// This is the regime of the deployment engine's cells (most captured
/// matcher inputs there have several optimal pairings), where the solver
/// forms many blossoms; uniform random costs barely form any.
CostMatrix tie_heavy_costs(int n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> a(static_cast<std::size_t>(n));
  for (double& x : a) x = rng.uniform(1.0, 50.0);
  CostMatrix costs{n};
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      costs.set(i, j,
                a[static_cast<std::size_t>(i)] + a[static_cast<std::size_t>(j)] +
                    rng.uniform(0.0, 1e-3));
    }
  }
  return costs;
}

void BM_BlossomPerfectMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto costs = random_costs(n, 42);
  for (auto _ : state) {
    const auto m = min_weight_perfect_matching(costs);
    benchmark::DoNotOptimize(m.total_cost);
  }
  state.SetComplexityN(n);
}
// To n = 256, like the approximate tier below: the pair gives the kAuto
// crossover (--auto-tier-n0) over the whole range.
BENCHMARK(BM_BlossomPerfectMatching)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Complexity(benchmark::oNCubed);

void BM_BlossomTieHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto costs = tie_heavy_costs(n, 42);
  for (auto _ : state) {
    const auto m = min_weight_perfect_matching(costs);
    benchmark::DoNotOptimize(m.total_cost);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BlossomTieHeavy)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity(benchmark::oNCubed);

void BM_GreedyPerfectMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto costs = random_costs(n, 42);
  for (auto _ : state) {
    const auto m = greedy_min_weight_perfect_matching(costs);
    benchmark::DoNotOptimize(m.total_cost);
  }
}
BENCHMARK(BM_GreedyPerfectMatching)->RangeMultiplier(2)->Range(8, 128);

void BM_ApproxPerfectMatching(benchmark::State& state) {
  // The scaling tier: greedy seed + deterministic 2-opt postpass, dense
  // input (sparsification is exercised at the scheduler level where serial
  // baselines exist). Extends past blossom's bench range on purpose.
  const int n = static_cast<int>(state.range(0));
  const auto costs = random_costs(n, 42);
  for (auto _ : state) {
    const auto m = approx_min_weight_perfect_matching(costs);
    benchmark::DoNotOptimize(m.total_cost);
  }
}
BENCHMARK(BM_ApproxPerfectMatching)->RangeMultiplier(2)->Range(8, 256);

void BM_OraclePerfectMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto costs = random_costs(n, 42);
  for (auto _ : state) {
    const auto m = min_weight_perfect_matching_oracle(costs);
    benchmark::DoNotOptimize(m.total_cost);
  }
}
BENCHMARK(BM_OraclePerfectMatching)->DenseRange(8, 16, 4);

void BM_GreedyQualityGap(benchmark::State& state) {
  // Not a speed benchmark: reports how much schedule cost greedy leaves on
  // the table vs the exact matcher, averaged over instances.
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  double ratio_sum = 0.0;
  int count = 0;
  for (auto _ : state) {
    const auto costs = random_costs(n, seed++);
    const double exact = min_weight_perfect_matching(costs).total_cost;
    const double greedy = greedy_min_weight_perfect_matching(costs).total_cost;
    ratio_sum += greedy / exact;
    ++count;
    benchmark::DoNotOptimize(greedy);
  }
  state.counters["greedy/optimal"] = ratio_sum / count;
}
BENCHMARK(BM_GreedyQualityGap)->Arg(16)->Arg(64);

void BM_ApproxQualityGap(benchmark::State& state) {
  // Companion counter: the 2-opt postpass claws back most of greedy's gap.
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  double ratio_sum = 0.0;
  int count = 0;
  for (auto _ : state) {
    const auto costs = random_costs(n, seed++);
    const double exact = min_weight_perfect_matching(costs).total_cost;
    const double approx = approx_min_weight_perfect_matching(costs).total_cost;
    ratio_sum += approx / exact;
    ++count;
    benchmark::DoNotOptimize(approx);
  }
  state.counters["approx/optimal"] = ratio_sum / count;
}
BENCHMARK(BM_ApproxQualityGap)->Arg(16)->Arg(64);

// ---------------------------------------------------------------------------
// Summary measurements behind the one-line JSON (bench-gate pins).
// ---------------------------------------------------------------------------

/// Iterations/second of \p run: one warm-up call, then at least 3 timed
/// iterations and at least 0.25 s of wall clock.
template <typename F>
double samples_per_sec(F&& run) {
  using clock = std::chrono::steady_clock;
  run();
  const auto start = clock::now();
  int iters = 0;
  double elapsed = 0.0;
  do {
    run();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (iters < 3 || elapsed < 0.25);
  return static_cast<double>(iters) / elapsed;
}

/// Deterministic scheduler-level quality measure: worst relative
/// total-airtime excess of the approximate tier over exact blossom across
/// seeded random WLAN uploads at n <= 64. Pure computation over fixed
/// seeds — identical on every machine — so the gate can pin it tightly.
double worst_airtime_gap_frac() {
  const phy::ShannonRateAdapter adapter{megahertz(20.0)};
  double worst = 0.0;
  for (const int n : {16, 32, 64}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      Rng rng{seed};
      std::vector<channel::LinkBudget> clients;
      clients.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        clients.push_back(channel::LinkBudget{
            Milliwatts{Decibels{rng.uniform(0.0, 30.0)}.linear()},
            Milliwatts{1.0}});
      }
      core::SchedulerOptions exact_opts;
      exact_opts.pairing = core::SchedulerOptions::Pairing::kBlossom;
      core::SchedulerOptions approx_opts;
      approx_opts.pairing = core::SchedulerOptions::Pairing::kApprox;
      const double exact =
          core::schedule_upload(clients, adapter, exact_opts).total_airtime;
      const double approx =
          core::schedule_upload(clients, adapter, approx_opts).total_airtime;
      const double gap = (approx - exact) / exact;
      if (gap > worst) worst = gap;
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  // Accept (and drop) the repo-wide `--threads N` flag like the other perf
  // binaries (see perf_util.hpp); the matching benches are single-threaded.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 < argc && argv[i + 1][0] != '-') ++i;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n_run = benchmark::RunSpecifiedBenchmarks();

  // Headline A/B at n = 256: the backlog size where exact matching stops
  // being affordable and the auto tier has long since crossed over.
  const auto costs = random_costs(256, 42);
  const double blossom_sps = samples_per_sec([&costs] {
    benchmark::DoNotOptimize(min_weight_perfect_matching(costs).total_cost);
  });
  const double approx_sps = samples_per_sec([&costs] {
    benchmark::DoNotOptimize(
        approx_min_weight_perfect_matching(costs).total_cost);
  });
  // The exact tier where it forms many blossoms: uniform costs barely
  // exercise the blossom merge or the dual update.
  const auto tie_costs = tie_heavy_costs(128, 42);
  const double blossom_tie_sps = samples_per_sec([&tie_costs] {
    benchmark::DoNotOptimize(min_weight_perfect_matching(tie_costs).total_cost);
  });
  const double gap = worst_airtime_gap_frac();

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const double throughput =
      wall_ms > 0.0 ? 1e3 * static_cast<double>(n_run) / wall_ms : 0.0;
  std::printf(
      "{\"bench\":\"perf_matching\",\"wall_ms\":%.1f,\"throughput\":%.3f,"
      "\"blossom_samples_per_sec_n256\":%.2f,"
      "\"approx_samples_per_sec_n256\":%.2f,"
      "\"approx_speedup_n256\":%.2f,"
      "\"blossom_tie_samples_per_sec_n128\":%.2f,"
      "\"airtime_gap_frac_n64\":%.5f,"
      "\"airtime_match_frac_n64\":%.5f}\n",
      wall_ms, throughput, blossom_sps, approx_sps,
      blossom_sps > 0.0 ? approx_sps / blossom_sps : 0.0, blossom_tie_sps, gap,
      1.0 - gap);
  benchmark::Shutdown();
  return 0;
}
