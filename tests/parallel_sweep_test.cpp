#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "analysis/parallel.hpp"
#include "analysis/trace_eval.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "trace/generator.hpp"

/// \file parallel_sweep_test.cpp
/// The determinism contract of the parallel sweep engine: every ported
/// sweep returns bit-identical samples — and publishes identical metric
/// counters — at --threads 1, 4, and 7 (7 oversubscribes the pool relative
/// to the chunk count, exercising uneven schedules).

namespace sic::analysis {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};
constexpr int kThreadCounts[] = {1, 4, 7};

/// Runs \p sweep under a freshly attached registry and returns its samples
/// plus the name-sorted counter values it published.
template <typename Sweep>
auto with_counters(const Sweep& sweep) {
  obs::MetricsRegistry reg;
  auto samples = [&] {
    const obs::Attach attach{{.metrics = &reg}};
    return sweep();
  }();
  return std::make_pair(std::move(samples), reg.counter_values());
}

void expect_identical(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "sample " << i;
  }
}

TEST(ParallelSweep, RunnerMapTrialsMatchesDirectSubstreams) {
  // The engine's output is definitionally results[t] = body(Rng::at(seed,
  // t), t), independent of pool size.
  ParallelRunner parallel{{.threads = 4, .chunk_trials = 8}};
  const auto got = parallel.map_trials<double>(
      100, 77, [](Rng& rng, std::int64_t) { return rng.uniform(0.0, 1.0); });
  for (std::int64_t t = 0; t < 100; ++t) {
    Rng rng = Rng::at(77, static_cast<std::uint64_t>(t));
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(t)],
                     rng.uniform(0.0, 1.0));
  }
}

TEST(ParallelSweep, TwoLinkGainsThreadCountInvariant) {
  topology::SamplerConfig config;
  const auto [base, base_counters] = with_counters(
      [&] { return run_two_link_gains(config, kShannon, 400, 5, 12000.0, 1); });
  ASSERT_EQ(base.size(), 400u);
  for (const int threads : kThreadCounts) {
    const auto [gains, counters] = with_counters([&] {
      return run_two_link_gains(config, kShannon, 400, 5, 12000.0, threads);
    });
    expect_identical(base, gains);
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, TwoToOneTechniquesThreadCountInvariant) {
  topology::SamplerConfig config;
  const auto [base, base_counters] = with_counters([&] {
    return run_two_to_one_techniques(config, kShannon, 300, 11, 12000.0, 1);
  });
  for (const int threads : kThreadCounts) {
    const auto [samples, counters] = with_counters([&] {
      return run_two_to_one_techniques(config, kShannon, 300, 11, 12000.0,
                                       threads);
    });
    expect_identical(base.sic, samples.sic);
    expect_identical(base.power_control, samples.power_control);
    expect_identical(base.multirate, samples.multirate);
    expect_identical(base.packing, samples.packing);
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, TwoLinkTechniquesThreadCountInvariant) {
  topology::SamplerConfig config;
  const auto [base, base_counters] = with_counters([&] {
    return run_two_link_techniques(config, kShannon, 200, 13, 12000.0, 1);
  });
  for (const int threads : kThreadCounts) {
    const auto [samples, counters] = with_counters([&] {
      return run_two_link_techniques(config, kShannon, 200, 13, 12000.0,
                                     threads);
    });
    expect_identical(base.sic, samples.sic);
    expect_identical(base.power_control, samples.power_control);
    expect_identical(base.packing, samples.packing);
    EXPECT_TRUE(samples.multirate.empty());
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, UploadDeploymentGainsThreadCountInvariant) {
  // This sweep drives schedule_upload -> blossom matching, whose counters
  // are published from worker threads — the merge path under test.
  topology::SamplerConfig config;
  const auto [base, base_counters] = with_counters([&] {
    return run_upload_deployment_gains(config, kShannon, 60, 8, 17, 12000.0,
                                       1);
  });
  ASSERT_EQ(base.size(), 60u);
  bool saw_matching_counter = false;
  bool saw_engine_counter = false;
  for (const auto& [name, value] : base_counters) {
    if (name.find("matching.") == 0 && value > 0) saw_matching_counter = true;
    if (name.find("scheduler.pair_engine.") == 0 && value > 0) {
      saw_engine_counter = true;
    }
  }
  EXPECT_TRUE(saw_matching_counter)
      << "expected worker-side matching counters to reach the caller";
  EXPECT_TRUE(saw_engine_counter)
      << "expected pair-cost engine counters to reach the caller";
  for (const int threads : kThreadCounts) {
    const auto [gains, counters] = with_counters([&] {
      return run_upload_deployment_gains(config, kShannon, 60, 8, 17, 12000.0,
                                         threads);
    });
    expect_identical(base, gains);
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, DownloadTraceThreadCountInvariant) {
  trace::LinkTraceConfig config;
  const auto link_trace = trace::generate_link_trace(config, 23);
  DownloadTraceEvalConfig eval;
  eval.pair_samples = 300;
  const auto [base, base_counters] = with_counters([&] {
    eval.threads = 1;
    return evaluate_download_trace(link_trace, kShannon, eval);
  });
  for (const int threads : kThreadCounts) {
    const auto [gains, counters] = with_counters([&] {
      eval.threads = threads;
      return evaluate_download_trace(link_trace, kShannon, eval);
    });
    expect_identical(base.plain, gains.plain);
    expect_identical(base.packing, gains.packing);
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, UploadTraceThreadCountInvariant) {
  trace::BuildingConfig config;
  config.duration_s = 2 * 3600;
  config.diurnal = false;
  const auto rssi_trace = trace::generate_building_trace(config, 31);
  UploadTraceEvalConfig eval;
  const auto [base, base_counters] = with_counters([&] {
    eval.threads = 1;
    return evaluate_upload_trace(rssi_trace, kShannon, eval);
  });
  ASSERT_GT(base.cells_evaluated, 0);
  for (const int threads : kThreadCounts) {
    const auto [gains, counters] = with_counters([&] {
      eval.threads = threads;
      return evaluate_upload_trace(rssi_trace, kShannon, eval);
    });
    EXPECT_EQ(base.cells_evaluated, gains.cells_evaluated);
    expect_identical(base.pairing, gains.pairing);
    expect_identical(base.power_control, gains.power_control);
    expect_identical(base.multirate, gains.multirate);
    expect_identical(base.greedy_pairing, gains.greedy_pairing);
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, DetachedRunMatchesAttachedRun) {
  // Observers stay pure on the parallel path too: samples are bit-identical
  // with and without a registry attached.
  topology::SamplerConfig config;
  const auto detached =
      run_two_link_gains(config, kShannon, 200, 5, 12000.0, 4);
  const auto [attached, counters] = with_counters(
      [&] { return run_two_link_gains(config, kShannon, 200, 5, 12000.0, 4); });
  expect_identical(detached, attached);
  EXPECT_FALSE(counters.empty());
}

TEST(ParallelSweep, ZeroMeansAllHardwareThreads) {
  topology::SamplerConfig config;
  const auto base = run_two_link_gains(config, kShannon, 100, 5, 12000.0, 1);
  const auto all = run_two_link_gains(config, kShannon, 100, 5, 12000.0, 0);
  expect_identical(base, all);
}

}  // namespace
}  // namespace sic::analysis
