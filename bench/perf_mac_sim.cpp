/// Performance of the discrete-event MAC simulator, and the headline
/// end-to-end ablation: backlogged upload under plain DCF (with and
/// without an SIC-capable AP) versus the Section 6 scheduled upload, on
/// the same medium model.
///
/// JSON summary: besides wall_ms/throughput it carries the scheduled
/// executor's rate and heap allocations per warm run on the
/// deployment-shaped n = 10 workload of BM_ScheduledUploadChurn. The
/// allocation count comes from the replacement operator new below, which
/// exists in this binary only; it is a deterministic count for a given
/// standard library, so the gate pins it exactly.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "core/scheduler.hpp"
#include "mac/upload_sim.hpp"
#include "topology/samplers.hpp"
#include "util/rng.hpp"

// Every replacement form below allocates with malloc and frees with free;
// once they are inlined into each other GCC cannot see that and reports
// -Wmismatched-new-delete.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace sic;

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};

std::vector<channel::LinkBudget> ridge_clients(int pairs) {
  // Clients placed pairwise on the Fig. 4 ridge so SIC has real work.
  std::vector<channel::LinkBudget> out;
  for (int i = 0; i < pairs; ++i) {
    const double weak_db = 11.0 + i;
    out.push_back(channel::LinkBudget{
        Milliwatts{Decibels{2 * weak_db}.linear()}, Milliwatts{1.0}});
    out.push_back(channel::LinkBudget{Milliwatts{Decibels{weak_db}.linear()},
                                      Milliwatts{1.0}});
  }
  return out;
}

void BM_DcfUpload(benchmark::State& state) {
  const auto clients = ridge_clients(static_cast<int>(state.range(0)));
  mac::UploadSimConfig config;
  config.frames_per_client = 4;
  double completion = 0.0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    config.seed++;
    const auto result = mac::run_dcf_upload(clients, kShannon, config);
    completion = result.completion_s;
    delivered = result.delivered;
    benchmark::DoNotOptimize(result.delivered);
  }
  state.counters["completion_s"] = completion;
  state.counters["delivered"] = static_cast<double>(delivered);
}
BENCHMARK(BM_DcfUpload)->Arg(2)->Arg(4)->Arg(8);

void BM_ScheduledUpload(benchmark::State& state) {
  const auto clients = ridge_clients(static_cast<int>(state.range(0)));
  core::SchedulerOptions options;
  const auto schedule = core::schedule_upload(clients, kShannon, options);
  mac::UploadSimConfig config;
  double completion = 0.0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const auto result =
        mac::run_scheduled_upload(clients, kShannon, schedule, config);
    completion = result.completion_s;
    delivered = result.delivered;
    benchmark::DoNotOptimize(result.delivered);
  }
  state.counters["completion_s"] = completion;
  state.counters["delivered"] = static_cast<double>(delivered);
}
BENCHMARK(BM_ScheduledUpload)->Arg(2)->Arg(4)->Arg(8);

/// One AP-epoch of the deploy_churn benchmark workload: 10 clients, a
/// power-control + multirate schedule planned on stale estimates, the
/// truth off by per-client drift (the engine's initial_drift conduit), 1 %
/// cancellation failures, 1 % ACK loss, closed loop.
struct ChurnUpload {
  std::vector<channel::LinkBudget> clients;
  core::Schedule schedule;
  mac::UploadSimConfig config;
};

ChurnUpload churn_upload() {
  ChurnUpload w;
  Rng rng{2025};
  for (int i = 0; i < 10; ++i) {
    w.clients.push_back(channel::LinkBudget{
        Milliwatts{Decibels{rng.uniform(5.0, 35.0)}.linear()},
        Milliwatts{1.0}});
    w.config.faults.initial_drift.push_back(Decibels{rng.uniform(-2.0, 2.0)});
  }
  core::SchedulerOptions options;
  options.enable_power_control = true;
  options.enable_multirate = true;
  w.schedule = core::schedule_upload(w.clients, kShannon, options);
  w.config.faults.cancellation_failure_prob = 0.01;
  w.config.faults.ack_loss_prob = 0.01;
  w.config.recovery.rematch_options = options;
  w.config.horizon = mac::from_seconds(0.05);
  return w;
}

void BM_ScheduledUploadChurn(benchmark::State& state) {
  ChurnUpload w = churn_upload();
  std::uint64_t retransmissions = 0;
  std::uint64_t rematch_rounds = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    ++w.config.seed;
    const auto result = mac::run_scheduled_upload(w.clients, kShannon,
                                                  w.schedule, w.config);
    retransmissions += result.failures.retransmissions;
    rematch_rounds += result.failures.rematch_rounds;
    ++runs;
    benchmark::DoNotOptimize(result.delivered);
  }
  state.counters["retransmissions_per_run"] =
      static_cast<double>(retransmissions) / static_cast<double>(runs);
  state.counters["rematch_rounds_per_run"] =
      static_cast<double>(rematch_rounds) / static_cast<double>(runs);
}
BENCHMARK(BM_ScheduledUploadChurn);

void BM_SicVsPlainApAblation(benchmark::State& state) {
  // The paper's thesis as an executable ablation: with stations at their
  // ideal rates (margin 100%), collisions are never SIC-decodable and the
  // SIC-capable AP salvages nothing; as the rate margin grows (practical
  // adapters leave slack), SIC starts recovering collided frames. The arg
  // is the rate margin in percent.
  const auto clients = ridge_clients(4);
  mac::UploadSimConfig with_sic;
  with_sic.frames_per_client = 4;
  with_sic.rate_margin = static_cast<double>(state.range(0)) / 100.0;
  double sic_recovered = 0.0;
  double captures = 0.0;
  std::uint64_t trials = 0;
  for (auto _ : state) {
    with_sic.seed++;
    const auto a = mac::run_dcf_upload(clients, kShannon, with_sic);
    sic_recovered += static_cast<double>(a.medium.sic_decodes);
    captures += static_cast<double>(a.medium.capture_decodes);
    ++trials;
    benchmark::DoNotOptimize(a.delivered);
  }
  state.counters["sic_decodes_per_run"] =
      sic_recovered / static_cast<double>(trials);
  state.counters["captures_per_run"] =
      captures / static_cast<double>(trials);
}
BENCHMARK(BM_SicVsPlainApAblation)->Arg(100)->Arg(80)->Arg(60)->Arg(40);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    mac::EventQueue queue;
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      queue.schedule_at(i, [&fired] { ++fired; });
    }
    queue.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

/// Runs/second of the churn-shaped executor workload: one warm-up run,
/// then at least 0.25 s of wall clock.
double scheduled_upload_per_sec() {
  using clock = std::chrono::steady_clock;
  ChurnUpload w = churn_upload();
  (void)mac::run_scheduled_upload(w.clients, kShannon, w.schedule, w.config);
  const auto start = clock::now();
  int runs = 0;
  double elapsed = 0.0;
  do {
    for (int k = 0; k < 100; ++k) {
      ++w.config.seed;
      benchmark::DoNotOptimize(
          mac::run_scheduled_upload(w.clients, kShannon, w.schedule, w.config)
              .delivered);
    }
    runs += 100;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < 0.25);
  return static_cast<double>(runs) / elapsed;
}

/// Heap allocations per warm run of the same workload, over a fixed seed
/// sequence — the result's own vectors included.
double scheduled_upload_allocs_per_run() {
  constexpr int kRuns = 1000;
  ChurnUpload w = churn_upload();
  (void)mac::run_scheduled_upload(w.clients, kShannon, w.schedule, w.config);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int k = 0; k < kRuns; ++k) {
    w.config.seed = 1 + static_cast<std::uint64_t>(k);
    benchmark::DoNotOptimize(
        mac::run_scheduled_upload(w.clients, kShannon, w.schedule, w.config)
            .delivered);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / kRuns;
}

}  // namespace

int main(int argc, char** argv) {
  // Accept (and drop) the repo-wide `--threads N` flag like the other perf
  // binaries (see perf_util.hpp); these benches are single-threaded.
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
  const double per_sec = scheduled_upload_per_sec();
  const double allocs = scheduled_upload_allocs_per_run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const double throughput =
      wall_ms > 0.0 ? 1e3 * static_cast<double>(n_run) / wall_ms : 0.0;
  std::printf(
      "{\"bench\":\"perf_mac_sim\",\"wall_ms\":%.1f,\"throughput\":%.3f,"
      "\"scheduled_upload_per_sec_n10\":%.1f,"
      "\"scheduled_upload_allocs_n10\":%.3f}\n",
      wall_ms, throughput, per_sec, allocs);
  benchmark::Shutdown();
  return 0;
}
