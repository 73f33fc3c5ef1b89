/// The fig_sweeps workload: the paper's Monte Carlo figure sweeps through
/// the analysis:: entry points on the ParallelRunner.
///
/// One "epoch" here is one pass over three sweeps at fixed trial counts:
///   run_two_to_one_techniques    Fig. 11a, Shannon rates
///   run_upload_deployment_gains  Fig. 12 reduction, 8 clients per trial
///   evaluate_download_trace      Fig. 14, 802.11g rates over a link trace
/// each at threads = min(2, nproc). Set-up is link-trace generation plus
/// runner (thread pool) construction. A pass is a set-up plus a fixed
/// number of epochs, each epoch drawing its own seeds from the run seed;
/// every pass must reproduce the same per-epoch digest chain.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "analysis/parallel.hpp"
#include "analysis/trace_eval.hpp"
#include "bench.hpp"
#include "obs/metrics.hpp"
#include "phy/rate_adapter.hpp"
#include "phy/rate_table.hpp"
#include "topology/samplers.hpp"
#include "trace/link_trace.hpp"
#include "util/rng.hpp"

namespace sicbench {

namespace {

using namespace sic;

constexpr int kTwoToOneTrials = 100000;
constexpr int kDeployTrials = 10000;
constexpr int kDeployClients = 8;
constexpr int kDownloadPairs = 100000;
constexpr int kEpochsPerPass = 5;
/// Link-trace campaign: APs along a corridor and client locations.
constexpr int kTraceAps = 8;
constexpr int kTraceLocations = 10000;
constexpr int kSetupReps = 3;  ///< set-ups timed per pass (median kept)
constexpr double kPacketBits = 12000.0;

std::uint64_t derive(std::uint64_t seed, int epoch, int sweep) {
  return SplitMix64{seed ^ (static_cast<std::uint64_t>(epoch) * 0x9e3779b97f4a7c15ULL +
                            static_cast<std::uint64_t>(sweep) + 1)}
      .next();
}

/// Library counters whose deltas the traced run reads.
enum Count : std::size_t {
  kBlossomEdgeVisits,
  kBlossomStages,
  kBlossomAugmentations,
  kPceBuilds,
  kPcePairEvals,
  kPceCacheHits,
  kNumCounts,
};
const char* const kCounterNames[kNumCounts] = {
    "matching.blossom.edge_visits",     "matching.blossom.stages",
    "matching.blossom.augmentations",   "scheduler.pair_engine.builds",
    "scheduler.pair_engine.pair_evals", "scheduler.pair_engine.cache_hits",
};

struct Snap {
  std::uint64_t counts[kNumCounts] = {};
  double matching_s = 0.0;
  double kernel_s = 0.0;
};

Snap snap(obs::MetricsRegistry& reg) {
  Snap s;
  for (std::size_t i = 0; i < kNumCounts; ++i) {
    s.counts[i] = reg.counter(kCounterNames[i]).value();
  }
  s.matching_s = reg.histogram("matching.blossom.wall_s").sum();
  s.kernel_s = reg.histogram("scheduler.pair_engine.kernel_wall_s").sum();
  return s;
}

struct PassResult : Pass {
  std::vector<double> trace_gen_s;
  std::uint64_t samples = 0;
  double sic_gain_sum = 0.0;
  std::uint64_t sic_gain_n = 0;
};

struct LayerTotals {
  int epochs = 0;
  double epoch_s = 0.0;
  double two_to_one_s = 0.0;
  double upload_deploy_s = 0.0;
  double download_trace_s = 0.0;
  double matching_s = 0.0;
  double kernel_s = 0.0;
  std::uint64_t counts[kNumCounts] = {};
};

void check_gains(const std::vector<double>& v, double lo, double hi,
                 const char* what) {
  for (const double g : v) {
    if (!std::isfinite(g) || g < lo || g > hi) {
      throw OutputMismatch(std::string(what) + " gain " + std::to_string(g) +
                           " outside [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]");
    }
  }
}

class SweepRun {
 public:
  explicit SweepRun(std::uint64_t seed)
      : seed_(seed), g_(phy::RateTable::dot11g()) {}

  PassResult pass(int threads, LayerTotals* totals, SpanLog* log) {
    PassResult out;
    Digest digest;
    obs::MetricsRegistry reg;
    trace::LinkTrace link_trace{1, 1};
    for (int r = 0; r < kSetupReps; ++r) {
      Stopwatch setup{threads};
      const double t0 = setup.start_s();
      trace::LinkTraceConfig campaign;
      campaign.n_aps = kTraceAps;
      campaign.n_client_locations = kTraceLocations;
      link_trace = trace::generate_link_trace(campaign, derive(seed_, -1, 0));
      const double t1 = now_s();
      const analysis::ParallelRunner runner{{.threads = threads}};
      setup.stop();
      if (runner.threads() != threads) {
        throw OutputMismatch("runner resolved " +
                             std::to_string(runner.threads()) +
                             " threads, asked for " + std::to_string(threads));
      }
      out.add_setup(setup);
      out.trace_gen_s.push_back(t1 - t0);
    }
    const MetricsScope attach{totals != nullptr ? &reg : nullptr};
    for (int e = 0; e < kEpochsPerPass; ++e) {
      const Snap before = totals != nullptr ? snap(reg) : Snap{};
      Stopwatch watch{threads};
      const double t0 = watch.start_s();
      const analysis::TechniqueSamples a = analysis::run_two_to_one_techniques(
          sampler_, shannon_, kTwoToOneTrials, derive(seed_, e, 1), kPacketBits,
          threads);
      const double t1 = now_s();
      const std::vector<double> b = analysis::run_upload_deployment_gains(
          sampler_, shannon_, kDeployTrials, kDeployClients, derive(seed_, e, 2),
          kPacketBits, threads);
      const double t2 = now_s();
      analysis::DownloadTraceEvalConfig dl;
      dl.packet_bits = kPacketBits;
      dl.pair_samples = kDownloadPairs;
      dl.seed = derive(seed_, e, 3);
      dl.threads = threads;
      const analysis::DownloadTraceGains c =
          analysis::evaluate_download_trace(link_trace, g_, dl);
      watch.stop();
      const double t3 = watch.end_s();
      out.add_epoch(watch);

      // Output check: the paper's bounds on each sample (SIC never loses
      // to serial and at most halves upload time), then the digest.
      check_gains(a.sic, 1.0 - 1e-9, 2.0 + 1e-9, "two-to-one SIC");
      check_gains(b, 1.0 - 1e-9, 2.0 + 1e-9, "upload deployment");
      check_gains(c.plain, 0.0, 1e9, "download trace");
      if (c.plain.empty()) throw OutputMismatch("download sweep kept no pairs");
      for (const auto* v : {&a.sic, &a.power_control, &a.multirate, &a.packing,
                            &b, &c.plain, &c.packing}) {
        digest.add_f64s(*v);
      }
      out.chain.push_back(digest.value());
      ++out.operations;
      out.samples += static_cast<std::uint64_t>(kTwoToOneTrials + kDeployTrials +
                                                kDownloadPairs);
      for (const auto* v : {&a.sic, &b, &c.plain}) {
        for (const double g : *v) out.sic_gain_sum += g;
        out.sic_gain_n += v->size();
      }
      if (totals == nullptr) continue;
      const Snap after = snap(reg);
      const int span = log->add(Span{"epoch", t0, t3, -1, e, "timed"});
      log->add(Span{"sweep.two_to_one", t0, t1, span, e, "timed"});
      log->add(Span{"sweep.upload_deploy", t1, t2, span, e, "timed"});
      log->add(Span{"sweep.download_trace", t2, t3, span, e, "timed"});
      ++totals->epochs;
      totals->epoch_s += t3 - t0;
      totals->two_to_one_s += t1 - t0;
      totals->upload_deploy_s += t2 - t1;
      totals->download_trace_s += t3 - t2;
      totals->matching_s += after.matching_s - before.matching_s;
      totals->kernel_s += after.kernel_s - before.kernel_s;
      for (std::size_t i = 0; i < kNumCounts; ++i) {
        totals->counts[i] += after.counts[i] - before.counts[i];
      }
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  topology::SamplerConfig sampler_{};
  phy::ShannonRateAdapter shannon_{megahertz(20.0)};
  phy::DiscreteRateAdapter g_;
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

Report run_sweeps(const Options& opt) {
  // Two threads, not all four of a 4-vCPU host: a run that occupies every
  // vCPU cannot dodge other load on the host, and its times drifted by
  // ±11 % between sets of runs against ±7 % at two threads and ±4 % at one.
  const int threads = opt.threads > 0 ? opt.threads : std::min(2, nproc());
  use_last_cpus(threads);
  SweepRun run{opt.seed};
  Report rep;
  if (opt.digest_only) {
    pin_digest(opt, run.pass(threads, nullptr, nullptr).chain.back(), rep);
    return rep;
  }

  PassResult p0;  // every pass computes the same, so the first one reports
  std::vector<double> trace_gens, serial_epochs, traced_epochs;
  LayerTotals totals;
  SpanLog log;
  const Timings timings = run_cycles(
      opt, rep,
      [&]() -> Pass {
        PassResult p = run.pass(threads, nullptr, nullptr);
        if (p0.chain.empty()) p0 = p;
        trace_gens.insert(trace_gens.end(), p.trace_gen_s.begin(),
                          p.trace_gen_s.end());
        return p;
      },
      [&](const Pass& untraced) -> std::uint64_t {
        const PassResult tp = run.pass(threads, &totals, &log);
        check_chain(untraced.chain, tp.chain, "the traced pass");
        const PassResult sp = run.pass(1, nullptr, nullptr);
        check_chain(untraced.chain, sp.chain, "the 1-thread pass");
        traced_epochs.insert(traced_epochs.end(), tp.epoch_s.begin(),
                             tp.epoch_s.end());
        serial_epochs.insert(serial_epochs.end(), sp.epoch_s.begin(),
                             sp.epoch_s.end());
        return tp.operations + sp.operations;
      });

  const double sic_gain_mean =
      p0.sic_gain_sum / static_cast<double>(p0.sic_gain_n);
  rep.info.push_back(
      "workload: per epoch " + std::to_string(kTwoToOneTrials) +
      " two-to-one trials + " + std::to_string(kDeployTrials) + " x " +
      std::to_string(kDeployClients) + "-client deployment trials + " +
      std::to_string(kDownloadPairs) + " download pairs; " +
      std::to_string(kEpochsPerPass) + " epochs per pass, " +
      std::to_string(timings.passes) + " passes, threads " +
      std::to_string(threads));
  rep.info.push_back(fmt("sic_gain_mean %.12g (mean SIC gain over serial "
                         "across the sweep samples, deterministic)",
                         sic_gain_mean));
  const double epoch_mean =
      sum(timings.epoch_s) / static_cast<double>(timings.epoch_s.size());

  if (!opt.trace) {
    report_end_to_end(timings,
                      static_cast<double>(p0.samples) /
                          static_cast<double>(p0.epoch_s.size()),
                      rep);
    return rep;
  }

  // Per-layer report: times are seconds per epoch, counts per epoch.
  const double n = static_cast<double>(totals.epochs);
  const auto per = [&](Count k) {
    return static_cast<double>(totals.counts[k]) / n;
  };
  const std::uint64_t evals = totals.counts[kPcePairEvals];
  const std::uint64_t hits = totals.counts[kPceCacheHits];
  rep.set("matching.wall_s", totals.matching_s / n, "s");
  rep.set("matching.edge_visits", per(kBlossomEdgeVisits), "count");
  rep.set("matching.stages", per(kBlossomStages), "count");
  rep.set("matching.augmentations", per(kBlossomAugmentations), "count");
  rep.set("matching.max_n", kDeployClients + (kDeployClients % 2), "count");
  rep.set("pair_cost.kernel_s", totals.kernel_s / n, "s");
  rep.set("pair_cost.pair_evals", per(kPcePairEvals), "count");
  rep.set("pair_cost.builds", per(kPceBuilds), "count");
  rep.set("pair_cost.cache_hit_ratio",
          hits + evals == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + evals),
          "ratio");
  for (const char* name : {"assoc.plan_s", "des.serve_s", "engine.self_s"}) {
    rep.set(name, 0.0, "s");
  }
  for (const char* name :
       {"assoc.candidates_per_client", "des.transmissions",
        "des.retransmissions", "des.rematch_rounds", "engine.ladder_steps",
        "engine.quarantines", "engine.watchdog_fires"}) {
    rep.set(name, 0.0, "count");
  }
  for (const char* name :
       {"assoc.handoffs_per_client_epoch", "des.delivered_per_tx",
        "engine.rematched_ap_frac", "result.frames_failed_frac"}) {
    rep.set(name, 0.0, "ratio");
  }
  rep.set("sweep.two_to_one_s", totals.two_to_one_s / n, "s");
  rep.set("sweep.upload_deploy_s", totals.upload_deploy_s / n, "s");
  rep.set("sweep.download_trace_s", totals.download_trace_s / n, "s");
  // Rate at N threads over N times the rate at one thread, same epochs.
  rep.set("sweep.parallel_efficiency",
          (sum(serial_epochs) / static_cast<double>(serial_epochs.size())) /
              (static_cast<double>(threads) * epoch_mean),
          "ratio");
  rep.set("trace.generate_s", median(trace_gens), "s");
  rep.set("obs.attach_overhead_frac",
          (sum(traced_epochs) / static_cast<double>(traced_epochs.size())) /
                  epoch_mean -
              1.0,
          "ratio");
  rep.set("result.sim_completion_ms", 0.0, "ms");
  rep.set("result.sic_gain_mean", sic_gain_mean, "ratio");
  rep.info.push_back(
      fmt("epoch span %.6f s/epoch = ", totals.epoch_s / n) +
      fmt("two_to_one %.6f + ", totals.two_to_one_s / n) +
      fmt("upload_deploy %.6f + ", totals.upload_deploy_s / n) +
      fmt("download_trace %.6f", totals.download_trace_s / n));
  rep.info.push_back(fmt("parallel: %.0f threads", threads) +
                     fmt(", 1-thread epoch %.6f s", sum(serial_epochs) /
                         static_cast<double>(serial_epochs.size())) +
                     fmt(", N-thread epoch %.6f s", epoch_mean));
  if (!opt.spans_out.empty()) log.write(opt.spans_out);
  return rep;
}

}  // namespace sicbench
