#ifndef SICMAC_ANALYSIS_PARALLEL_HPP
#define SICMAC_ANALYSIS_PARALLEL_HPP

/// \file parallel.hpp
/// The deterministic parallel Monte Carlo engine behind every sweep in
/// this library (Fig. 6 / 11 gain CDFs, the random-deployment scheduler
/// sweep, the Section 7 trace cross products).
///
/// Determinism contract (tested in tests/parallel_sweep_test.cpp):
///
///  1. *One substream per trial index.* Each trial draws from
///     `Rng::at(seed, trial)` — a counter-based SplitMix64 substream that
///     depends only on (seed, trial), never on which thread runs the trial
///     or how many trials ran before it.
///  2. *Index-addressed results.* Trial t writes results[t]; the output
///     vector is identical for any thread count or chunk schedule.
///  3. *Deterministic obs.* Trials run through obs::observed_parallel_for
///     (obs/context.hpp): every chunk of `chunk_trials` trials publishes
///     into a scratch registry of its own, on whichever thread runs it,
///     and the scratch registries fold into the caller's registry in chunk
///     order. Counters, histogram buckets and sums of values that do not
///     depend on the clock are therefore identical at any thread count.
///     Chunks never trace.
///
/// A detached caller pays nothing: the sweep is then exactly
/// ThreadPool::parallel_for.

#include <cstdint>
#include <vector>

#include "obs/context.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sic::analysis {

struct ParallelOptions {
  /// Worker count including the calling thread; 0 means all hardware
  /// threads. 1 (the default) runs inline with no pool threads.
  int threads = 1;
  /// Trials handed to a worker per claim. Large enough to amortize the
  /// claim lock, small enough to load-balance trials of uneven cost.
  int chunk_trials = 64;
};

/// Reusable thread-pool sweep engine. Construct once (threads spawn here),
/// then run any number of sweeps through map_trials()/map_indices().
class ParallelRunner {
 public:
  explicit ParallelRunner(const ParallelOptions& options = {});

  [[nodiscard]] int threads() const { return pool_.threads(); }

  /// results[t] = body(rng_t, t) with rng_t = Rng::at(seed, t). T must be
  /// default-constructible; body must be callable concurrently (pure
  /// functions of rng + inputs — the obs context is per thread, so
  /// instrumented callees are safe).
  template <typename T, typename Body>
  std::vector<T> map_trials(std::int64_t trials, std::uint64_t seed,
                            const Body& body) {
    return map_indices<T>(trials, [&](std::int64_t t) {
      Rng rng = Rng::at(seed, static_cast<std::uint64_t>(t));
      return body(rng, t);
    });
  }

  /// results[i] = body(i) — the RNG-free variant for deterministic cross
  /// products (e.g. trace-eval cells). Same scheduling and obs-merge
  /// machinery as map_trials().
  template <typename T, typename Body>
  std::vector<T> map_indices(std::int64_t n, const Body& body) {
    SIC_CHECK(n >= 0);
    std::vector<T> results(static_cast<std::size_t>(n));
    obs::observed_parallel_for(
        pool_, n, chunk_, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            results[static_cast<std::size_t>(i)] = body(i);
          }
        });
    return results;
  }

 private:
  ThreadPool pool_;
  std::int64_t chunk_;
};

}  // namespace sic::analysis

#endif  // SICMAC_ANALYSIS_PARALLEL_HPP
