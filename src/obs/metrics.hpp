#ifndef SICMAC_OBS_METRICS_HPP
#define SICMAC_OBS_METRICS_HPP

/// \file metrics.hpp
/// The metrics half of the sic::obs observability layer: a registry of
/// named counters, gauges, and log-bucketed histograms with deterministic
/// text and JSON snapshot emitters.
///
/// Contract (see DESIGN.md "Observability layer"):
///  - *Zero-cost when detached.* Nothing in the library holds a registry;
///    instrumented code accumulates plain local integers on its hot path
///    and publishes them in one batch at a natural boundary (end of a
///    matching call, end of a simulated run) only if `obs::metrics()` is
///    non-null. A detached build pays one pointer load per boundary.
///  - *Observers are pure.* A registry only ever receives values; no
///    simulation decision may read one back. tests/consistency_test.cpp
///    asserts bit-identical results with and without a registry attached.
///  - *Deterministic snapshots.* Iteration is name-ordered and numbers are
///    printed with fixed formats, so two identical runs emit byte-identical
///    JSON (tested in tests/obs_metrics_test.cpp).
///
/// Threading model: a registry itself is single-threaded, and it is
/// attached through the calling thread's obs::Context (obs/context.hpp),
/// so a worker thread never observes (or races on) the registry a caller
/// attached. obs::observed_parallel_for gives each chunk its own scratch
/// registry and folds them back with merge_from() in chunk order.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sic::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous value (e.g. samples/sec of a sweep). Each set carries an
/// optional monotone stamp (the deployment engine uses the epoch); the
/// stamp never appears in snapshots but drives merge_from's tie-breaking:
/// merged gauges keep the lexicographically largest (stamp, value) pair,
/// which is commutative and associative — so parallel chunk registries
/// fold to the same gauge no matter the merge schedule. Unstamped setters
/// (stamp 0) therefore merge by plain max value. Note the *values* a
/// gauge holds may still be wall-clock-derived (samples/sec); those stay
/// outside the thread-invariance contract like histogram sums.
class Gauge {
 public:
  void set(double value, std::uint64_t stamp = 0) {
    value_ = value;
    stamp_ = stamp;
  }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] std::uint64_t stamp() const { return stamp_; }

  /// Adopts \p other's (stamp, value) when it is lexicographically larger.
  void merge_from(const Gauge& other);

 private:
  double value_ = 0.0;
  std::uint64_t stamp_ = 0;
};

/// Log-bucketed histogram over positive doubles. Bucket k covers
/// [min_value * 2^k, min_value * 2^(k+1)); values below min_value land in
/// bucket 0, values at or above the top boundary in the last bucket. The
/// default (1e-9, 64 buckets) spans 1 ns .. ~18 s when observations are
/// seconds — wide enough for every timer in the simulator.
class Histogram {
 public:
  explicit Histogram(double min_value = 1e-9, int n_buckets = 64);

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }  ///< 0 when empty
  [[nodiscard]] double max() const { return max_; }  ///< 0 when empty

  /// Bucket index that observe(value) would increment.
  [[nodiscard]] int bucket_index(double value) const;
  /// Inclusive lower bound of bucket k (min_value * 2^k).
  [[nodiscard]] double bucket_lower_bound(int k) const;
  [[nodiscard]] int n_buckets() const {
    return static_cast<int>(buckets_.size());
  }
  [[nodiscard]] std::uint64_t bucket_count(int k) const {
    return buckets_[static_cast<std::size_t>(k)];
  }

  /// Quantile estimate: the lower bound of the bucket holding the q-th
  /// sample (0 <= q <= 1), i.e. accurate to one bucket width (a factor of
  /// 2). Returns 0 when empty. Exact min/max are tracked separately.
  [[nodiscard]] double quantile(double q) const;

  /// Folds \p other into this histogram (bucket-wise addition; min/max and
  /// count merge exactly). Both histograms must share min_value and bucket
  /// count. The floating-point `sum` is added in call order, so merge in a
  /// fixed order when byte-identical snapshots matter.
  void merge_from(const Histogram& other);

 private:
  double min_value_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name -> instrument map. Instruments are created on first use and have
/// stable addresses for the registry's lifetime (node-based storage), so
/// call sites may cache the returned references.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, double min_value = 1e-9,
                       int n_buckets = 64);

  /// Human-oriented aligned text dump, name-sorted.
  [[nodiscard]] std::string text_snapshot() const;

  /// Machine-oriented snapshot:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  /// Keys sorted, numbers in fixed formats — byte-identical across
  /// identical runs.
  [[nodiscard]] std::string json_snapshot() const;

  /// Folds \p other into this registry: counters add, histograms merge
  /// bucket-wise, gauges keep the largest (stamp, value) pair — all three
  /// are commutative+associative, so the merged registry is independent
  /// of the chunk schedule. Counter results (and gauge choice) are
  /// schedule-independent; histogram sums and wall-clock-derived gauge
  /// values still inherit whatever nondeterminism the observed values
  /// carry.
  void merge_from(const MetricsRegistry& other);

  /// Name-sorted (name, value) view of every counter — the deterministic
  /// slice of a snapshot, used by the thread-count-invariance tests.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_values() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// The calling thread's registry (obs/context.hpp). Null means
/// observability is off; instrumented code must treat null as "skip
/// publishing".
[[nodiscard]] MetricsRegistry* metrics();
/// Replaces only the metrics slot of the calling thread's context and
/// returns the previous registry. Attach is the way to install a context;
/// this setter remains for callers outside src/ that attach only a
/// registry.
MetricsRegistry* set_metrics(MetricsRegistry* registry);

}  // namespace sic::obs

#endif  // SICMAC_OBS_METRICS_HPP
