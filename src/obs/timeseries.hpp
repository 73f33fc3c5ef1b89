#ifndef SICMAC_OBS_TIMESERIES_HPP
#define SICMAC_OBS_TIMESERIES_HPP

/// \file timeseries.hpp
/// Epoch-indexed time-series half of sic::obs v2: a registry of named
/// fixed-capacity ring buffers recording (epoch, value) samples, built for
/// the deployment engine's per-epoch telemetry.
///
/// Contract (same as MetricsRegistry, see DESIGN.md "Observability"):
///  - *Zero-cost when detached.* The registry is a slot of the thread's
///    obs::Context, null by default; instrumented code records only when
///    `obs::timeseries()` is non-null. Recording is O(1) into a
///    pre-allocated ring — no allocation after the first `series()` call
///    for a name.
///  - *Observers are pure.* A series only receives values; nothing in the
///    simulation may read one back (sic_lint R4 covers
///    `series(...).record(...)` in value-producing positions).
///  - *Deterministic exports.* Series iterate name-ordered, epochs
///    ascending, numbers through the shared round-trip formatter — two
///    identical runs produce byte-identical CSV/JSONL.
///
/// Ring sizing: a series holds the *last* `capacity` samples; recording
/// past capacity evicts the oldest and increments `dropped()`. The default
/// (1024) covers every epoch of any run the current benches and tests
/// perform while bounding a million-epoch soak at a few KB per series —
/// post-mortems want the recent window anyway (see flight_recorder.hpp).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sic::obs {

/// One named series: a fixed-capacity ring of (epoch, value) points.
/// Epochs are recorded as given; callers are expected to record with
/// nondecreasing epochs (the deployment engine does), and exports emit in
/// insertion order.
class TimeSeries {
 public:
  struct Point {
    std::uint64_t epoch = 0;
    double value = 0.0;
  };

  explicit TimeSeries(std::size_t capacity);

  /// Appends a sample; evicts the oldest when full.
  void record(std::uint64_t epoch, double value);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Samples evicted because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// i-th retained point, oldest first (0 <= i < size()).
  [[nodiscard]] Point point(std::size_t i) const;

 private:
  std::vector<Point> ring_;
  std::size_t head_ = 0;  ///< index of the oldest retained point
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Name -> series map. Series are created on first use with the registry's
/// default capacity (or an explicit per-series one) and have stable
/// addresses for the registry's lifetime, so call sites may cache the
/// returned references.
class TimeSeriesRegistry {
 public:
  explicit TimeSeriesRegistry(std::size_t default_capacity = 1024);

  /// Returns the series for \p name, creating it with the default
  /// capacity on first use.
  TimeSeries& series(std::string_view name);
  /// Same, but a first use creates the series with \p capacity. An
  /// existing series keeps its original capacity.
  TimeSeries& series(std::string_view name, std::size_t capacity);

  [[nodiscard]] std::size_t n_series() const { return series_.size(); }

  /// Wide CSV: header `epoch,<name>,<name>,...` (names sorted), one row
  /// per distinct epoch across all series (ascending), blank cells where a
  /// series has no sample at that epoch. A series with several samples at
  /// one epoch contributes its last.
  [[nodiscard]] std::string csv() const;

  /// One JSON object per line, name-ordered:
  ///   {"series":"<name>","dropped":N,"points":[[epoch,value],...]}
  [[nodiscard]] std::string jsonl() const;

  /// JSON object mapping each name to its retained points — the
  /// "timeseries" section of a flight-recorder post-mortem:
  ///   {"<name>":[[epoch,value],...],...}
  [[nodiscard]] std::string json_object() const;

 private:
  std::size_t default_capacity_;
  std::map<std::string, TimeSeries, std::less<>> series_;
};

/// The calling thread's registry (obs/context.hpp); null means
/// time-series recording is off and instrumented code must skip it.
[[nodiscard]] TimeSeriesRegistry* timeseries();

}  // namespace sic::obs

#endif  // SICMAC_OBS_TIMESERIES_HPP
