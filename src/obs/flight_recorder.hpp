#ifndef SICMAC_OBS_FLIGHT_RECORDER_HPP
#define SICMAC_OBS_FLIGHT_RECORDER_HPP

/// \file flight_recorder.hpp
/// Deployment flight recorder: a bounded ring of structured per-(ap,epoch)
/// events plus a latching trip switch and a one-shot post-mortem emitter.
///
/// The deployment engine records every discrete incident it acts on —
/// handoffs, quarantines and readmissions, ladder moves, watchdog
/// warnings/fires, fault-schedule activations — as it happens. Nothing
/// reads those events during the run (observer purity, same contract as
/// MetricsRegistry); they exist so that when something *does* go wrong
/// (watchdog trip, invariant violation, or an operator asking via
/// `--postmortem-out`), `postmortem_json()` can replay the final N epochs
/// in order alongside the time-series, the run configuration, and the
/// build id — one self-describing JSON document instead of a shrug.
///
/// Ring sizing: the default (4096 events) holds the full event stream of
/// every bench/test-scale run; at 100k-client scale an epoch under churn
/// emits O(hundreds) of events, so the ring still retains tens of epochs —
/// and the post-mortem window (default 16 epochs) is what matters for
/// forensics. Overflow evicts the oldest events and counts them in
/// `events_dropped`, which the post-mortem reports honestly.
///
/// Determinism: events are recorded on the engine's sequential phases only
/// (never from pool workers), so for a fixed seed the ring contents — and
/// therefore the post-mortem bytes — are identical at any thread count.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sic::obs {

class TimeSeriesRegistry;

/// One structured incident. `ap`/`client` use -1 for "not applicable"
/// (e.g. a storm activation has no AP; a watchdog fire has no client).
/// `kind` is a short dotted identifier (e.g. "chaos.outage",
/// "quarantine.enter", "watchdog.fire"); `detail` is free-form
/// human-oriented context ("down_for=3", "from_ap=1 to_ap=2").
struct FlightEvent {
  std::uint64_t epoch = 0;
  int ap = -1;
  int client = -1;
  std::string kind;
  std::string detail;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 4096);

  /// Appends an event; evicts the oldest when the ring is full.
  void record(FlightEvent event);

  /// Records a run-configuration entry shown verbatim in the post-mortem
  /// "config" object (numeric-looking values stay numbers, everything
  /// else is quoted). Last write per key wins; keys emit name-ordered.
  void set_config(std::string_view key, std::string_view value);

  /// Latches the trip state. Returns true on the first call only — the
  /// caller that wins the latch is the one that should dump the
  /// post-mortem, so a cascade (watchdog fire followed by an invariant
  /// violation in the same run) produces exactly one document.
  bool trip(std::string_view reason, std::uint64_t epoch);

  [[nodiscard]] bool tripped() const { return tripped_; }
  [[nodiscard]] const std::string& trip_reason() const { return reason_; }
  [[nodiscard]] std::uint64_t trip_epoch() const { return trip_epoch_; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t events_dropped() const { return dropped_; }
  /// i-th retained event, oldest first (0 <= i < size()).
  [[nodiscard]] const FlightEvent& event(std::size_t i) const;

  /// The self-describing post-mortem document:
  ///   {"postmortem":{"version":1,"build":...,"reason":...,
  ///    "trip_epoch":...,"window_epochs":N,"config":{...},
  ///    "events_dropped":...,"events":[...],"timeseries":{...}}}
  /// Events are windowed to the last \p window_epochs epochs (anchored at
  /// the trip epoch when tripped, else at the newest recorded event) and
  /// replayed oldest-first in recording order. `reason` is "requested"
  /// and `trip_epoch` the anchor when not tripped. \p series may be null
  /// (the "timeseries" object is then empty); when present its full
  /// retained rings are included — they are bounded already.
  [[nodiscard]] std::string postmortem_json(
      const TimeSeriesRegistry* series, std::uint64_t window_epochs = 16) const;

 private:
  std::vector<FlightEvent> ring_;
  std::size_t head_ = 0;  ///< index of the oldest retained event
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  bool tripped_ = false;
  std::string reason_;
  std::uint64_t trip_epoch_ = 0;
  std::map<std::string, std::string, std::less<>> config_;
};

/// The calling thread's recorder (obs/context.hpp); null means flight
/// recording is off and instrumented code must skip it.
[[nodiscard]] FlightRecorder* flight();

}  // namespace sic::obs

#endif  // SICMAC_OBS_FLIGHT_RECORDER_HPP
