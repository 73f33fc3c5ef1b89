#include "obs/flight_recorder.hpp"

#include <sstream>
#include <utility>

#include "obs/build_info.hpp"
#include "obs/json_util.hpp"
#include "obs/timeseries.hpp"
#include "util/check.hpp"

namespace sic::obs {

namespace {

thread_local FlightRecorder* g_flight = nullptr;

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) {
  SIC_CHECK(capacity >= 1);
  ring_.resize(capacity);
}

void FlightRecorder::record(FlightEvent event) {
  if (size_ < ring_.size()) {
    ring_[(head_ + size_) % ring_.size()] = std::move(event);
    ++size_;
  } else {
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  }
}

void FlightRecorder::set_config(std::string_view key, std::string_view value) {
  const auto it = config_.find(key);
  if (it != config_.end()) {
    it->second = std::string{value};
  } else {
    config_.emplace(std::string{key}, std::string{value});
  }
}

bool FlightRecorder::trip(std::string_view reason, std::uint64_t epoch) {
  if (tripped_) return false;
  tripped_ = true;
  reason_ = std::string{reason};
  trip_epoch_ = epoch;
  return true;
}

const FlightEvent& FlightRecorder::event(std::size_t i) const {
  SIC_CHECK(i < size_);
  return ring_[(head_ + i) % ring_.size()];
}

std::string FlightRecorder::postmortem_json(
    const TimeSeriesRegistry* series, std::uint64_t window_epochs) const {
  // Anchor the replay window at the trip epoch when tripped; otherwise at
  // the newest event we still hold (an explicit --postmortem-out request
  // on a healthy run wants the end of the run).
  std::uint64_t anchor = trip_epoch_;
  if (!tripped_) {
    anchor = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      const std::uint64_t e = event(i).epoch;
      if (e > anchor) anchor = e;
    }
  }
  const std::uint64_t window_start =
      window_epochs == 0 ? 0
      : anchor >= window_epochs - 1 ? anchor - (window_epochs - 1)
                                    : 0;

  std::ostringstream os;
  os << "{\"postmortem\":{\"version\":1,\"build\":";
  detail::append_json_string(os, git_describe());
  os << ",\"reason\":";
  detail::append_json_string(os, tripped_ ? reason_ : "requested");
  os << ",\"trip_epoch\":" << anchor
     << ",\"window_epochs\":" << window_epochs << ",\"config\":{";
  bool first = true;
  for (const auto& [key, value] : config_) {
    if (!first) os << ',';
    first = false;
    detail::append_json_string(os, key);
    os << ':';
    if (detail::is_json_number(value)) {
      os << value;
    } else {
      detail::append_json_string(os, value);
    }
  }
  os << "},\"events_dropped\":" << dropped_ << ",\"events\":[";
  first = true;
  for (std::size_t i = 0; i < size_; ++i) {
    const FlightEvent& ev = event(i);
    if (ev.epoch < window_start || ev.epoch > anchor) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"epoch\":" << ev.epoch << ",\"ap\":" << ev.ap
       << ",\"client\":" << ev.client << ",\"kind\":";
    detail::append_json_string(os, ev.kind);
    os << ",\"detail\":";
    detail::append_json_string(os, ev.detail);
    os << '}';
  }
  os << "],\"timeseries\":";
  os << (series != nullptr ? series->json_object() : std::string{"{}"});
  os << "}}";
  return os.str();
}

FlightRecorder* flight() { return g_flight; }

FlightRecorder* set_flight(FlightRecorder* recorder) {
  FlightRecorder* previous = g_flight;
  g_flight = recorder;
  return previous;
}

}  // namespace sic::obs
