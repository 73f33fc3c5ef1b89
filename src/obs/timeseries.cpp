#include "obs/timeseries.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "obs/json_util.hpp"
#include "util/check.hpp"

namespace sic::obs {

TimeSeries::TimeSeries(std::size_t capacity) {
  SIC_CHECK(capacity >= 1);
  ring_.resize(capacity);
}

void TimeSeries::record(std::uint64_t epoch, double value) {
  if (size_ < ring_.size()) {
    ring_[(head_ + size_) % ring_.size()] = Point{epoch, value};
    ++size_;
  } else {
    ring_[head_] = Point{epoch, value};
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  }
}

TimeSeries::Point TimeSeries::point(std::size_t i) const {
  SIC_CHECK(i < size_);
  return ring_[(head_ + i) % ring_.size()];
}

TimeSeriesRegistry::TimeSeriesRegistry(std::size_t default_capacity)
    : default_capacity_(default_capacity) {
  SIC_CHECK(default_capacity >= 1);
}

TimeSeries& TimeSeriesRegistry::series(std::string_view name) {
  return series(name, default_capacity_);
}

TimeSeries& TimeSeriesRegistry::series(std::string_view name,
                                       std::size_t capacity) {
  const auto it = series_.find(name);
  if (it != series_.end()) return it->second;
  return series_.emplace(std::string{name}, TimeSeries{capacity})
      .first->second;
}

std::string TimeSeriesRegistry::csv() const {
  std::ostringstream os;
  os << "epoch";
  for (const auto& [name, s] : series_) os << ',' << name;
  os << '\n';
  // Row set = union of retained epochs; cell = the series' last sample at
  // that epoch. std::map keeps the rows ascending and the columns
  // name-ordered, so the table is deterministic.
  std::map<std::uint64_t, std::map<std::string, double, std::less<>>> rows;
  for (const auto& [name, s] : series_) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      const TimeSeries::Point p = s.point(i);
      rows[p.epoch][name] = p.value;
    }
  }
  for (const auto& [epoch, cells] : rows) {
    os << epoch;
    for (const auto& [name, s] : series_) {
      os << ',';
      const auto cell = cells.find(name);
      if (cell != cells.end()) os << detail::format_double(cell->second);
    }
    os << '\n';
  }
  return os.str();
}

std::string TimeSeriesRegistry::jsonl() const {
  std::ostringstream os;
  for (const auto& [name, s] : series_) {
    os << "{\"series\":";
    detail::append_json_string(os, name);
    os << ",\"dropped\":" << s.dropped() << ",\"points\":[";
    for (std::size_t i = 0; i < s.size(); ++i) {
      const TimeSeries::Point p = s.point(i);
      if (i != 0) os << ',';
      os << '[' << p.epoch << ',' << detail::format_double(p.value) << ']';
    }
    os << "]}\n";
  }
  return os.str();
}

std::string TimeSeriesRegistry::json_object() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, s] : series_) {
    if (!first) os << ',';
    first = false;
    detail::append_json_string(os, name);
    os << ":[";
    for (std::size_t i = 0; i < s.size(); ++i) {
      const TimeSeries::Point p = s.point(i);
      if (i != 0) os << ',';
      os << '[' << p.epoch << ',' << detail::format_double(p.value) << ']';
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

}  // namespace sic::obs
