#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/json_util.hpp"
#include "util/check.hpp"
#include "util/mathx.hpp"

namespace sic::obs {

namespace {

using detail::format_double;

void append_json_key(std::ostringstream& os, const std::string& name) {
  detail::append_json_string(os, name);
}

}  // namespace

void Gauge::merge_from(const Gauge& other) {
  if (other.stamp_ > stamp_ ||
      (other.stamp_ == stamp_ && other.value_ > value_)) {
    stamp_ = other.stamp_;
    value_ = other.value_;
  }
}

Histogram::Histogram(double min_value, int n_buckets) : min_value_(min_value) {
  SIC_CHECK(min_value > 0.0 && n_buckets >= 1);
  buckets_.assign(static_cast<std::size_t>(n_buckets), 0);
}

int Histogram::bucket_index(double value) const {
  if (!(value > min_value_)) return 0;
  const int k = static_cast<int>(std::floor(std::log2(value / min_value_)));
  // log2 rounding can land one bucket off right at a boundary; nudge so
  // bucket_lower_bound(k) <= value < bucket_lower_bound(k+1) holds exactly.
  int idx = std::max(0, k);
  if (value < bucket_lower_bound(idx)) --idx;
  if (idx + 1 < n_buckets() && value >= bucket_lower_bound(idx + 1)) ++idx;
  return std::min(idx, n_buckets() - 1);
}

double Histogram::bucket_lower_bound(int k) const {
  return min_value_ * std::exp2(static_cast<double>(k));
}

void Histogram::observe(double value) {
  ++buckets_[static_cast<std::size_t>(bucket_index(value))];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target sample, 1-based, ceil(q * count) with q=0 -> 1.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (int k = 0; k < n_buckets(); ++k) {
    seen += buckets_[static_cast<std::size_t>(k)];
    if (seen >= rank) return bucket_lower_bound(k);
  }
  return bucket_lower_bound(n_buckets() - 1);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string{name}, Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string{name}, Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, double min_value,
                                      int n_buckets) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::string{name}, Histogram{min_value, n_buckets})
      .first->second;
}

std::string MetricsRegistry::text_snapshot() const {
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-44s %20llu\n", name.c_str(),
                  static_cast<unsigned long long>(c.value()));
    os << buf;
  }
  for (const auto& [name, g] : gauges_) {
    os << name;
    for (std::size_t i = name.size(); i < 44; ++i) os << ' ';
    os << ' ' << format_double(g.value()) << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << name << "  count=" << h.count() << " sum=" << format_double(h.sum())
       << " min=" << format_double(h.min())
       << " p50=" << format_double(h.quantile(0.5))
       << " p99=" << format_double(h.quantile(0.99))
       << " max=" << format_double(h.max()) << '\n';
  }
  return os.str();
}

std::string MetricsRegistry::json_snapshot() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    append_json_key(os, name);
    os << ':' << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    append_json_key(os, name);
    os << ':' << format_double(g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    append_json_key(os, name);
    os << ":{\"count\":" << h.count() << ",\"sum\":" << format_double(h.sum())
       << ",\"min\":" << format_double(h.min())
       << ",\"max\":" << format_double(h.max())
       << ",\"p50\":" << format_double(h.quantile(0.5))
       << ",\"p90\":" << format_double(h.quantile(0.9))
       << ",\"p99\":" << format_double(h.quantile(0.99)) << ",\"buckets\":{";
    bool bfirst = true;
    for (int k = 0; k < h.n_buckets(); ++k) {
      if (h.bucket_count(k) == 0) continue;
      if (!bfirst) os << ',';
      bfirst = false;
      os << '"' << k << "\":" << h.bucket_count(k);
    }
    os << "}}";
  }
  os << "}}";
  return os.str();
}

void Histogram::merge_from(const Histogram& other) {
  // Layout identity is a configuration check: two histograms built from
  // the same options have bit-identical bounds, so bit-exact is right.
  SIC_CHECK_MSG(bitwise_equal(min_value_, other.min_value_) &&
                    buckets_.size() == other.buckets_.size(),
                "histogram merge requires identical bucket layouts");
  if (other.count_ == 0) return;
  for (std::size_t k = 0; k < buckets_.size(); ++k) {
    buckets_[k] += other.buckets_[k];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name).inc(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauge(name).merge_from(g);
  }
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h.bucket_lower_bound(0), h.n_buckets()).merge_from(h);
  }
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counter_values() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.value());
  return out;
}

}  // namespace sic::obs
