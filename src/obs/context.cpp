#include "obs/context.hpp"

#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_sink.hpp"
#include "util/check.hpp"

namespace sic::obs {

namespace {

thread_local Context tl_context;

}  // namespace

const Context& context() { return tl_context; }

MetricsRegistry* metrics() { return tl_context.metrics; }
TraceSink* trace() { return tl_context.trace; }
TimeSeriesRegistry* timeseries() { return tl_context.timeseries; }
FlightRecorder* flight() { return tl_context.flight; }

MetricsRegistry* set_metrics(MetricsRegistry* registry) {
  return std::exchange(tl_context.metrics, registry);
}

Attach::Attach(const Context& context)
    : previous_(std::exchange(tl_context, context)) {}

Attach::~Attach() { tl_context = previous_; }

void observed_parallel_for(ThreadPool& pool, std::int64_t n,
                           std::int64_t chunk,
                           const ThreadPool::ChunkFn& body) {
  if (tl_context == Context{}) {
    pool.parallel_for(n, chunk, body);
    return;
  }
  SIC_CHECK(n >= 0 && chunk >= 1);
  MetricsRegistry* const caller = tl_context.metrics;
  std::vector<MetricsRegistry> scratch;
  if (caller != nullptr) {
    scratch.resize(static_cast<std::size_t>((n + chunk - 1) / chunk));
  }
  pool.parallel_for(n, chunk, [&](std::int64_t begin, std::int64_t end) {
    const Attach attach{Context{
        .metrics = scratch.empty()
                       ? nullptr
                       : &scratch[static_cast<std::size_t>(begin / chunk)]}};
    body(begin, end);
  });
  for (const MetricsRegistry& registry : scratch) caller->merge_from(registry);
}

}  // namespace sic::obs
