#ifndef SICMAC_OBS_CONTEXT_HPP
#define SICMAC_OBS_CONTEXT_HPP

/// \file context.hpp
/// The one obs attach point. Each thread has one Context, empty by
/// default: the metrics registry, trace sink, time-series registry and
/// flight recorder that obs::metrics(), trace(), timeseries() and flight()
/// return. A null slot means "publish nothing there", so a detached thread
/// pays one thread-local load per publishing boundary. Attach installs a
/// whole context for a scope; a context attached on one thread is
/// invisible to every other thread, pool workers included.
///
/// observed_parallel_for() is the one way a parallel phase runs while its
/// caller observes. Which thread runs which chunk varies from run to run,
/// so no chunk may publish into the caller's sinks directly: every chunk,
/// on a worker or on the calling thread, runs under a context holding only
/// a scratch registry of its own, and the scratch registries are folded
/// into the caller's registry in chunk order once the pool returns. Chunks
/// never trace, record time-series samples or flight events; those belong
/// to a caller's sequential phases. The result is that everything a caller
/// observes is identical at any thread count (DESIGN.md "Observability").

#include <cstdint>

#include "util/thread_pool.hpp"

namespace sic::obs {

class MetricsRegistry;
class TraceSink;
class TimeSeriesRegistry;
class FlightRecorder;

/// Where one thread publishes. Every slot is optional.
struct Context {
  MetricsRegistry* metrics = nullptr;
  TraceSink* trace = nullptr;
  TimeSeriesRegistry* timeseries = nullptr;
  FlightRecorder* flight = nullptr;

  friend bool operator==(const Context&, const Context&) = default;
};

/// The calling thread's context.
[[nodiscard]] const Context& context();

/// Installs a whole context on the calling thread for the guard's lifetime
/// and restores the previous one on scope exit, exceptions included.
class Attach {
 public:
  explicit Attach(const Context& context);
  ~Attach();

  Attach(const Attach&) = delete;
  Attach& operator=(const Attach&) = delete;

 private:
  Context previous_;
};

/// pool.parallel_for(n, chunk, body) with the fan-out described above.
/// With an empty context it is exactly pool.parallel_for and allocates
/// nothing; with a context but no registry, chunks run with an empty
/// context.
void observed_parallel_for(ThreadPool& pool, std::int64_t n,
                           std::int64_t chunk,
                           const ThreadPool::ChunkFn& body);

}  // namespace sic::obs

#endif  // SICMAC_OBS_CONTEXT_HPP
