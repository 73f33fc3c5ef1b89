#ifndef SICMAC_UTIL_THREAD_POOL_HPP
#define SICMAC_UTIL_THREAD_POOL_HPP

/// \file thread_pool.hpp
/// A small fixed-size worker pool for the parallel Monte Carlo sweeps
/// (analysis/parallel.hpp). One job runs at a time: parallel_for() hands
/// out [begin, end) index chunks from an atomic cursor, the calling thread
/// drains chunks alongside the workers, and the call returns only when the
/// whole range is done (rethrowing the first chunk exception, if any).
///
/// The pool makes no determinism promises by itself — which thread runs
/// which chunk is scheduler-dependent. Callers that need reproducible
/// results must make every index independent of execution order (see the
/// Rng::at counter-based substreams and DESIGN.md "Parallel sweeps").

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sic {

class ThreadPool {
 public:
  /// Chunk body: processes indices [begin, end).
  using ChunkFn = std::function<void(std::int64_t begin, std::int64_t end)>;

  /// \p threads is the total worker count including the calling thread
  /// (resolve() maps the CLI convention: 0 means "all hardware threads").
  /// A pool of 1 spawns no OS threads and runs everything inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency of parallel_for, including the calling thread.
  [[nodiscard]] int threads() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Runs \p body over [0, n) in chunks of \p chunk indices, blocking until
  /// every index is processed. Chunks are claimed dynamically, so the
  /// mapping of chunk -> thread varies run to run. If any chunk throws, the
  /// remaining range is abandoned and the first exception is rethrown here.
  void parallel_for(std::int64_t n, std::int64_t chunk, const ChunkFn& body);

  /// CLI convention: 0 -> hardware concurrency (at least 1), a positive
  /// count -> itself, and any negative count -> 1 (a single inline thread,
  /// never the hardware count).
  [[nodiscard]] static int resolve(int requested);

 private:
  void worker_loop();
  /// Claims and runs chunks of the current job until the range is drained.
  void drain();

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals a new job (or shutdown)
  std::condition_variable done_cv_;   ///< signals workers leaving a job
  std::uint64_t job_id_ = 0;          ///< bumped per parallel_for call
  int workers_in_job_ = 0;
  bool stop_ = false;

  // Current job; valid while workers_in_job_ > 0 or the caller drains.
  const ChunkFn* body_ = nullptr;
  std::int64_t n_ = 0;
  std::int64_t chunk_ = 1;
  std::int64_t next_ = 0;             ///< guarded by mu_
  std::exception_ptr error_;          ///< first failure, guarded by mu_
};

}  // namespace sic

#endif  // SICMAC_UTIL_THREAD_POOL_HPP
