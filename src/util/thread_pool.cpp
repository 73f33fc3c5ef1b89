#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sic {

ThreadPool::ThreadPool(int threads) {
  SIC_CHECK(threads >= 1);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{mu_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::resolve(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hw));
}

void ThreadPool::worker_loop() {
  std::uint64_t last_job = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock{mu_};
      work_cv_.wait(lock, [&] { return stop_ || job_id_ != last_job; });
      if (stop_) return;
      last_job = job_id_;
      ++workers_in_job_;
    }
    drain();
    {
      std::lock_guard<std::mutex> lock{mu_};
      --workers_in_job_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::drain() {
  for (;;) {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    {
      std::lock_guard<std::mutex> lock{mu_};
      if (next_ >= n_) return;
      begin = next_;
      end = std::min(n_, begin + chunk_);
      next_ = end;
    }
    try {
      (*body_)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock{mu_};
      if (!error_) error_ = std::current_exception();
      next_ = n_;  // abandon the remaining range
      return;
    }
  }
}

void ThreadPool::parallel_for(std::int64_t n, std::int64_t chunk,
                              const ChunkFn& body) {
  SIC_CHECK(n >= 0 && chunk >= 1);
  if (n == 0) return;
  {
    std::lock_guard<std::mutex> lock{mu_};
    body_ = &body;
    n_ = n;
    chunk_ = chunk;
    next_ = 0;
    error_ = nullptr;
    ++job_id_;
  }
  work_cv_.notify_all();
  drain();  // the calling thread works too
  std::unique_lock<std::mutex> lock{mu_};
  done_cv_.wait(lock, [&] { return workers_in_job_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace sic
