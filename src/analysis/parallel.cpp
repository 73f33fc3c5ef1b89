#include "analysis/parallel.hpp"

namespace sic::analysis {

ParallelRunner::ParallelRunner(const ParallelOptions& options)
    : pool_(ThreadPool::resolve(options.threads)),
      chunk_(options.chunk_trials) {
  SIC_CHECK(options.chunk_trials >= 1);
}

}  // namespace sic::analysis
