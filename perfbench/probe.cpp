/// The host-speed probe: a fixed piece of work, owned by the benchmark and
/// independent of the library, timed before every timed set-up and epoch.
///
/// The shared host the benchmark was defined on switches, for seconds to
/// minutes at a time, between states in which the same epoch costs up to
/// 1.6x more CPU time. libm calls and the matcher's branchy scalar loops
/// slowed most in those states; the probe mixes a sort, a Hungarian
/// assignment and a libm loop, the mix that, of the kernels tried, followed
/// all three workloads most evenly. A pass's CPU times divided by its
/// median probe time, times the probe's reference time, give the pass at
/// the probe's reference speed (NOTES.md, "Host-speed normalisation"). The
/// probe does not call the library, so no change to the library moves it.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace sicbench {

namespace {

constexpr int kHungarianN = 48;
constexpr int kSortKeys = 2048;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Fixed pseudo-random inputs (xorshift64, constant seed).
struct ProbeData {
  std::vector<std::uint32_t> keys;
  std::vector<double> cost;  ///< (n+1)² matrix, 1-based rows and columns
  ProbeData() : keys(kSortKeys), cost((kHungarianN + 1) * (kHungarianN + 1)) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x]() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(next());
    for (double& c : cost) c = static_cast<double>(next() >> 40) * 1e-3;
  }
};

const ProbeData& probe_data() {
  static const ProbeData data;
  return data;
}

/// Minimum-cost assignment of the fixed matrix (the O(n³) Hungarian
/// algorithm with potentials); returns the optimal cost.
double hungarian(const std::vector<double>& a) {
  constexpr int n = kHungarianN;
  constexpr double kInf = 1e300;
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0), minv(n + 1);
  std::vector<int> match(n + 1, 0), way(n + 1, 0);
  std::vector<char> used(n + 1);
  for (int i = 1; i <= n; ++i) {
    match[0] = i;
    int j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[static_cast<std::size_t>(j0)] = 1;
      const int i0 = match[static_cast<std::size_t>(j0)];
      double delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)] != 0) continue;
        const double cur = a[static_cast<std::size_t>(i0 * (n + 1) + j)] -
                           u[static_cast<std::size_t>(i0)] -
                           v[static_cast<std::size_t>(j)];
        if (cur < minv[static_cast<std::size_t>(j)]) {
          minv[static_cast<std::size_t>(j)] = cur;
          way[static_cast<std::size_t>(j)] = j0;
        }
        if (minv[static_cast<std::size_t>(j)] < delta) {
          delta = minv[static_cast<std::size_t>(j)];
          j1 = j;
        }
      }
      for (int j = 0; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)] != 0) {
          u[static_cast<std::size_t>(match[static_cast<std::size_t>(j)])] +=
              delta;
          v[static_cast<std::size_t>(j)] -= delta;
        } else {
          minv[static_cast<std::size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (match[static_cast<std::size_t>(j0)] != 0);
    do {
      const int j1 = way[static_cast<std::size_t>(j0)];
      match[static_cast<std::size_t>(j0)] = match[static_cast<std::size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }
  return -v[0];
}

/// One round of the probe's work; returns a value that depends on all of
/// it, so none of it can be optimised away.
double probe_work() {
  const ProbeData& data = probe_data();
  double acc = 0.0;
  std::vector<std::uint32_t> keys;
  for (int r = 0; r < 12; ++r) {
    keys = data.keys;
    std::sort(keys.begin(), keys.end());
    acc += static_cast<double>(keys[static_cast<std::size_t>(r) * 97]);
  }
  for (int r = 0; r < 6; ++r) acc += hungarian(data.cost);
  for (int i = 1; i <= 24000; ++i) {
    const double x = 1e-4 * static_cast<double>(i);
    acc += std::log1p(x) * std::exp(-x) + std::pow(10.0, -0.1 * x);
  }
  return acc;
}

volatile double probe_sink = 0.0;

/// CPU seconds of one probe round on the calling thread.
double probe_once() {
  const double c0 = thread_cpu_s();
  probe_sink = probe_work();
  return thread_cpu_s() - c0;
}

}  // namespace

double probe_s(int threads) {
  (void)probe_data();  // build the inputs outside the timing
  if (threads <= 1) return probe_once();
  // One probe per workload thread, run at once, so each of the CPUs the
  // workload spreads over is measured; the result is their mean.
  std::vector<double> t(static_cast<std::size_t>(threads), 0.0);
  {
    std::vector<std::thread> pool;
    for (int k = 1; k < threads; ++k) {
      pool.emplace_back([&t, k]() { t[static_cast<std::size_t>(k)] = probe_once(); });
    }
    t[0] = probe_once();
    for (std::thread& th : pool) th.join();
  }
  double sum = 0.0;
  for (const double v : t) sum += v;
  return sum / static_cast<double>(threads);
}

}  // namespace sicbench
