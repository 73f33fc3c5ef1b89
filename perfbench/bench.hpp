#ifndef SICBENCH_BENCH_HPP
#define SICBENCH_BENCH_HPP

/// \file bench.hpp
/// Shared pieces of the benchmark binary: wall clock, the output digest,
/// the in-memory span log, timing statistics, and the report every
/// workload fills. Everything here lives outside the library: the
/// benchmark drives the public API and times it from the caller's side.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace sicbench {

/// Seconds since an arbitrary fixed point (steady clock).
inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

/// CPU seconds this process has run, all threads together. The kernel
/// leaves out time the host stole from the virtual CPU and time the
/// process waited while others ran.
inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds of one round of the host-speed probe (probe.cpp), run on
/// \p threads threads at once; the mean over them.
double probe_s(int threads);

/// The probe's CPU time per round on the host the benchmark was defined
/// on, about its median there. Reported timings are rescaled to it.
constexpr double kProbeReferenceS = 0.0025;

/// Times one set-up or epoch: the host-speed probe runs first, outside the
/// interval, then the wall clock and the process CPU clock run until
/// stop().
class Stopwatch {
 public:
  explicit Stopwatch(int threads)
      : probe_s_(probe_s(threads)), wall0_(now_s()), cpu0_(cpu_s()) {}
  void stop() {
    cpu_s_ = cpu_s() - cpu0_;
    wall1_ = now_s();
  }
  [[nodiscard]] double start_s() const { return wall0_; }
  [[nodiscard]] double end_s() const { return wall1_; }
  [[nodiscard]] double wall_s() const { return wall1_ - wall0_; }
  [[nodiscard]] double cpu_time_s() const { return cpu_s_; }
  [[nodiscard]] double probe() const { return probe_s_; }

 private:
  double probe_s_;
  double wall0_;
  double cpu0_;
  double wall1_ = 0.0;
  double cpu_s_ = 0.0;
};

/// Raised when a run's outputs disagree with their reference; sicbench
/// then exits non-zero without printing a result.
class OutputMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Makes \p registry the process-wide obs registry for the scope (nullptr
/// detaches) and restores the previous one on exit, exceptions included.
class MetricsScope {
 public:
  explicit MetricsScope(sic::obs::MetricsRegistry* registry)
      : previous_(sic::obs::set_metrics(registry)) {}
  ~MetricsScope() { (void)sic::obs::set_metrics(previous_); }
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  sic::obs::MetricsRegistry* previous_;
};

/// \p v as 16 hex digits.
std::string hex64(std::uint64_t v);

/// FNV-1a over the exact bytes of the values folded in, so any change in
/// what the program computed (down to the last bit of a double) changes
/// the digest.
class Digest {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (v >> (8 * i)) & 0xffU;
      state_ *= 0x100000001b3ULL;
    }
  }
  void add_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_f64s(const std::vector<double>& vs) {
    add_u64(vs.size());
    for (const double v : vs) add_f64(v);
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One timed interval. `parent` indexes the span log (-1 = root); `epoch`
/// groups the spans of one epoch. `source` says how the interval was
/// obtained: "timed" (measured around a call), "program_timer" (a
/// duration the library's own obs timer published, placed inside its
/// parent), "replay" (a layer call repeated on the engine's public
/// state after the epoch, timed around the call), or "paired" (a traced
/// epoch minus the same epoch of the untraced pass run before it).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  int epoch = -1;
  const char* source = "timed";
  [[nodiscard]] double dur() const { return end_s - start_s; }
};

class SpanLog {
 public:
  int add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Span duration minus the durations of its direct children.
  [[nodiscard]] double self_time(int id) const;
  /// Writes the log as JSON lines to \p path.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// printf-style formatting of one double.
std::string fmt(const char* format, double v);

/// Throws OutputMismatch unless a pass reproduced the reference pass's
/// per-epoch digests.
void check_chain(const std::vector<std::uint64_t>& ref,
                 const std::vector<std::uint64_t>& got, const char* what);

/// Median of \p v (copied; empty → 0).
double median(std::vector<double> v);

/// CPUs this process may run on (what `nproc` prints).
int nproc();

/// Restricts the process to the last \p count CPUs it may run on, before
/// any worker thread starts. On the host the benchmark was defined on, the
/// same epoch ran 20–40 % slower on CPU 0, which serves most interrupts,
/// than on the others, so a run the scheduler moved there read slow.
void use_last_cpus(int count);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the metrics of the run
/// mode (end-to-end untraced, per-layer traced); `info` holds extra
/// human-readable lines printed before the result.
/// Every failure throws, so a finished run has no failed operations.
struct Report {
  std::uint64_t attempted = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> info;
  std::string digest;
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = -1;        ///< -1 = the workload's default
  std::string expect;      ///< pinned digest, empty = none pinned
  bool digest_only = false;
  std::string spans_out;   ///< where the traced run writes its spans
};

/// What the shared run loop needs from one pass of a workload. A pass
/// builds its inputs afresh (set-up) and runs a fixed number of epochs, so
/// every pass of a run must reproduce the same digest chain.
struct Pass {
  std::vector<double> setup_s;       ///< timed set-ups, wall seconds
  std::vector<double> epoch_s;       ///< timed epochs, wall seconds
  std::vector<double> setup_cpu_s;   ///< the same set-ups, CPU seconds
  std::vector<double> epoch_cpu_s;   ///< the same epochs, CPU seconds
  std::vector<double> probe_s;       ///< the probes taken before them
  std::vector<std::uint64_t> chain;  ///< output digest after each epoch
  std::uint64_t operations = 0;      ///< epochs run, untimed ones included
  void add_setup(const Stopwatch& w) {
    setup_s.push_back(w.wall_s());
    setup_cpu_s.push_back(w.cpu_time_s());
    probe_s.push_back(w.probe());
  }
  void add_epoch(const Stopwatch& w) {
    epoch_s.push_back(w.wall_s());
    epoch_cpu_s.push_back(w.cpu_time_s());
    probe_s.push_back(w.probe());
  }
};

/// The untraced timings of a run: the untraced passes' vectors, joined.
/// The `_ref_s` vectors hold each pass's CPU times rescaled to the probe's
/// reference speed: × kProbeReferenceS / (the pass's median probe).
struct Timings {
  std::vector<double> setup_s;
  std::vector<double> epoch_s;
  std::vector<double> setup_ref_s;
  std::vector<double> epoch_ref_s;
  std::vector<double> probe_s;
  std::size_t passes = 0;
};

/// Records \p digest (the first pass's final chain value) in \p rep and
/// throws OutputMismatch when it differs from the pinned --expect value.
void pin_digest(const Options& opt, std::uint64_t digest, Report& rep);

/// The run loop every workload shares. Each cycle runs one untraced pass
/// from \p untraced; the first pass's final digest is pinned, later passes
/// must repeat its chain. In a traced run the cycle then calls \p traced
/// with that cycle's untraced pass; it runs and checks the traced passes
/// and returns the operations they ran. Cycles repeat until another would
/// overrun --seconds (an untraced run first collects enough epochs for the
/// tail). Sets rep.attempted.
Timings run_cycles(const Options& opt, Report& rep,
                   const std::function<Pass()>& untraced,
                   const std::function<std::uint64_t(const Pass&)>& traced);

/// Sets every end-to-end metric from the untraced timings; a workload
/// epoch holds \p samples_per_epoch samples.
void report_end_to_end(const Timings& t, double samples_per_epoch,
                       Report& rep);

/// Workload entry points (deploy.cpp / sweeps.cpp).
Report run_deploy(const Options& opt);
Report run_sweeps(const Options& opt);
bool is_deploy_workload(const std::string& name);

}  // namespace sicbench

#endif  // SICBENCH_BENCH_HPP
