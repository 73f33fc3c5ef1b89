/// sicbench — the sicmac benchmark binary.
///
///   sicbench --workload deploy_dense|deploy_churn|fig_sweeps --seed N
///            --seconds S --trace 0|1 [--threads T] [--expect HEX]
///            [--digest-only] [--spans-out PATH]
///
/// Runs one workload against the library's public API for about S
/// seconds and prints, last, one JSON line: {"correct", "attempted",
/// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
/// ones (taken with obs detached, as CPU times rescaled by the host-speed
/// probe, see probe.cpp); with --trace 1 they are the per-layer ones from
/// a separate traced run. --expect is the digest pinned for this
/// workload and seed; any mismatch, invariant violation or exception exits
/// non-zero without a result line. --digest-only runs one pass and prints
/// only the digest (pinning and the thread-invariance self-test).
/// --spans-out writes the traced run's spans.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/build_info.hpp"

#ifndef SICBENCH_BUILD_TYPE
#define SICBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define SICBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define SICBENCH_COMPILER "gcc " __VERSION__
#else
#define SICBENCH_COMPILER "unknown"
#endif

namespace sicbench {

namespace {

/// Second seed kept out of every tuning run; a gain claim must also hold
/// on it (see NOTES.md).
constexpr std::uint64_t kHeldOutSeed = 90210;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "sicbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (a == "--threads") {
        opt.threads = std::stoi(value());
      } else if (a == "--expect") {
        opt.expect = value();
      } else if (a == "--digest-only") {
        opt.digest_only = true;
      } else if (a == "--spans-out") {
        opt.spans_out = value();

      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.threads == 0 || opt.threads < -1) usage("--threads must be >= 1");
  return opt;
}

/// Untraced runs collect at least this many epochs, so the tail is at
/// least the 67th percentile.
constexpr std::size_t kMinEpochs = 30;

/// The highest percentile with at least ten samples above it: the
/// eleventh-largest sample. `percentile` is reported as 100·(1 − 10/n).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  if (v.size() < 11) {
    throw std::runtime_error("tail needs at least 11 samples, got " +
                             std::to_string(v.size()));
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return Tail{v[n - 11], 100.0 * (1.0 - 10.0 / static_cast<double>(n)), n};
}

/// Peak resident set size of this process in MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double SpanLog::self_time(int id) const {
  double t = spans_[static_cast<std::size_t>(id)].dur();
  for (const Span& s : spans_) {
    if (s.parent == id) t -= s.dur();
  }
  return t;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os{path};
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_s\":" << fmt_num(s.start_s)
       << ",\"end_s\":" << fmt_num(s.end_s) << ",\"parent\":" << s.parent
       << ",\"epoch\":" << s.epoch << ",\"source\":\"" << s.source
       << "\"}\n";
  }
}

std::string fmt(const char* format, double v) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

void check_chain(const std::vector<std::uint64_t>& ref,
                 const std::vector<std::uint64_t>& got, const char* what) {
  if (got != ref) {
    throw OutputMismatch(std::string(what) +
                         " diverged from the first pass's epoch digests");
  }
}

void pin_digest(const Options& opt, std::uint64_t digest, Report& rep) {
  rep.digest = hex64(digest);
  if (!opt.expect.empty() && rep.digest != opt.expect) {
    throw OutputMismatch("digest " + rep.digest + " != pinned " + opt.expect +
                         " for " + opt.workload + " seed " +
                         std::to_string(opt.seed));
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Timings run_cycles(const Options& opt, Report& rep,
                   const std::function<Pass()>& untraced,
                   const std::function<std::uint64_t(const Pass&)>& traced) {
  const double start = now_s();
  Timings t;
  std::vector<std::uint64_t> first_chain;
  std::uint64_t attempted = 0;
  double cycle_s = 0.0;
  do {
    const double cycle_start = now_s();
    const Pass p = untraced();
    attempted += p.operations;
    if (t.passes == 0) {
      pin_digest(opt, p.chain.back(), rep);
      first_chain = p.chain;
    } else {
      check_chain(first_chain, p.chain, "a later pass");
    }
    ++t.passes;
    const auto join = [](std::vector<double>& to,
                         const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    join(t.setup_s, p.setup_s);
    join(t.epoch_s, p.epoch_s);
    join(t.probe_s, p.probe_s);
    const double to_ref = kProbeReferenceS / median(p.probe_s);
    for (const double c : p.setup_cpu_s) t.setup_ref_s.push_back(c * to_ref);
    for (const double c : p.epoch_cpu_s) t.epoch_ref_s.push_back(c * to_ref);
    if (opt.trace) attempted += traced(p);
    cycle_s = now_s() - cycle_start;
  } while ((!opt.trace && t.epoch_s.size() < kMinEpochs) ||
           now_s() - start + cycle_s <= opt.seconds);
  rep.attempted = attempted;
  return t;
}

void report_end_to_end(const Timings& t, double samples_per_epoch,
                       Report& rep) {
  const Tail tail = tail_of(t.epoch_ref_s);
  rep.info.push_back(fmt("epoch_tail_ms is p%.2f", tail.percentile) + " of " +
                     std::to_string(tail.samples) + " epochs");
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  const double epochs = static_cast<double>(t.epoch_ref_s.size());
  const double epoch_total = sum(t.epoch_ref_s);
  rep.set("setup_s", median(t.setup_ref_s), "s");
  rep.set("epochs_per_s", epochs / epoch_total, "1/s");
  rep.set("epoch_p50_ms", 1e3 * median(t.epoch_ref_s), "ms");
  rep.set("epoch_tail_ms", 1e3 * tail.value, "ms");
  rep.set("samples_per_s", samples_per_epoch * epochs / epoch_total, "1/s");
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  // The same run on the wall clock, and the host's speed against the
  // reference, for a reader comparing with other timings.
  rep.info.push_back(
      fmt("wall clock: setup %.6f s median, ", median(t.setup_s)) +
      fmt("epoch %.3f ms median, ", 1e3 * median(t.epoch_s)) +
      fmt("%.4f epochs/s", epochs / sum(t.epoch_s)));
  rep.info.push_back(
      fmt("host probe: %.6f s median against ", median(t.probe_s)) +
      fmt("%.6f s reference", kProbeReferenceS));
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void use_last_cpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t use;
  CPU_ZERO(&use);
  int taken = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && taken < count; --c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &use);
      ++taken;
    }
  }
  if (sched_setaffinity(0, sizeof use, &use) != 0) {
    throw std::runtime_error("cannot restrict the run to its CPUs");
  }
}

bool is_deploy_workload(const std::string& name) {
  return name == "deploy_dense" || name == "deploy_churn";
}

}  // namespace sicbench

int main(int argc, char** argv) {
  using namespace sicbench;
  const Options opt = parse(argc, argv);
  const int cpus = nproc();  // before a workload restricts its CPUs
  if (!is_deploy_workload(opt.workload) && opt.workload != "fig_sweeps") {
    usage("unknown workload " + opt.workload +
          " (deploy_dense|deploy_churn|fig_sweeps)");
  }
  Report report;
  try {
    report = is_deploy_workload(opt.workload) ? run_deploy(opt)
                                              : run_sweeps(opt);
  } catch (const OutputMismatch& e) {
    std::fprintf(stderr, "sicbench: output check failed: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sicbench: run failed: %s\n", e.what());
    return 1;
  }
  if (opt.digest_only) {
    std::printf("%s\n", report.digest.c_str());
    return 0;
  }
  std::printf("stamp: workload=%s seed=%llu held_out_seed=%llu trace=%d "
              "nproc=%d compiler=\"%s\" build_type=%s git=%s digest=%s "
              "pinned=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(kHeldOutSeed), opt.trace ? 1 : 0,
              cpus, SICBENCH_COMPILER, SICBENCH_BUILD_TYPE,
              sic::obs::git_describe(), report.digest.c_str(),
              opt.expect.empty() ? "no" : "yes");
  for (const std::string& line : report.info) {
    std::printf("%s\n", line.c_str());
  }
  for (const auto& [name, m] : report.metrics) {
    std::printf("%-34s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": {",
              static_cast<unsigned long long>(report.attempted));
  const char* sep = "";
  for (const auto& [name, m] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep,
                json_escape(name).c_str(), fmt_num(m.value).c_str(),
                json_escape(m.unit).c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
