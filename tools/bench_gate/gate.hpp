#ifndef SICMAC_TOOLS_BENCH_GATE_GATE_HPP
#define SICMAC_TOOLS_BENCH_GATE_GATE_HPP

/// \file gate.hpp
/// Bench-regression gate: compares a freshly emitted one-line bench
/// summary (BENCH_scheduler.json / BENCH_montecarlo.json /
/// BENCH_deployment.json) against a committed baseline and fails when a
/// pinned key regresses beyond its tolerance. Python-free on purpose —
/// the gate must run anywhere the repo builds (CI installs nothing extra)
/// and in milliseconds, like sic_lint.
///
/// Comparison model: each pinned key has a direction. For
/// higher-is-better keys (throughputs — the default) only a *drop* beyond
/// tolerance fails; for lower-is-better keys (recovery epochs, wall time)
/// only a *rise* does. Improvements always pass, so a faster machine
/// never trips the gate; tolerances absorb machine-to-machine noise in
/// the regressing direction.
///
/// `--perturb key=factor` scales the current value before comparison.
/// CI uses it to prove the gate actually fails on a synthetic regression
/// of the real artifact — a gate nobody has seen fail is a gate that may
/// compare nothing.

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sic::bench_gate {

/// A bench summary carries the same numeric key twice. Which value the
/// gate should compare is ambiguous, so the summary is rejected rather
/// than silently keeping the last one.
class DuplicateKeyError : public std::runtime_error {
 public:
  explicit DuplicateKeyError(std::string key)
      : std::runtime_error("duplicate numeric key \"" + key +
                           "\" in bench summary"),
        key_(std::move(key)) {}

  [[nodiscard]] const std::string& key() const { return key_; }

 private:
  std::string key_;
};

/// One pinned key. `tolerance_frac` is the allowed relative change in
/// the regressing direction (0.10 = 10 %).
struct Pin {
  std::string key;
  double tolerance_frac = 0.10;
  bool higher_is_better = true;
};

/// Outcome for one pinned key.
struct KeyResult {
  std::string key;
  double baseline = 0.0;
  double current = 0.0;       ///< after any perturbation
  double change_frac = 0.0;   ///< signed (current - baseline) / |baseline|
  double tolerance_frac = 0.0;
  bool higher_is_better = true;
  bool missing_baseline = false;
  bool missing_current = false;
  bool regressed = false;
};

struct GateReport {
  std::vector<KeyResult> keys;
  [[nodiscard]] bool ok() const;
  /// Aligned human-readable table, one line per pinned key plus a
  /// verdict line — what CI prints either way.
  [[nodiscard]] std::string text() const;
};

/// Extracts the top-level numeric fields of a one-line flat JSON object
/// (nested objects/arrays and string values are skipped, not descended
/// into). Tolerant of surrounding whitespace/newlines. Throws
/// DuplicateKeyError when a numeric key repeats (a repeated skipped key,
/// such as a string-valued "bench" tag, is harmless) and
/// std::runtime_error on text that is not a JSON object at all.
[[nodiscard]] std::map<std::string, double> parse_flat_json(
    std::string_view text);

/// Parses a --pin spec: `key[:tol%][:lower]`, e.g.
/// `samples_per_sec:10%`, `recovery_epochs:25%:lower`, `confirmed_frac`.
/// Throws std::runtime_error on a malformed spec.
[[nodiscard]] Pin parse_pin(std::string_view spec, double default_tolerance);

/// Compares \p current against \p baseline over \p pins.
/// \p perturb maps key -> factor applied to the current value first.
[[nodiscard]] GateReport run_gate(
    const std::map<std::string, double>& baseline,
    const std::map<std::string, double>& current,
    const std::vector<Pin>& pins,
    const std::map<std::string, double>& perturb = {});

}  // namespace sic::bench_gate

#endif  // SICMAC_TOOLS_BENCH_GATE_GATE_HPP
