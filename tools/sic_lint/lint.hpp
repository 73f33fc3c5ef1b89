/// sic_lint — domain static analysis for the sicmac tree.
///
/// A deliberately small analyzer (no libclang — it runs in milliseconds
/// anywhere the repo builds) enforcing the project's domain conventions.
/// Since PR 10 the rules run on a real token stream (tools/sic_lint/lexer)
/// with file/line/col positions, brace/paren scope depth, enclosing-function
/// capture, and preprocessor tracking, instead of regexes over a blanked
/// text view. Rule families:
///
///   R1  conversion-hygiene: no hand-rolled pow(10, x/10) / log10 dB↔linear
///       conversions — use sic::Decibels / sic::Dbm. Blessed homes:
///       util/units.hpp (it IS the conversion layer) and
///       channel/pathloss.cpp (the textbook log-distance law, whose operand
///       grouping is pinned by figure outputs). tests/ are exempt: probing
///       raw conversions against units.hpp is what unit tests are for. So
///       is perfbench/probe.cpp, a fixed host-speed workload whose pow()
///       term is calibrated work, not a conversion.
///   R2  unit-suffix hygiene: no raw `double` declarations whose identifier
///       carries a unit suffix (_db, _dbm, _mw) in headers. Existing debt is
///       tracked in a checked-in baseline; new findings and stale baseline
///       entries both fail the lint.
///   R3  determinism sources: no std::rand/srand, no wall-clock time
///       (system_clock, high_resolution_clock), no iteration over unordered
///       containers. Iterator-validity comparisons (`it != c.end()`) are
///       exempt; obs/ and bench/ are exempt by path (they time things).
///   R4  observer purity: metrics mutators (counter(...).inc, gauge(...).set,
///       histogram(...).observe, series(...).record) must be statements of
///       their own — never returned, assigned, or nested in another call.
///   R5  include-layer DAG: `#include "…"` edges across src/ must respect
///       the declared layer order (util → obs → channel → topology → phy →
///       matching → trace → core → mac → analysis; everything outside src/
///       is a consumer and may include any layer). Any back-edge fails, as
///       does any src/ include of a test-support header ("support/…", the
///       reference implementations in tests/support), and lint_tree()
///       additionally rejects include *cycles*, printing the full
///       offending path.
///   R6  RNG substream discipline: in a translation unit that uses
///       ParallelRunner / parallel_for / observed_parallel_for,
///       constructing an Rng or calling
///       .fork() inside a loop body is flagged — substreams must come from
///       the counter-based Rng::at(seed, index), which is order- and
///       thread-independent.
///   R7  FP determinism: no reduction (compound assignment) inside a
///       range-for over an unordered container, no `float` in src/core or
///       src/phy numeric code, and no `==`/`!=` between computed double
///       expressions (comparisons against literals are exempt; tests/ are
///       exempt; util/mathx.hpp is the blessed home of bitwise_equal()).
///   R8  typed-error policy: every `throw` in src/ must construct a project
///       error type (TraceIoError, FaultConfigError, MatchingError,
///       CheckError, UsageError, std::out_of_range, …) — never a bare
///       std::runtime_error / std::logic_error or a string literal.
///
/// Findings can be locally suppressed with a trailing
/// `// sic-lint: allow(R1)` comment (or a comment-only line immediately
/// above the offending line); multiple rules separate with commas. Only
/// real comments count: the marker inside a string literal is inert. The
/// suppression surface is designed to shrink — PR 10 deleted every inline
/// allow() in the tree and tests/sic_lint_tree_test.cpp keeps the count at
/// zero.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sic::lint {

/// One rule violation (or baseline staleness error).
struct Finding {
  std::string rule;     ///< "R1".."R8", or "baseline" for stale entries.
  std::string path;     ///< File path as passed to the linter.
  int line = 1;         ///< 1-indexed line of the violation.
  int col = 1;          ///< 1-indexed column of the violation.
  std::string symbol;   ///< Flagged identifier (R2 only; baseline key).
  std::string message;  ///< Human-readable explanation.
};

/// One file handed to lint_tree().
struct FileInput {
  std::string path;
  std::string source;
};

/// Per-rule selection: `only` non-empty restricts the run to those rule
/// ids; `exclude` removes rule ids afterwards. "baseline" findings are
/// controlled by the "R2" id (they are R2 bookkeeping).
struct LintOptions {
  std::vector<std::string> only;
  std::vector<std::string> exclude;

  [[nodiscard]] bool rule_enabled(std::string_view rule) const;
};

/// Replaces comments and string/char literal contents with spaces while
/// preserving the line structure and column positions of all remaining
/// tokens. Lexer-backed since PR 10 (handles line continuations inside //
/// comments and digit separators correctly). Kept public as a debugging
/// view and for the lexer regression tests.
[[nodiscard]] std::string sanitize(std::string_view source);

/// Inverse channel of sanitize(): keeps comment text (and newlines), blanks
/// code and literal contents. Suppression comments live in this channel, so
/// `sic-lint: allow(...)` inside a string literal never suppresses.
[[nodiscard]] std::string comments_only(std::string_view source);

/// Lints every file with every applicable rule, including the cross-file
/// analyses (R5 include cycles, the R7 double-symbol table). Findings are
/// sorted by (path, line, col, rule). Suppression comments are honored.
/// The R2 baseline is NOT applied here — see apply_baseline().
[[nodiscard]] std::vector<Finding> lint_tree(const std::vector<FileInput>& files,
                                             const LintOptions& options = {});

/// Single-file convenience wrapper over lint_tree(). Cross-file context
/// degrades gracefully: the R7 symbol table sees only this file, and R5
/// cycle detection sees only this file's edges (back-edges still fire).
[[nodiscard]] std::vector<Finding> lint_file(const std::string& path,
                                             std::string_view source);

/// Parses a baseline file: one `path:identifier` entry per line, `#`
/// comments and blank lines ignored.
[[nodiscard]] std::vector<std::string> parse_baseline(std::string_view text);

/// Removes R2 findings whose `path:symbol` key appears in `baseline`.
/// Baseline entries that match no finding are STALE: each produces a
/// Finding with rule "baseline" naming `baseline_path` and the removal
/// command, so the file cannot rot.
[[nodiscard]] std::vector<Finding> apply_baseline(
    std::vector<Finding> findings, const std::vector<std::string>& baseline,
    const std::string& baseline_path);

/// `path:line:col: [rule] message` — the canonical one-line rendering.
[[nodiscard]] std::string format_finding(const Finding& finding);

/// Deterministic JSON rendering of a lint run: an object with
/// "files_scanned", per-rule "counts" (sorted by rule id), and "findings"
/// sorted by (path, line, col, rule) — byte-identical for identical inputs.
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings,
                                  std::size_t files_scanned);

}  // namespace sic::lint
