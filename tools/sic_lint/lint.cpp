#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "lexer.hpp"

namespace sic::lint {

namespace {

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// True if `path` has a directory component named `dir` (e.g. "obs",
/// "bench"). Works for absolute and repo-relative paths alike.
bool has_dir_component(std::string_view path, std::string_view dir) {
  std::size_t pos = 0;
  while ((pos = path.find(dir, pos)) != std::string_view::npos) {
    const bool starts_segment = pos == 0 || path[pos - 1] == '/';
    const std::size_t end = pos + dir.size();
    const bool ends_segment = end < path.size() && path[end] == '/';
    if (starts_segment && ends_segment) return true;
    pos = end;
  }
  return false;
}

/// Fixture files exercise the rules in tests: never exempt them.
bool is_fixture(std::string_view path) {
  return has_dir_component(path, "lint_fixtures");
}

bool is_header(std::string_view path) { return ends_with(path, ".hpp"); }

bool r1_applies(std::string_view path) {
  if (is_fixture(path)) return true;
  // util/units.hpp is the one blessed home of dB↔linear math, and
  // channel/pathloss.cpp the blessed home of the textbook log-distance law
  // (its operand grouping is pinned by the figure outputs). Tests probe raw
  // conversions against units.hpp on purpose. perfbench/probe.cpp is a
  // synthetic host-speed workload, not a dB conversion: its pow(10, x) term
  // is part of the fixed work kProbeReferenceS is calibrated against, and
  // the probe may not call src/.
  return !ends_with(path, "util/units.hpp") &&
         !ends_with(path, "channel/pathloss.cpp") &&
         !ends_with(path, "perfbench/probe.cpp") &&
         !has_dir_component(path, "tests");
}

bool r2_applies(std::string_view path) {
  return is_header(path) && !ends_with(path, "util/units.hpp");
}

bool r3_applies(std::string_view path) {
  if (is_fixture(path)) return true;
  // Observability reads clocks by design; bench code times itself.
  return !has_dir_component(path, "obs") && !has_dir_component(path, "bench");
}

bool r4_applies(std::string_view path) {
  if (is_fixture(path)) return true;
  // The registry implementation calls its own mutators; tests assert on
  // mutator behavior inside EXPECT macros. Both are out of scope.
  return !has_dir_component(path, "obs") && !has_dir_component(path, "tests");
}

bool r7_applies(std::string_view path) {
  if (is_fixture(path)) return true;
  // Tests compare computed doubles on purpose (golden values, EXPECT_EQ);
  // util/mathx.hpp is the blessed home of bitwise_equal()/approx_equal().
  return !has_dir_component(path, "tests") &&
         !ends_with(path, "util/mathx.hpp");
}

bool r8_applies(std::string_view path) {
  // The typed-error policy governs the library; tools and bench harnesses
  // may throw whatever their mini-CLIs need.
  return is_fixture(path) || has_dir_component(path, "src");
}

// ---------------------------------------------------------------------------
// Layer DAG (R5)
// ---------------------------------------------------------------------------

/// Declared layer order, lowest first. A file in layer i may include layers
/// j <= i only. The order is the *verified* dependency structure of the
/// tree: obs sits just above util because observability is wired into every
/// subsystem by design (PR 2), and channel sits below topology because the
/// placement samplers precompute link RSS through the channel models.
constexpr std::array<std::string_view, 10> kLayers = {
    "util", "obs",  "channel", "topology", "phy",
    "matching", "trace", "core", "mac", "analysis"};

constexpr std::string_view kLayerOrderText =
    "util -> obs -> channel -> topology -> phy -> matching -> trace -> "
    "core -> mac -> analysis";

int layer_index(std::string_view name) {
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    if (kLayers[i] == name) return static_cast<int>(i);
  }
  return -1;
}

/// Layer of a source file: the directory component immediately following a
/// `src` component, when it names a layer. Files outside src/ (tools,
/// bench, tests, examples) and src/ files outside a layer directory
/// (sicmac.hpp) are consumers: they may include anything.
int layer_of_path(std::string_view path) {
  std::size_t pos = 0;
  while ((pos = path.find("src/", pos)) != std::string_view::npos) {
    if (pos != 0 && path[pos - 1] != '/') {
      pos += 4;
      continue;
    }
    const std::size_t start = pos + 4;
    const std::size_t slash = path.find('/', start);
    if (slash != std::string_view::npos) {
      const int idx = layer_index(path.substr(start, slash - start));
      if (idx >= 0) return idx;
    }
    pos += 4;
  }
  return -1;
}

/// Layer of an include target ("channel/link.hpp" -> channel); -1 when the
/// first component is not a layer (relative includes like "lint.hpp").
int layer_of_include(std::string_view target) {
  const std::size_t slash = target.find('/');
  if (slash == std::string_view::npos) return -1;
  return layer_index(target.substr(0, slash));
}

/// Key under which a file is includable (`#include "channel/link.hpp"`):
/// the path after its last `src/` component. Empty for non-src files.
std::string include_key(std::string_view path) {
  const std::size_t pos = path.rfind("src/");
  if (pos == std::string_view::npos) return {};
  if (pos != 0 && path[pos - 1] != '/') return {};
  return std::string{path.substr(pos + 4)};
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Per-line sets of rule names allowed via `// sic-lint: allow(R1,R3)`.
/// A suppression on a comment-only line also covers the next line.
///
/// Parsed from the lexer's comment channel, so the allow marker occurring
/// inside a string literal — e.g. in a fixture or in sic_lint's own
/// messages — can never suppress findings.
class Suppressions {
 public:
  explicit Suppressions(const LexedFile& lx) {
    std::set<int> code_lines;
    for (const Token& t : lx.tokens) {
      int line = t.line;
      code_lines.insert(line);
      for (const char c : t.text) {
        if (c == '\n') code_lines.insert(++line);
      }
    }
    static const std::regex allow_re(
        R"(sic-lint:\s*allow\(\s*([A-Za-z0-9_,\s]+?)\s*\))");
    for (const Token& t : lx.comments) {
      int line = t.line;
      std::size_t start = 0;
      while (start <= t.text.size()) {
        std::size_t nl = t.text.find('\n', start);
        if (nl == std::string::npos) nl = t.text.size();
        const std::string sub = t.text.substr(start, nl - start);
        std::smatch m;
        if (std::regex_search(sub, m, allow_re)) {
          std::set<std::string> rules;
          std::stringstream list{m[1].str()};
          std::string rule;
          while (std::getline(list, rule, ',')) {
            rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                       rule.end());
            if (!rule.empty()) rules.insert(rule);
          }
          add(line, rules);
          if (code_lines.count(line) == 0) add(line + 1, rules);
        }
        ++line;
        start = nl + 1;
      }
    }
  }

  [[nodiscard]] bool allowed(int line, const std::string& rule) const {
    const auto it = by_line_.find(line);
    return it != by_line_.end() && it->second.count(rule) > 0;
  }

 private:
  void add(int line, const std::set<std::string>& rules) {
    by_line_[line].insert(rules.begin(), rules.end());
  }

  std::unordered_map<int, std::set<std::string>> by_line_;
};

// ---------------------------------------------------------------------------
// Analysis context
// ---------------------------------------------------------------------------

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

/// Names declared as `double` vs any other arithmetic/class type, across
/// the whole lint_tree() input. A name declared both ways is ambiguous and
/// drops out — the R7 comparison rule only fires on names that are doubles
/// everywhere they are declared.
struct SymbolTable {
  std::set<std::string> dbl;
  std::set<std::string> ambiguous;

  [[nodiscard]] bool is_double(const std::string& name) const {
    return dbl.count(name) > 0 && ambiguous.count(name) == 0;
  }
};

bool other_type_token(const Token& t) {
  static const std::set<std::string> kOther = {
      "int",      "long",     "short",   "unsigned", "bool",    "char",
      "auto",     "float",    "size_t",  "uint64_t", "int64_t", "uint32_t",
      "int32_t",  "uint16_t", "int16_t", "uint8_t",  "int8_t",  "ptrdiff_t"};
  if (kOther.count(t.text) > 0) return true;
  // Class-typed declarations: `Decibels drift`, `Dbm s`, ...
  return !t.text.empty() && std::isupper(static_cast<unsigned char>(t.text[0]));
}

void collect_symbols(const LexedFile& lx, SymbolTable& table) {
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].pp || toks[i + 1].pp) continue;
    if (toks[i].kind != TokKind::kIdent ||
        toks[i + 1].kind != TokKind::kIdent) {
      continue;
    }
    const std::string& name = toks[i + 1].text;
    if (toks[i].text == "double") {
      if (table.dbl.insert(name).second == false) continue;
      continue;
    }
    if (other_type_token(toks[i])) {
      if (table.dbl.count(name) > 0) table.ambiguous.insert(name);
      // Remember non-double declarations so a later `double name` is also
      // recognized as ambiguous.
      table.ambiguous.insert("\x01" + name);  // shadow marker, see below
    }
  }
}

/// Second pass over the shadow markers: a name with both a double and a
/// non-double declaration is ambiguous regardless of scan order.
void finalize_symbols(SymbolTable& table) {
  for (const std::string& marked : table.ambiguous) {
    if (!marked.empty() && marked[0] == '\x01') {
      const std::string name = marked.substr(1);
      if (table.dbl.count(name) > 0) table.ambiguous.insert(name);
    }
  }
}

/// Everything the per-file rules need, computed once per file.
struct FileCtx {
  const std::string* path = nullptr;
  LexedFile lx;
  ScopeInfo scopes;
  std::set<std::string> unordered;  ///< names declared std::unordered_*
  /// Mentions ParallelRunner, parallel_for or observed_parallel_for.
  bool parallel_tu = false;
  Suppressions suppress;

  FileCtx(const std::string& p, std::string_view source)
      : path(&p), lx(lex(source)), suppress(lx) {
    scopes = analyze_scopes(lx.tokens);
    const auto& toks = lx.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      if (t.text == "parallel_for" || t.text == "observed_parallel_for" ||
          t.text == "ParallelRunner") {
        parallel_tu = true;
      }
      static const std::set<std::string> kUnordered = {
          "unordered_map", "unordered_set", "unordered_multimap",
          "unordered_multiset"};
      if (kUnordered.count(t.text) > 0 && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "<")) {
        // Balance the template angle brackets at token level ('<<'/'>>'
        // lex as two tokens, so plain counting works).
        std::size_t j = i + 1;
        int depth = 0;
        for (; j < toks.size(); ++j) {
          if (toks[j].pp) continue;
          if (is_punct(toks[j], "<")) ++depth;
          if (is_punct(toks[j], ">")) {
            --depth;
            if (depth == 0) break;
          }
        }
        if (j >= toks.size()) continue;
        ++j;
        while (j < toks.size() &&
               (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
                is_ident(toks[j], "const"))) {
          ++j;
        }
        if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
          unordered.insert(toks[j].text);
        }
      }
    }
  }
};

void emit(std::vector<Finding>& out, const FileCtx& ctx,
          const LintOptions& opts, const std::string& rule, const Token& at,
          std::string symbol, std::string message) {
  if (!opts.rule_enabled(rule)) return;
  if (ctx.suppress.allowed(at.line, rule)) return;
  out.push_back(Finding{rule, *ctx.path, at.line, at.col, std::move(symbol),
                        std::move(message)});
}

// ---------------------------------------------------------------------------
// R1 — hand-rolled dB↔linear conversions
// ---------------------------------------------------------------------------

bool number_is_ten(std::string_view text) {
  if (text.substr(0, 2) != "10") return false;
  for (std::size_t i = 2; i < text.size(); ++i) {
    if (text[i] != '.' && text[i] != '0') return false;
  }
  return true;
}

void check_r1(const FileCtx& ctx, const LintOptions& opts,
              std::vector<Finding>& out) {
  const auto& toks = ctx.lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.pp) continue;
    const bool member = i > 0 && is_punct(toks[i - 1], ".");
    if (member) continue;
    if (t.text == "pow" && i + 3 < toks.size() &&
        is_punct(toks[i + 1], "(") && toks[i + 2].kind == TokKind::kNumber &&
        number_is_ten(toks[i + 2].text) && is_punct(toks[i + 3], ",")) {
      emit(out, ctx, opts, "R1", t, "",
           "hand-rolled pow(10, x/10) dB->linear conversion; use "
           "sic::Decibels{x}.linear() from util/units.hpp");
    }
    if (t.text == "log10" && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      emit(out, ctx, opts, "R1", t, "",
           "hand-rolled log10 linear->dB conversion; use "
           "sic::Decibels::from_linear() from util/units.hpp");
    }
  }
}

// ---------------------------------------------------------------------------
// R2 — raw doubles with unit suffixes in headers
// ---------------------------------------------------------------------------

bool has_unit_suffix(std::string_view name) {
  static const std::regex suffix_re(R"(^[A-Za-z_]\w*_(?:db|dbm|mw)_?$)");
  return std::regex_match(name.begin(), name.end(), suffix_re);
}

void check_r2(const FileCtx& ctx, const LintOptions& opts,
              std::vector<Finding>& out) {
  const auto& toks = ctx.lx.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "double") || toks[i].pp) continue;
    const Token& name = toks[i + 1];
    if (name.kind != TokKind::kIdent || !has_unit_suffix(name.text)) continue;
    emit(out, ctx, opts, "R2", toks[i], name.text,
         "raw double '" + name.text +
             "' carries a unit suffix in a header; use sic::Decibels / "
             "sic::Dbm / sic::Milliwatts");
  }
}

// ---------------------------------------------------------------------------
// R3 — nondeterminism sources
// ---------------------------------------------------------------------------

/// The range-for container name for the `for` keyword at `i`, or empty.
/// Matches `for (decl : expr)` where expr is an identifier/member chain —
/// the last identifier directly before the closing paren names it.
std::string range_for_container(const std::vector<Token>& toks,
                                std::size_t i) {
  if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) return {};
  const std::size_t close = match_forward(toks, i + 1);
  if (close >= toks.size()) return {};
  bool has_colon = false;
  for (std::size_t j = i + 2; j < close; ++j) {
    if (is_punct(toks[j], ":") &&
        toks[j].paren_depth == toks[i + 1].paren_depth + 1) {
      has_colon = true;
      break;
    }
  }
  if (!has_colon) return {};
  std::size_t last = close;
  while (last > i + 1 && is_punct(toks[last - 1], ")")) {
    // `: obj.items())` — a trailing call does not name a container we can
    // track; bail like the regex version did.
    return {};
  }
  if (toks[close - 1].kind == TokKind::kIdent) return toks[close - 1].text;
  return {};
}

void check_r3(const FileCtx& ctx, const LintOptions& opts,
              std::vector<Finding>& out) {
  const auto& toks = ctx.lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.pp || t.kind != TokKind::kIdent) continue;
    if (t.text == "rand" && i >= 2 && is_punct(toks[i - 1], "::") &&
        is_ident(toks[i - 2], "std")) {
      emit(out, ctx, opts, "R3", toks[i - 2], "",
           "std::rand is not seedable per-stream; use sic::Rng "
           "(util/rng.hpp)");
    }
    if (t.text == "srand" && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      emit(out, ctx, opts, "R3", t, "",
           "srand mutates global state; use sic::Rng (util/rng.hpp)");
    }
    if (t.text == "system_clock") {
      emit(out, ctx, opts, "R3", t, "",
           "wall-clock time breaks reproducibility; use steady_clock (and "
           "only in obs/bench code)");
    }
    if (t.text == "high_resolution_clock") {
      emit(out, ctx, opts, "R3", t, "",
           "high_resolution_clock may alias system_clock; use steady_clock "
           "(and only in obs/bench code)");
    }
  }

  if (ctx.unordered.empty()) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].pp) continue;
    if (is_ident(toks[i], "for")) {
      const std::string name = range_for_container(toks, i);
      if (!name.empty() && ctx.unordered.count(name) > 0) {
        emit(out, ctx, opts, "R3", toks[i], "",
             "iteration over unordered container '" + name +
                 "' has unspecified order; iterate a sorted copy or an "
                 "ordered container");
      }
      continue;
    }
    // `name.begin()` / `name.end()` iterator access.
    if (toks[i].kind == TokKind::kIdent && ctx.unordered.count(toks[i].text) &&
        i + 3 < toks.size() && is_punct(toks[i + 1], ".") &&
        toks[i + 2].kind == TokKind::kIdent && is_punct(toks[i + 3], "(")) {
      const std::string& method = toks[i + 2].text;
      if (method != "begin" && method != "end" && method != "cbegin" &&
          method != "cend") {
        continue;
      }
      if (method == "end" || method == "cend") {
        // `it != m.end()` / `m.end() == m.find(k)` are deterministic
        // validity tests.
        const bool cmp_before =
            i > 0 && (is_punct(toks[i - 1], "==") || is_punct(toks[i - 1], "!="));
        const std::size_t close = match_forward(toks, i + 3);
        const bool cmp_after =
            close + 1 < toks.size() && (is_punct(toks[close + 1], "==") ||
                                        is_punct(toks[close + 1], "!="));
        if (cmp_before || cmp_after) continue;
      }
      emit(out, ctx, opts, "R3", toks[i], "",
           "iterator over unordered container '" + toks[i].text +
               "' has unspecified order; iterate a sorted copy or an "
               "ordered container");
    }
  }
}

// ---------------------------------------------------------------------------
// R4 — metrics mutators used as values
// ---------------------------------------------------------------------------

void check_r4(const FileCtx& ctx, const LintOptions& opts,
              std::vector<Finding>& out) {
  static const std::set<std::string> kMakers = {"counter", "gauge",
                                                "histogram", "series"};
  static const std::set<std::string> kMutators = {"inc", "set", "observe",
                                                  "record"};
  static const std::set<std::string> kAssignOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
  const auto& toks = ctx.lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.pp || t.kind != TokKind::kIdent || kMakers.count(t.text) == 0) {
      continue;
    }
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_forward(toks, i + 1);
    if (close >= toks.size()) continue;
    // Require a chained `.inc(` / `.set(` / `.observe(` — a bound reference
    // (`auto& h = reg.histogram(...)`) is not itself a mutation.
    if (close + 3 >= toks.size() || !is_punct(toks[close + 1], ".")) continue;
    if (toks[close + 2].kind != TokKind::kIdent ||
        kMutators.count(toks[close + 2].text) == 0 ||
        !is_punct(toks[close + 3], "(")) {
      continue;
    }
    // Statement prefix: walk back to the nearest ; { or } and look for a
    // value consumer (`return`, an assignment) or call nesting (the maker
    // sits deeper in parens than the statement start).
    bool impure = false;
    std::size_t b = i;
    while (b > 0) {
      const Token& p = toks[b - 1];
      if (p.pp) {
        --b;
        continue;
      }
      if (is_punct(p, ";") || is_punct(p, "{") || is_punct(p, "}")) break;
      if (is_ident(p, "return")) impure = true;
      if (p.kind == TokKind::kPunct && kAssignOps.count(p.text) > 0 &&
          p.paren_depth <= t.paren_depth) {
        impure = true;
      }
      --b;
    }
    if (!impure && b < i) {
      // First token of the statement: if the maker is nested deeper, the
      // chain's value is consumed by an enclosing call.
      std::size_t first = b;
      while (first < i && toks[first].pp) ++first;
      if (first < i && t.paren_depth > toks[first].paren_depth) impure = true;
    }
    if (!impure) continue;
    emit(out, ctx, opts, "R4", t, "",
         "metrics mutator used inside a value-producing expression; "
         "observers must be pure side-channel statements");
  }
}

// ---------------------------------------------------------------------------
// R5 — include-layer DAG (per-file back-edges)
// ---------------------------------------------------------------------------

void check_r5_back_edges(const FileCtx& ctx, const LintOptions& opts,
                         std::vector<Finding>& out) {
  // Test-support code (tests/support, included as "support/...") holds
  // reference implementations that exist only to pin library code in
  // tests; no library file may depend on it.
  if (has_dir_component(*ctx.path, "src")) {
    for (const IncludeDirective& inc : ctx.lx.includes) {
      if (!inc.quoted || inc.target.rfind("support/", 0) != 0) continue;
      Token at;
      at.line = inc.line;
      at.col = 1;
      emit(out, ctx, opts, "R5", at, inc.target,
           "src/ must not include test-support header \"" + inc.target +
               "\": tests/support is reference code for tests, not part "
               "of the library");
    }
  }
  const int file_layer = layer_of_path(*ctx.path);
  if (file_layer < 0) return;  // consumers may include anything
  for (const IncludeDirective& inc : ctx.lx.includes) {
    if (!inc.quoted) continue;
    const int inc_layer = layer_of_include(inc.target);
    if (inc_layer < 0 || inc_layer <= file_layer) continue;
    Token at;
    at.line = inc.line;
    at.col = 1;
    emit(out, ctx, opts, "R5", at, inc.target,
         "include back-edge: src/" + std::string{kLayers[static_cast<std::size_t>(file_layer)]} +
             " (layer " + std::to_string(file_layer) + ") must not include \"" +
             inc.target + "\" (" +
             std::string{kLayers[static_cast<std::size_t>(inc_layer)]} +
             ", layer " + std::to_string(inc_layer) +
             "); declared order: " + std::string{kLayerOrderText});
  }
}

// ---------------------------------------------------------------------------
// R6 — RNG substream discipline in parallel translation units
// ---------------------------------------------------------------------------

void check_r6(const FileCtx& ctx, const LintOptions& opts,
              std::vector<Finding>& out) {
  if (!ctx.parallel_tu) return;
  const auto& toks = ctx.lx.tokens;
  for (const TokenSpan& body : ctx.scopes.loop_bodies) {
    for (std::size_t i = body.begin; i <= body.end && i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.pp || t.kind != TokKind::kIdent) continue;
      if (t.text == "fork" && i > body.begin && is_punct(toks[i - 1], ".") &&
          i + 1 <= body.end && is_punct(toks[i + 1], "(")) {
        emit(out, ctx, opts, "R6", t, "",
             "Rng::fork() inside a loop body of a parallel translation "
             "unit: fork order depends on scheduling; derive substreams "
             "with the counter-based Rng::at(seed, index)");
        continue;
      }
      if (t.text != "Rng") continue;
      if (i + 1 > body.end || i + 1 >= toks.size()) continue;
      const Token& next = toks[i + 1];
      // `Rng::at(...)` is the required form; `Rng&` / `Rng*` / `<Rng>` are
      // type mentions, not constructions.
      if (is_punct(next, "::")) continue;
      if (next.kind == TokKind::kPunct && next.text != "(" &&
          next.text != "{") {
        continue;
      }
      bool blessed = false;
      if (next.kind == TokKind::kIdent) {
        // Declaration `Rng r = ...;` — blessed when the initializer goes
        // through `::at(...)`. An initializer via `.fork()` is flagged by
        // the fork check above; skip here so the line reports once.
        for (std::size_t j = i + 1; j <= body.end && j < toks.size(); ++j) {
          if (is_punct(toks[j], ";")) break;
          const bool scoped_at = is_ident(toks[j], "at") && j > 0 &&
                                 is_punct(toks[j - 1], "::");
          const bool via_fork = is_ident(toks[j], "fork") && j > 0 &&
                                is_punct(toks[j - 1], ".");
          if (scoped_at || via_fork) {
            blessed = true;
            break;
          }
        }
      }
      if (blessed) continue;
      emit(out, ctx, opts, "R6", t, "",
           "Rng constructed inside a loop body of a parallel translation "
           "unit: per-iteration streams must be the counter-based "
           "Rng::at(seed, index), independent of scheduling order");
    }
  }
}

// ---------------------------------------------------------------------------
// R7 — FP determinism
// ---------------------------------------------------------------------------

void check_r7_unordered_reduction(const FileCtx& ctx,
                                  const SymbolTable& symbols,
                                  const LintOptions& opts,
                                  std::vector<Finding>& out) {
  static const std::set<std::string> kReduceOps = {"+=", "-=", "*=", "/="};
  if (ctx.unordered.empty()) return;
  const auto& toks = ctx.lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].pp || !is_ident(toks[i], "for")) continue;
    const std::string name = range_for_container(toks, i);
    if (name.empty() || ctx.unordered.count(name) == 0) continue;
    const std::size_t close = match_forward(toks, i + 1);
    if (close >= toks.size()) continue;
    std::size_t body = close + 1;
    if (body >= toks.size()) continue;
    std::size_t body_end;
    if (is_punct(toks[body], "{")) {
      body_end = match_forward(toks, body);
      ++body;
    } else {
      body_end = body;
      while (body_end < toks.size() && !is_punct(toks[body_end], ";")) {
        ++body_end;
      }
    }
    for (std::size_t j = body; j < body_end && j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kPunct ||
          kReduceOps.count(toks[j].text) == 0) {
        continue;
      }
      // Integer accumulation is associative — unspecified order changes
      // only FP results, so require a double-typed accumulator on the lhs.
      if (j == 0 || toks[j - 1].kind != TokKind::kIdent ||
          !symbols.is_double(toks[j - 1].text)) {
        continue;
      }
      emit(out, ctx, opts, "R7", toks[j], "",
           "reduction of double '" + toks[j - 1].text +
               "' over unordered container '" + name +
               "' accumulates in unspecified order, which changes the "
               "floating-point result; reduce over a sorted copy");
    }
  }
}

void check_r7_float(const FileCtx& ctx, const LintOptions& opts,
                    std::vector<Finding>& out) {
  const bool core_or_phy = has_dir_component(*ctx.path, "core") ||
                           has_dir_component(*ctx.path, "phy");
  if (!is_fixture(*ctx.path) && !core_or_phy) return;
  for (const Token& t : ctx.lx.tokens) {
    if (t.pp || !is_ident(t, "float")) continue;
    emit(out, ctx, opts, "R7", t, "",
         "float in core/phy numeric code: the completion-time algebra and "
         "feasibility predicates are double-only so results stay "
         "bit-identical across builds; use double");
  }
}

/// One side of a `==`/`!=`: walk outward collecting tokens until the
/// expression boundary at relative depth 0.
struct Operand {
  bool empty = true;
  bool has_literal = false;
  bool has_string = false;
  std::string double_ident;  ///< first identifier known to be double-typed
};

bool boundary_punct(const Token& t) {
  static const std::set<std::string> kBoundary = {
      ",", ";", "{", "}",  "?",  ":",  "&&", "||", "==", "!=",
      "<", ">", "<=", ">=", "=",  "+=", "-=", "*=", "/=", "%=",
      "&=", "|=", "^=", "<<=", ">>=", "[", "]"};
  return t.kind == TokKind::kPunct && kBoundary.count(t.text) > 0;
}

void classify(const Token& t, const SymbolTable& symbols, Operand& op) {
  op.empty = false;
  if (t.kind == TokKind::kNumber) op.has_literal = true;
  if (t.kind == TokKind::kString || t.kind == TokKind::kChar) {
    op.has_string = true;
  }
  if (t.kind == TokKind::kIdent && op.double_ident.empty() &&
      symbols.is_double(t.text)) {
    op.double_ident = t.text;
  }
}

Operand left_operand(const std::vector<Token>& toks, std::size_t cmp,
                     const SymbolTable& symbols) {
  Operand op;
  int depth = 0;
  for (std::size_t j = cmp; j > 0; --j) {
    const Token& t = toks[j - 1];
    if (t.pp) continue;
    if (t.kind == TokKind::kPunct) {
      if (t.text == ")") ++depth;
      if (t.text == "(") {
        if (depth == 0) break;
        --depth;
        continue;
      }
      if (depth == 0 && boundary_punct(t)) break;
    }
    if (depth == 0 && (is_ident(t, "return") || is_ident(t, "if") ||
                       is_ident(t, "while"))) {
      break;
    }
    classify(t, symbols, op);
  }
  return op;
}

Operand right_operand(const std::vector<Token>& toks, std::size_t cmp,
                      const SymbolTable& symbols) {
  Operand op;
  int depth = 0;
  for (std::size_t j = cmp + 1; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.pp) continue;
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") ++depth;
      if (t.text == ")") {
        if (depth == 0) break;
        --depth;
        continue;
      }
      if (depth == 0 && boundary_punct(t)) break;
    }
    classify(t, symbols, op);
  }
  return op;
}

void check_r7_double_compare(const FileCtx& ctx, const SymbolTable& symbols,
                             const LintOptions& opts,
                             std::vector<Finding>& out) {
  const auto& toks = ctx.lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.pp || t.kind != TokKind::kPunct ||
        (t.text != "==" && t.text != "!=")) {
      continue;
    }
    if (i > 0 && is_ident(toks[i - 1], "operator")) continue;
    const Operand lhs = left_operand(toks, i, symbols);
    const Operand rhs = right_operand(toks, i, symbols);
    if (lhs.empty || rhs.empty) continue;
    // Comparisons against literals are deliberate sentinels (`x == 0.0`)
    // and stay exempt; string/char comparisons are not FP at all.
    if (lhs.has_literal || rhs.has_literal) continue;
    if (lhs.has_string || rhs.has_string) continue;
    if (lhs.double_ident.empty() || rhs.double_ident.empty()) continue;
    emit(out, ctx, opts, "R7", t, "",
         "exact " + t.text + " between computed double expressions ('" +
             lhs.double_ident + "' vs '" + rhs.double_ident +
             "') is FP-fragile; use sic::bitwise_equal (util/mathx.hpp) "
             "for an intentional bit-exact test or approx_equal for a "
             "tolerance");
  }
}

// ---------------------------------------------------------------------------
// R8 — typed-error policy
// ---------------------------------------------------------------------------

void check_r8(const FileCtx& ctx, const LintOptions& opts,
              std::vector<Finding>& out) {
  const auto& toks = ctx.lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].pp || !is_ident(toks[i], "throw")) continue;
    if (i + 1 >= toks.size()) continue;
    const Token& next = toks[i + 1];
    if (next.kind == TokKind::kString || next.kind == TokKind::kChar) {
      emit(out, ctx, opts, "R8", toks[i], "",
           "throw of a bare string literal; construct a project error type "
           "(TraceIoError, FaultConfigError, MatchingError, CheckError, "
           "UsageError, ...) so callers can catch by category");
      continue;
    }
    std::size_t j = i + 1;
    if (is_ident(toks[j], "std") && j + 2 < toks.size() &&
        is_punct(toks[j + 1], "::")) {
      j += 2;
    }
    if (toks[j].kind == TokKind::kIdent &&
        (toks[j].text == "runtime_error" || toks[j].text == "logic_error")) {
      emit(out, ctx, opts, "R8", toks[i], "",
           "bare std::" + toks[j].text +
               " thrown in src/; construct a project error type "
               "(TraceIoError, FaultConfigError, MatchingError, CheckError, "
               "UsageError, std::out_of_range, ...) so callers can catch by "
               "category");
    }
  }
}

// ---------------------------------------------------------------------------
// R5 — include cycles (cross-file)
// ---------------------------------------------------------------------------

void check_r5_cycles(const std::vector<FileCtx>& files,
                     const LintOptions& opts, std::vector<Finding>& out) {
  if (!opts.rule_enabled("R5")) return;
  // Graph over src-includable keys ("channel/link.hpp"); edges follow the
  // quoted include directives that resolve to another scanned file.
  std::map<std::string, const FileCtx*> by_key;
  for (const FileCtx& f : files) {
    const std::string key = include_key(*f.path);
    if (!key.empty()) by_key.emplace(key, &f);
  }
  std::map<std::string, std::vector<std::pair<std::string, int>>> adj;
  for (const auto& [key, ctx] : by_key) {
    for (const IncludeDirective& inc : ctx->lx.includes) {
      if (!inc.quoted || by_key.count(inc.target) == 0) continue;
      adj[key].push_back({inc.target, inc.line});
    }
  }
  // Iterative DFS, keys in sorted order for deterministic reports.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> chain;
  std::set<std::string> reported;

  struct Frame {
    std::string key;
    std::size_t next = 0;
  };
  for (const auto& [start, unused] : by_key) {
    (void)unused;
    if (color[start] != 0) continue;
    std::vector<Frame> stack;
    stack.push_back(Frame{start, 0});
    color[start] = 1;
    chain.push_back(start);
    while (!stack.empty()) {
      Frame& fr = stack.back();
      const auto& edges = adj[fr.key];
      if (fr.next >= edges.size()) {
        color[fr.key] = 2;
        chain.pop_back();
        stack.pop_back();
        continue;
      }
      const auto [target, line] = edges[fr.next++];
      if (color[target] == 1) {
        // Found a cycle: chain from `target` onward, closed by this edge.
        const auto it = std::find(chain.begin(), chain.end(), target);
        std::string path_text;
        for (auto c = it; c != chain.end(); ++c) {
          path_text += *c + " -> ";
        }
        path_text += target;
        if (reported.insert(path_text).second) {
          const FileCtx* ctx = by_key.at(fr.key);
          Token at;
          at.line = line;
          at.col = 1;
          emit(out, *ctx, opts, "R5", at, target,
               "include cycle: " + path_text +
                   " (header guards hide it from the compiler; break the "
                   "cycle or invert the dependency)");
        }
        continue;
      }
      if (color[target] == 0) {
        color[target] = 1;
        chain.push_back(target);
        stack.push_back(Frame{target, 0});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

bool LintOptions::rule_enabled(std::string_view rule) const {
  // "baseline" findings are R2 bookkeeping and follow R2's selection.
  const std::string_view effective = rule == "baseline" ? "R2" : rule;
  if (!only.empty() &&
      std::find(only.begin(), only.end(), effective) == only.end()) {
    return false;
  }
  return std::find(exclude.begin(), exclude.end(), effective) == exclude.end();
}

namespace {

/// Shared renderer behind sanitize()/comments_only(): paints one channel
/// of the lexed source into a same-size blank buffer, preserving newlines
/// and column positions. String/char literal contents are blanked down to
/// their delimiters in the code channel.
std::string render(std::string_view source, bool keep_code) {
  std::string out(source.size(), ' ');
  for (std::size_t i = 0; i < source.size(); ++i) {
    if (source[i] == '\n') out[i] = '\n';
  }
  const LexedFile lx = lex(source);
  if (keep_code) {
    for (const Token& t : lx.tokens) {
      if (t.kind == TokKind::kString || t.kind == TokKind::kChar) {
        out[t.offset] = source[t.offset];
        if (t.text.size() > 1) {
          const std::size_t last = t.offset + t.text.size() - 1;
          if (last < out.size()) out[last] = source[last];
        }
        continue;
      }
      for (std::size_t k = 0; k < t.text.size(); ++k) {
        if (t.offset + k < out.size()) out[t.offset + k] = source[t.offset + k];
      }
    }
  } else {
    for (const Token& t : lx.comments) {
      for (std::size_t k = 0; k < t.text.size(); ++k) {
        if (t.offset + k < out.size()) out[t.offset + k] = source[t.offset + k];
      }
    }
  }
  return out;
}

}  // namespace

std::string sanitize(std::string_view source) { return render(source, true); }

std::string comments_only(std::string_view source) {
  return render(source, false);
}

std::vector<Finding> lint_tree(const std::vector<FileInput>& files,
                               const LintOptions& options) {
  std::vector<FileCtx> ctxs;
  ctxs.reserve(files.size());
  for (const FileInput& f : files) ctxs.emplace_back(f.path, f.source);

  SymbolTable symbols;
  for (const FileCtx& ctx : ctxs) collect_symbols(ctx.lx, symbols);
  finalize_symbols(symbols);

  std::vector<Finding> out;
  for (const FileCtx& ctx : ctxs) {
    const std::string& path = *ctx.path;
    if (r1_applies(path)) check_r1(ctx, options, out);
    if (r2_applies(path)) check_r2(ctx, options, out);
    if (r3_applies(path)) check_r3(ctx, options, out);
    if (r4_applies(path)) check_r4(ctx, options, out);
    check_r5_back_edges(ctx, options, out);
    check_r6(ctx, options, out);
    if (r7_applies(path)) {
      check_r7_unordered_reduction(ctx, symbols, options, out);
      check_r7_float(ctx, options, out);
      check_r7_double_compare(ctx, symbols, options, out);
    }
    if (r8_applies(path)) check_r8(ctx, options, out);
  }
  check_r5_cycles(ctxs, options, out);

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.path != b.path) return a.path < b.path;
                     if (a.line != b.line) return a.line < b.line;
                     if (a.col != b.col) return a.col < b.col;
                     return a.rule < b.rule;
                   });
  return out;
}

std::vector<Finding> lint_file(const std::string& path,
                               std::string_view source) {
  return lint_tree({FileInput{path, std::string{source}}}, LintOptions{});
}

std::vector<std::string> parse_baseline(std::string_view text) {
  std::vector<std::string> entries;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    std::string line{text.substr(start, nl - start)};
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first != std::string::npos) {
      const std::size_t last = line.find_last_not_of(" \t\r");
      entries.push_back(line.substr(first, last - first + 1));
    }
    start = nl + 1;
  }
  return entries;
}

std::vector<Finding> apply_baseline(std::vector<Finding> findings,
                                    const std::vector<std::string>& baseline,
                                    const std::string& baseline_path) {
  std::unordered_set<std::string> entries(baseline.begin(), baseline.end());
  std::vector<Finding> out;
  out.reserve(findings.size());
  std::unordered_set<std::string> used;
  for (Finding& f : findings) {
    const std::string key = f.path + ":" + f.symbol;
    if (f.rule == "R2" && entries.count(key) > 0) {
      used.insert(key);
      continue;  // accepted debt
    }
    out.push_back(std::move(f));
  }
  for (const std::string& entry : baseline) {
    if (used.count(entry) > 0) continue;
    out.push_back(Finding{
        "baseline", entry, 0, 1, "",
        "stale baseline entry '" + entry + "' in " + baseline_path +
            " (no matching R2 finding); delete that line, or regenerate "
            "with: build/tools/sic_lint --print-baseline $(git ls-files "
            "'src/**/*.hpp')"});
  }
  return out;
}

std::string format_finding(const Finding& finding) {
  std::ostringstream os;
  os << finding.path << ":" << finding.line << ":" << finding.col << ": ["
     << finding.rule << "] " << finding.message;
  return os.str();
}

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string to_json(const std::vector<Finding>& findings,
                    std::size_t files_scanned) {
  std::vector<const Finding*> sorted;
  sorted.reserve(findings.size());
  for (const Finding& f : findings) sorted.push_back(&f);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Finding* a, const Finding* b) {
                     if (a->path != b->path) return a->path < b->path;
                     if (a->line != b->line) return a->line < b->line;
                     if (a->col != b->col) return a->col < b->col;
                     return a->rule < b->rule;
                   });
  std::map<std::string, int> counts;
  for (const Finding& f : findings) ++counts[f.rule];

  std::ostringstream os;
  os << "{\"files_scanned\":" << files_scanned << ",\"counts\":{";
  bool first = true;
  for (const auto& [rule, n] : counts) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(rule) << "\":" << n;
  }
  os << "},\"findings\":[";
  first = true;
  for (const Finding* f : sorted) {
    if (!first) os << ",";
    first = false;
    os << "{\"rule\":\"" << json_escape(f->rule) << "\",\"path\":\""
       << json_escape(f->path) << "\",\"line\":" << f->line
       << ",\"col\":" << f->col << ",\"symbol\":\"" << json_escape(f->symbol)
       << "\",\"message\":\"" << json_escape(f->message) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace sic::lint
