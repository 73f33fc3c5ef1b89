/// sic_lint engine tests: every seeded fixture violation is caught by its
/// rule at the expected file:line, clean code stays clean, suppressions and
/// the R2 baseline behave as documented.

#include "lint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace sic::lint {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string{SIC_LINT_FIXTURE_DIR} + "/" + name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in{fixture_path(name), std::ios::binary};
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Finding> lint_fixture(const std::string& name) {
  return lint_file(fixture_path(name), read_fixture(name));
}

bool has_finding(const std::vector<Finding>& findings,
                 const std::string& rule, int line) {
  for (const Finding& f : findings) {
    if (f.rule == rule && f.line == line) return true;
  }
  return false;
}

TEST(SicLint, R1CatchesPowAndLog10AtSeededLines) {
  const auto findings = lint_fixture("r1_pow10.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(has_finding(findings, "R1", 6));   // pow(10, db/10)
  EXPECT_TRUE(has_finding(findings, "R1", 10));  // 10*log10(ratio)
  EXPECT_EQ(findings[0].path, fixture_path("r1_pow10.cpp"));
}

TEST(SicLint, R2CatchesSuffixedDoubleInHeader) {
  const auto findings = lint_fixture("r2_raw_double.hpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R2");
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_EQ(findings[0].symbol, "tx_power_dbm");
}

TEST(SicLint, R3CatchesRandClockAndUnorderedIteration) {
  const auto findings = lint_fixture("r3_determinism.cpp");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_TRUE(has_finding(findings, "R3", 7));   // std::rand
  EXPECT_TRUE(has_finding(findings, "R3", 11));  // system_clock
  EXPECT_TRUE(has_finding(findings, "R3", 17));  // range-for over unordered
}

TEST(SicLint, R4CatchesMutatorsInValuePositions) {
  const auto findings = lint_fixture("r4_impure_observer.cpp");
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_TRUE(has_finding(findings, "R4", 17));  // return ...inc()
  EXPECT_TRUE(has_finding(findings, "R4", 21));  // n = ...inc()
  EXPECT_TRUE(has_finding(findings, "R4", 26));  // consume(...inc())
  EXPECT_TRUE(has_finding(findings, "R4", 30));  // acc += ...inc()
}

TEST(SicLint, R4CatchesTimeSeriesRecordInValuePositions) {
  const auto findings = lint_fixture("r4_impure_timeseries.cpp");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_TRUE(has_finding(findings, "R4", 17));  // return ...record()
  EXPECT_TRUE(has_finding(findings, "R4", 21));  // e = ...record()
  EXPECT_TRUE(has_finding(findings, "R4", 26));  // consume(...record())
}

TEST(SicLint, R3StaysHotOnNaiveSpatialIndex) {
  // The shipped SpatialGridIndex is deterministic by construction (flat CSR
  // arrays, canonical order) and lints clean; this fixture pins that the
  // hash-bucketed alternative would NOT get past R3.
  const auto findings = lint_fixture("r3_spatial_index.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(has_finding(findings, "R3", 18));  // range-for over cells
  // The membership lookup (find != end) and the CSR struct stay clean.
}

TEST(SicLint, R3ExemptsEndInMembershipComparisons) {
  const std::string src =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "bool has(int k) { return m.find(k) != m.end(); }\n"
      "bool has2(int k) {\n"
      "  const auto it = m.find(k);\n"
      "  return it != m.end() && it->second > 0;\n"
      "}\n"
      "bool has3(int k) { return m.end() == m.find(k); }\n"
      "auto first() { return m.begin(); }\n";
  const auto findings = lint_file("src/core/foo.cpp", src);
  ASSERT_EQ(findings.size(), 1u);  // only the begin() on line 9
  EXPECT_EQ(findings[0].rule, "R3");
  EXPECT_EQ(findings[0].line, 9);
}

TEST(SicLint, CleanFixtureHasNoFindings) {
  EXPECT_TRUE(lint_fixture("clean.cpp").empty());
}

TEST(SicLint, SuppressionsCoverSameLinePrecedingLineAndLists) {
  const auto findings = lint_fixture("suppressed.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R1");
  EXPECT_EQ(findings[0].line, 18);  // allow(R2) does not silence R1
}

TEST(SicLint, SanitizePreservesLinesAndBlanksLiterals) {
  const std::string src =
      "int a; // pow(10, x/10)\n"
      "const char* s = \"log10(\";\n"
      "/* system_clock */ int b;\n";
  const std::string out = sanitize(src);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(out.size(), src.size());
  EXPECT_EQ(out.find("pow"), std::string::npos);
  EXPECT_EQ(out.find("log10"), std::string::npos);
  EXPECT_EQ(out.find("system_clock"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(SicLint, SanitizeHandlesDigitSeparatorsAndRawStrings) {
  const std::string src =
      "constexpr double c = 299'792'458.0;\n"
      "const char* re = R\"(\\blog10\\s*\\()\";\n";
  const std::string out = sanitize(src);
  EXPECT_NE(out.find("299'792'458.0"), std::string::npos);
  EXPECT_EQ(out.find("log10"), std::string::npos);
}

TEST(SicLint, SanitizeHandlesEncodingPrefixedRawStrings) {
  // An unescaped quote + backslash inside the raw string would desync an
  // ordinary-string scanner; the u8/u/U/L prefixes must enter raw mode.
  const std::string src =
      "const char8_t* a = u8R\"(log10( \" \\)\";\n"
      "const char16_t* b = uR\"(pow(10, \" )\";\n"
      "const wchar_t* w = LR\"(system_clock \" )\";\n"
      "int after = 1;\n";
  const std::string out = sanitize(src);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_EQ(out.find("log10"), std::string::npos);
  EXPECT_EQ(out.find("pow"), std::string::npos);
  EXPECT_EQ(out.find("system_clock"), std::string::npos);
  EXPECT_NE(out.find("int after = 1;"), std::string::npos);
}

TEST(SicLint, CommentsOnlyKeepsCommentsAndBlanksCodeAndLiterals) {
  const std::string src =
      "int x = 1; // trailing note\n"
      "const char* s = \"sic-lint: allow(R1)\";\n"
      "/* block */ int y = 2;\n";
  const std::string out = comments_only(src);
  EXPECT_EQ(out.size(), src.size());
  EXPECT_NE(out.find("// trailing note"), std::string::npos);
  EXPECT_NE(out.find("/* block */"), std::string::npos);
  EXPECT_EQ(out.find("int x"), std::string::npos);
  EXPECT_EQ(out.find("allow"), std::string::npos);
}

TEST(SicLint, SuppressionInsideStringLiteralDoesNotSuppress) {
  // The marker in a string literal on the violating line (line 2) and on a
  // literal-only line above a violation (lines 3-4) must both stay inert;
  // a real trailing comment (line 5) still suppresses.
  const std::string src =
      "#include <cmath>\n"
      "double f(double db) { const char* m = \"sic-lint: allow(R1)\"; "
      "return std::pow(10.0, db / 10.0); }\n"
      "const char* only = \"// sic-lint: allow(R1)\";\n"
      "double g(double db) { return std::pow(10.0, db / 10.0); }\n"
      "double h(double db) { return std::pow(10.0, db / 10.0); }  "
      "// sic-lint: allow(R1)\n";
  const auto findings = lint_file("src/core/foo.cpp", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(has_finding(findings, "R1", 2));
  EXPECT_TRUE(has_finding(findings, "R1", 4));
}

TEST(SicLint, UnitsHeaderIsExemptFromR1) {
  const std::string src = "inline double f(double x) { return log10(x); }\n";
  EXPECT_TRUE(lint_file("src/util/units.hpp", src).empty());
  EXPECT_FALSE(lint_file("src/core/foo.cpp", src).empty());
}

TEST(SicLint, ObsAndBenchArePathExemptFromR3) {
  const std::string src = "auto t = std::chrono::system_clock::now();\n";
  EXPECT_TRUE(lint_file("src/obs/scoped_timer.cpp", src).empty());
  EXPECT_TRUE(lint_file("bench/bench_util.hpp", src).empty());
  EXPECT_FALSE(lint_file("src/mac/upload_sim.cpp", src).empty());
}

TEST(SicLint, BaselineSuppressesListedR2AndFlagsStaleEntries) {
  std::vector<Finding> findings;
  findings.push_back(Finding{"R2", "src/a.hpp", 3, 1, "tx_dbm", "msg"});
  findings.push_back(Finding{"R2", "src/b.hpp", 9, 1, "loss_db", "msg"});

  const auto baseline = parse_baseline(
      "# comment\n"
      "src/a.hpp:tx_dbm\n"
      "\n"
      "src/gone.hpp:old_mw  # trailing comment\n");
  ASSERT_EQ(baseline.size(), 2u);

  const auto out =
      apply_baseline(findings, baseline, "tools/sic_lint/r2_baseline.txt");
  ASSERT_EQ(out.size(), 2u);
  // The unbaselined finding survives; the stale entry becomes an error
  // that names the baseline file and the regeneration command.
  EXPECT_EQ(out[0].rule, "R2");
  EXPECT_EQ(out[0].symbol, "loss_db");
  EXPECT_EQ(out[1].rule, "baseline");
  EXPECT_EQ(out[1].path, "src/gone.hpp:old_mw");
  EXPECT_NE(out[1].message.find("tools/sic_lint/r2_baseline.txt"),
            std::string::npos);
  EXPECT_NE(out[1].message.find("--print-baseline"), std::string::npos);
}

TEST(SicLint, FormatFindingIsPathLineColRuleMessage) {
  const Finding f{"R1", "src/x.cpp", 42, 7, "", "boom"};
  EXPECT_EQ(format_finding(f), "src/x.cpp:42:7: [R1] boom");
}

// ---------------------------------------------------------------------------
// Lexer regressions (satellite 1)
// ---------------------------------------------------------------------------

TEST(SicLint, LineContinuationKeepsNextLineInsideComment) {
  // The backslash-newline splice keeps the pow() on the continued line
  // inside the // comment; only the real call on line 11 fires.
  const auto findings = lint_fixture("lexer_line_continuation.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R1");
  EXPECT_EQ(findings[0].line, 11);
}

TEST(SicLint, DigitSeparatorsDoNotOpenCharLiterals) {
  // 1'000'000 must lex as one number: a desynced scanner would leak the
  // log10( inside the string literal into the code channel.
  EXPECT_TRUE(lint_fixture("lexer_digit_separators.cpp").empty());
}

// ---------------------------------------------------------------------------
// R5 — include-layer DAG
// ---------------------------------------------------------------------------

TEST(SicLint, R5CatchesLayerBackEdgeAtSeededLine) {
  const auto findings = lint_fixture("r5/src/channel/bad_layer.hpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R5");
  EXPECT_EQ(findings[0].line, 6);  // channel -> mac back-edge
  EXPECT_NE(findings[0].message.find("mac/frame.hpp"), std::string::npos);
  EXPECT_NE(findings[0].message.find("back-edge"), std::string::npos);
}

TEST(SicLint, R5AllowsDownwardAndSameLayerIncludes) {
  const std::string src =
      "#include \"util/units.hpp\"\n"
      "#include \"mac/frame.hpp\"\n"
      "#include <vector>\n";
  EXPECT_TRUE(lint_file("src/mac/association.cpp", src).empty());
  // Consumers outside src/ may include any layer.
  EXPECT_TRUE(lint_file("tests/some_test.cpp", src).empty());
  EXPECT_TRUE(lint_file("bench/bench_pairing.cpp", src).empty());
}

TEST(SicLint, R5KeepsTestSupportOutOfTheLibrary) {
  const std::string src =
      "#include \"matching/graph.hpp\"\n"
      "#include \"support/blossom_reference.hpp\"\n";
  for (const char* path : {"src/matching/blossom.cpp", "src/sicmac.hpp"}) {
    const auto findings = lint_file(path, src);
    ASSERT_EQ(findings.size(), 1u) << path;
    EXPECT_EQ(findings[0].rule, "R5");
    EXPECT_EQ(findings[0].line, 2);
    EXPECT_NE(findings[0].message.find("test-support"), std::string::npos);
  }
  // Tests are where the reference implementations belong.
  EXPECT_TRUE(lint_file("tests/matching_dense_identity_test.cpp", src).empty());
}

TEST(SicLint, R5CycleDetectionPrintsFullPath) {
  // The cycle spans three same-layer headers, so no back-edge fires — only
  // the cross-file cycle analysis can reject it.
  std::vector<FileInput> files;
  files.push_back({"src/core/a.hpp", "#include \"core/b.hpp\"\n"});
  files.push_back({"src/core/b.hpp", "#include \"core/c.hpp\"\n"});
  files.push_back({"src/core/c.hpp", "#include \"core/a.hpp\"\n"});
  const auto findings = lint_tree(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R5");
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find(
                "core/a.hpp -> core/b.hpp -> core/c.hpp -> core/a.hpp"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// R6 — RNG substream discipline
// ---------------------------------------------------------------------------

TEST(SicLint, R6CatchesLoopRngConstructionAndForkInParallelTu) {
  const auto findings = lint_fixture("r6_rng_loop.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(has_finding(findings, "R6", 18));  // Rng rng(seed + i) in loop
  EXPECT_TRUE(has_finding(findings, "R6", 23));  // outer.fork() in loop
  // Rng::at(seed, i) in the third loop and the top-of-function Rng stay
  // clean.
}

TEST(SicLint, R6IgnoresSerialTranslationUnits) {
  // Same loop-local construction, but no ParallelRunner/parallel_for in
  // the TU: iteration order is the program order, so fork() is fine.
  const std::string src =
      "struct Rng { explicit Rng(unsigned long); Rng fork(); };\n"
      "void run(unsigned long seed, int n) {\n"
      "  for (int i = 0; i < n; ++i) { Rng rng(seed); (void)rng; }\n"
      "}\n";
  EXPECT_TRUE(lint_file("src/analysis/serial.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// R7 — FP determinism
// ---------------------------------------------------------------------------

TEST(SicLint, R7CatchesFloatReductionAndDoubleCompare) {
  const auto findings = lint_fixture("r7_fp_determinism.cpp");
  std::vector<Finding> r7;
  for (const Finding& f : findings) {
    if (f.rule == "R7") r7.push_back(f);
  }
  ASSERT_EQ(r7.size(), 4u);
  EXPECT_TRUE(has_finding(r7, "R7", 4));   // float (return type + param)
  EXPECT_TRUE(has_finding(r7, "R7", 9));   // double += over unordered
  EXPECT_TRUE(has_finding(r7, "R7", 15));  // prev_mw == next_mw
  // The iteration itself is R3's finding, not R7's.
  EXPECT_TRUE(has_finding(findings, "R3", 8));
  // prev_mw == 0.0 on line 19 is a literal sentinel: clean.
  EXPECT_FALSE(has_finding(r7, "R7", 19));
}

TEST(SicLint, R7IntegerReductionOverUnorderedIsNotFlagged) {
  // Integer accumulation is associative; only R3 objects to the iteration.
  const std::string src =
      "#include <unordered_map>\n"
      "int f(const std::unordered_map<int, int>& m) {\n"
      "  int total = 0;\n"
      "  for (const auto& kv : m) total += kv.second;\n"
      "  return total;\n"
      "}\n";
  const auto findings = lint_file("src/core/foo.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R3");
}

TEST(SicLint, R7DoubleCompareUsesTreeWideSymbolTable) {
  // The doubles are declared in one file and compared in another: the
  // symbol table must span the whole lint_tree() input.
  std::vector<FileInput> files;
  files.push_back({"src/core/decl.hpp",
                   "struct Plan { double airtime_share = 0.0; };\n"});
  files.push_back({"src/core/use.cpp",
                   "#include \"core/decl.hpp\"\n"
                   "bool same(const Plan& a, const Plan& b) {\n"
                   "  return a.airtime_share == b.airtime_share;\n"
                   "}\n"});
  const auto findings = lint_tree(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R7");
  EXPECT_EQ(findings[0].path, "src/core/use.cpp");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(SicLint, R7AmbiguouslyTypedNamesAreNotFlagged) {
  // `score` is double in one declaration and int in another: the rule
  // must drop it rather than guess.
  const std::string src =
      "double score = 0.0;\n"
      "int score2(int score) { return score; }\n"
      "bool f(int a_score, int b_score) { return a_score == b_score; }\n"
      "bool g(double x) { double score = x; int other = 1; (void)score;\n"
      "  return other == other; }\n";
  const std::string src2 = "int score = 1;\n";
  std::vector<FileInput> files;
  files.push_back({"src/core/one.cpp", src});
  files.push_back({"src/core/two.cpp", src2});
  EXPECT_TRUE(lint_tree(files).empty());
}

// ---------------------------------------------------------------------------
// R8 — typed-error policy
// ---------------------------------------------------------------------------

TEST(SicLint, R8CatchesBareStandardExceptionsAndStringThrows) {
  const auto findings = lint_fixture("r8_bare_throw.cpp");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_TRUE(has_finding(findings, "R8", 10));  // std::runtime_error
  EXPECT_TRUE(has_finding(findings, "R8", 14));  // std::logic_error
  EXPECT_TRUE(has_finding(findings, "R8", 18));  // throw "boom"
  // throw TraceIoError(...) on line 22 is the sanctioned form.
}

TEST(SicLint, R8OnlyGovernsSrc) {
  const std::string src =
      "#include <stdexcept>\n"
      "void f() { throw std::runtime_error(\"cli usage\"); }\n";
  EXPECT_FALSE(lint_file("src/trace/io.cpp", src).empty());
  EXPECT_TRUE(lint_file("tools/bench_gate/main.cpp", src).empty());
  EXPECT_TRUE(lint_file("tests/foo_test.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// Options + JSON (satellite 2)
// ---------------------------------------------------------------------------

TEST(SicLint, OnlyAndExcludeFilterRules) {
  LintOptions only_r1;
  only_r1.only = {"R1"};
  LintOptions no_r1;
  no_r1.exclude = {"R1"};

  std::vector<FileInput> files;
  files.push_back(
      {fixture_path("r1_pow10.cpp"), read_fixture("r1_pow10.cpp")});
  files.push_back(
      {fixture_path("r8_bare_throw.cpp"), read_fixture("r8_bare_throw.cpp")});

  const auto only_findings = lint_tree(files, only_r1);
  ASSERT_EQ(only_findings.size(), 2u);
  EXPECT_EQ(only_findings[0].rule, "R1");
  EXPECT_EQ(only_findings[1].rule, "R1");

  const auto excl_findings = lint_tree(files, no_r1);
  ASSERT_EQ(excl_findings.size(), 3u);
  for (const Finding& f : excl_findings) EXPECT_EQ(f.rule, "R8");
}

TEST(SicLint, JsonOutputIsDeterministicAndSorted) {
  std::vector<Finding> findings;
  findings.push_back(Finding{"R3", "src/b.cpp", 2, 5, "", "later file"});
  findings.push_back(Finding{"R1", "src/a.cpp", 9, 1, "", "later line"});
  findings.push_back(Finding{"R7", "src/a.cpp", 3, 8, "", "later col"});
  findings.push_back(Finding{"R3", "src/a.cpp", 3, 2, "x", "first \"q\""});

  const std::string json = to_json(findings, 4);
  // Sorted by (path, line, col, rule) regardless of input order.
  const auto p1 = json.find("first");
  const auto p2 = json.find("later col");
  const auto p3 = json.find("later line");
  const auto p4 = json.find("later file");
  ASSERT_NE(p1, std::string::npos);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_LT(p3, p4);
  EXPECT_NE(json.find("\"files_scanned\":4"), std::string::npos);
  EXPECT_NE(json.find("\"R1\":1"), std::string::npos);
  EXPECT_NE(json.find("\"R3\":2"), std::string::npos);
  EXPECT_NE(json.find("\\\"q\\\""), std::string::npos);  // escaping

  // Byte-identical across runs and input orders.
  std::reverse(findings.begin(), findings.end());
  EXPECT_EQ(json, to_json(findings, 4));
}

}  // namespace
}  // namespace sic::lint
