// Unit tests for the CI bench-regression gate: flat-JSON parsing, --pin
// spec parsing, and the directional comparison model (drops vs rises,
// tolerances, missing keys, synthetic perturbation).

#include "gate.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

namespace sic::bench_gate {
namespace {

TEST(ParseFlatJson, ExtractsTopLevelNumbersOnly) {
  const auto m = parse_flat_json(
      "{\"bench\":\"scheduler\",\"samples_per_sec\":12345.5,"
      "\"nested\":{\"x\":1},\"list\":[2,3],\"neg\":-0.25,\"ok\":true}");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.at("samples_per_sec"), 12345.5);
  EXPECT_DOUBLE_EQ(m.at("neg"), -0.25);
  EXPECT_EQ(m.count("bench"), 0u);
  EXPECT_EQ(m.count("nested"), 0u);
}

TEST(ParseFlatJson, ToleratesWhitespaceAndEmptyObject) {
  EXPECT_TRUE(parse_flat_json("  { }\n").empty());
  const auto m = parse_flat_json("\n{ \"a\" : 1 , \"b\" : 2e3 }\n");
  EXPECT_DOUBLE_EQ(m.at("a"), 1.0);
  EXPECT_DOUBLE_EQ(m.at("b"), 2000.0);
}

TEST(ParseFlatJson, ThrowsOnNonObjectAndTruncation) {
  EXPECT_THROW((void)parse_flat_json(""), std::runtime_error);
  EXPECT_THROW((void)parse_flat_json("[1,2]"), std::runtime_error);
  EXPECT_THROW((void)parse_flat_json("{\"a\":1"), std::runtime_error);
  EXPECT_THROW((void)parse_flat_json("{\"a\" 1}"), std::runtime_error);
}

TEST(ParseFlatJson, DuplicateNumericKeyIsATypedErrorNamingTheKey) {
  try {
    (void)parse_flat_json("{\"a\":1,\"epoch_per_sec\":2,\"epoch_per_sec\":3}");
    FAIL() << "duplicate numeric key accepted";
  } catch (const DuplicateKeyError& e) {
    EXPECT_EQ(e.key(), "epoch_per_sec");
    EXPECT_NE(std::string{e.what()}.find("epoch_per_sec"), std::string::npos);
  }
  // Skipped (string-valued) keys may repeat: the spliced deployment
  // summary carries two "bench" tags.
  const auto m = parse_flat_json(
      "{\"bench\":\"deployment\",\"x\":1,\"bench\":\"perf_deployment\",\"y\":2}");
  EXPECT_EQ(m.size(), 2u);
}

TEST(ParsePin, DefaultsAndSuffixes) {
  const Pin plain = parse_pin("samples_per_sec", 0.10);
  EXPECT_EQ(plain.key, "samples_per_sec");
  EXPECT_DOUBLE_EQ(plain.tolerance_frac, 0.10);
  EXPECT_TRUE(plain.higher_is_better);

  const Pin tol = parse_pin("confirmed_frac:2%", 0.10);
  EXPECT_DOUBLE_EQ(tol.tolerance_frac, 0.02);
  EXPECT_TRUE(tol.higher_is_better);

  const Pin lower = parse_pin("recovery_epochs:25%:lower", 0.10);
  EXPECT_DOUBLE_EQ(lower.tolerance_frac, 0.25);
  EXPECT_FALSE(lower.higher_is_better);

  // Order of the suffix parts does not matter.
  const Pin swapped = parse_pin("wall_ms:lower:50%", 0.10);
  EXPECT_DOUBLE_EQ(swapped.tolerance_frac, 0.50);
  EXPECT_FALSE(swapped.higher_is_better);
}

TEST(ParsePin, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_pin("", 0.1), std::runtime_error);
  EXPECT_THROW((void)parse_pin("k:banana", 0.1), std::runtime_error);
  EXPECT_THROW((void)parse_pin("k:-5%", 0.1), std::runtime_error);
}

TEST(RunGate, OnlyRegressingDirectionFails) {
  const std::map<std::string, double> baseline{{"thpt", 100.0},
                                               {"latency", 10.0}};
  // Throughput dropped 20% (fails at 10% tol); latency *improved* 20%
  // (lower-is-better, a drop passes no matter how large).
  const std::map<std::string, double> current{{"thpt", 80.0},
                                              {"latency", 8.0}};
  const auto report = run_gate(
      baseline, current,
      {parse_pin("thpt:10%", 0.1), parse_pin("latency:10%:lower", 0.1)});
  ASSERT_EQ(report.keys.size(), 2u);
  EXPECT_TRUE(report.keys[0].regressed);
  EXPECT_FALSE(report.keys[1].regressed);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.text().find("bench gate: REGRESSION"), std::string::npos);
}

TEST(RunGate, ImprovementsAndInToleranceDriftPass) {
  const std::map<std::string, double> baseline{{"thpt", 100.0}};
  EXPECT_TRUE(run_gate(baseline, {{"thpt", 150.0}},
                       {parse_pin("thpt:10%", 0.1)})
                  .ok());  // big improvement
  EXPECT_TRUE(run_gate(baseline, {{"thpt", 92.0}},
                       {parse_pin("thpt:10%", 0.1)})
                  .ok());  // -8% inside 10%
  EXPECT_FALSE(run_gate(baseline, {{"thpt", 89.0}},
                        {parse_pin("thpt:10%", 0.1)})
                   .ok());  // -11% outside
}

TEST(RunGate, MissingPinnedKeyIsARegression) {
  const std::map<std::string, double> both{{"a", 1.0}};
  const auto gone_current =
      run_gate(both, {}, {parse_pin("a", 0.1)});
  ASSERT_EQ(gone_current.keys.size(), 1u);
  EXPECT_TRUE(gone_current.keys[0].regressed);
  EXPECT_TRUE(gone_current.keys[0].missing_current);
  EXPECT_NE(gone_current.text().find("MISSING"), std::string::npos);

  const auto gone_baseline =
      run_gate({}, both, {parse_pin("a", 0.1)});
  EXPECT_TRUE(gone_baseline.keys[0].missing_baseline);
  EXPECT_FALSE(gone_baseline.ok());
}

TEST(RunGate, PerturbScalesCurrentBeforeComparing) {
  // The CI self-check: real artifacts pass, then the same comparison with
  // --perturb samples_per_sec=0.8 must fail.
  const std::map<std::string, double> baseline{{"samples_per_sec", 1000.0}};
  const std::map<std::string, double> current{{"samples_per_sec", 1010.0}};
  const std::vector<Pin> pins{parse_pin("samples_per_sec:10%", 0.1)};
  EXPECT_TRUE(run_gate(baseline, current, pins).ok());
  const auto perturbed =
      run_gate(baseline, current, pins, {{"samples_per_sec", 0.8}});
  EXPECT_FALSE(perturbed.ok());
  EXPECT_DOUBLE_EQ(perturbed.keys[0].current, 808.0);
}

TEST(RunGate, ZeroBaselineIsChangeOnlyWhenCurrentMoves) {
  const auto same = run_gate({{"k", 0.0}}, {{"k", 0.0}},
                             {parse_pin("k:10%:lower", 0.1)});
  EXPECT_TRUE(same.ok());
  const auto rose = run_gate({{"k", 0.0}}, {{"k", 5.0}},
                             {parse_pin("k:10%:lower", 0.1)});
  EXPECT_FALSE(rose.ok());
}

}  // namespace
}  // namespace sic::bench_gate
