// Chrome-trace sink format tests: JSON-array framing, one event per line,
// required Event Format keys, and arg value typing. A file that passes
// these checks loads in Perfetto / chrome://tracing (the closing bracket
// is optional per the format spec, which is what makes the stream
// crash-safe).

#include "obs/trace_sink.hpp"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/context.hpp"

namespace sic::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is{text};
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(TraceSink, OpensJsonArrayImmediately) {
  std::ostringstream os;
  const TraceSink sink{os};
  EXPECT_EQ(os.str(), "[\n");
}

TEST(TraceSink, EventsAreOneJsonObjectPerLine) {
  std::ostringstream os;
  TraceSink sink{os};
  sink.complete("slot", 10.0, 250.5, 3, {{"mode", "sic"}, {"first", "2"}});
  sink.instant("drop", 300.0, 1);
  sink.begin("round", 0.0, 5);
  sink.end("round", 400.0, 5);
  sink.flush();
  EXPECT_EQ(sink.events_written(), 4u);

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], "[");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    // Every event is a complete object with a trailing comma, so appending
    // "{}]" at any truncation point yields valid JSON.
    EXPECT_EQ(lines[i].front(), '{') << lines[i];
    EXPECT_EQ(lines[i].substr(lines[i].size() - 2), "},") << lines[i];
  }
}

TEST(TraceSink, CompleteEventHasEventFormatKeys) {
  std::ostringstream os;
  TraceSink sink{os};
  sink.complete("data", 12.5, 100.0, 2, {{"dst", "0"}, {"verdict", "sic"}});
  const std::string line = lines_of(os.str()).at(1);
  EXPECT_NE(line.find("\"name\":\"data\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ph\":\"X\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts\":12.5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"dur\":100"), std::string::npos) << line;
  EXPECT_NE(line.find("\"pid\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("\"tid\":2"), std::string::npos) << line;
  // Numeric-looking arg values are emitted as JSON numbers, strings as
  // escaped strings.
  EXPECT_NE(line.find("\"dst\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("\"verdict\":\"sic\""), std::string::npos) << line;
}

TEST(TraceSink, InstantEventIsThreadScoped) {
  std::ostringstream os;
  TraceSink sink{os};
  sink.instant("rate_miss", 55.0, 4);
  const std::string line = lines_of(os.str()).at(1);
  EXPECT_NE(line.find("\"ph\":\"i\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"s\":\"t\""), std::string::npos) << line;
}

TEST(TraceSink, NameTrackEmitsThreadNameMetadata) {
  std::ostringstream os;
  TraceSink sink{os};
  sink.name_track(3, "client 2");
  const std::string line = lines_of(os.str()).at(1);
  EXPECT_NE(line.find("\"name\":\"thread_name\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ph\":\"M\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"tid\":3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"name\":\"client 2\""), std::string::npos) << line;
}

TEST(TraceSink, EscapesStringsInNamesAndArgs) {
  std::ostringstream os;
  TraceSink sink{os};
  sink.instant("say \"hi\"", 1.0, 0, {{"why", "tab\there\\done"}});
  const std::string line = lines_of(os.str()).at(1);
  EXPECT_NE(line.find("say \\\"hi\\\""), std::string::npos) << line;
  // Control characters become \u escapes, backslashes double.
  EXPECT_NE(line.find("tab\\u0009here\\\\done"), std::string::npos) << line;
}

TEST(TraceSink, NonNumericStringsStayStrings) {
  std::ostringstream os;
  TraceSink sink{os};
  // "1e" and "0x10" are not plain JSON numbers; "-2.5e3" is.
  sink.instant("x", 0.0, 0, {{"a", "1e"}, {"b", "0x10"}, {"c", "-2.5e3"}});
  const std::string line = lines_of(os.str()).at(1);
  EXPECT_NE(line.find("\"a\":\"1e\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"b\":\"0x10\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"c\":-2.5e3"), std::string::npos) << line;
}

TEST(TraceSink, GlobalAttachPointRoundTrips) {
  ASSERT_EQ(trace(), nullptr);
  std::ostringstream os;
  TraceSink sink{os};
  {
    const Attach a{Context{.trace = &sink}};
    EXPECT_EQ(trace(), &sink);
  }
  EXPECT_EQ(trace(), nullptr);
}

}  // namespace
}  // namespace sic::obs
