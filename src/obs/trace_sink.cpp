#include "obs/trace_sink.hpp"

#include <cstdio>

#include "obs/json_util.hpp"

namespace sic::obs {

namespace {

void append_number(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out += buf;
}

}  // namespace

TraceSink::TraceSink(std::ostream& os) : os_(&os) {
  // JSON Array Format; the spec makes the closing ']' optional so the
  // file stays loadable even if the process dies mid-run.
  *os_ << "[\n";
}

TraceSink::~TraceSink() { flush(); }

void TraceSink::event(char ph, std::string_view name, double ts_us,
                      double dur_us, int tid, const Args& args,
                      bool metadata) {
  std::string line;
  line.reserve(96);
  line += "{\"name\":";
  detail::append_json_string(line, name);
  line += ",\"ph\":\"";
  line += ph;
  line += '"';
  if (!metadata) {
    line += ",\"ts\":";
    append_number(line, ts_us);
  }
  if (ph == 'X') {
    line += ",\"dur\":";
    append_number(line, dur_us);
  }
  if (ph == 'i') line += ",\"s\":\"t\"";
  line += ",\"pid\":0,\"tid\":";
  line += std::to_string(tid);
  if (!args.empty()) {
    line += ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : args) {
      if (!first) line += ',';
      first = false;
      detail::append_json_string(line, key);
      line += ':';
      if (detail::is_json_number(value)) {
        line += value;
      } else {
        detail::append_json_string(line, value);
      }
    }
    line += '}';
  }
  line += "},\n";
  *os_ << line;
  ++events_;
}

void TraceSink::complete(std::string_view name, double ts_us, double dur_us,
                         int tid, const Args& args) {
  event('X', name, ts_us, dur_us, tid, args);
}

void TraceSink::begin(std::string_view name, double ts_us, int tid,
                      const Args& args) {
  event('B', name, ts_us, 0.0, tid, args);
}

void TraceSink::end(std::string_view name, double ts_us, int tid) {
  event('E', name, ts_us, 0.0, tid, {});
}

void TraceSink::instant(std::string_view name, double ts_us, int tid,
                        const Args& args) {
  event('i', name, ts_us, 0.0, tid, args);
}

void TraceSink::name_track(int tid, std::string_view name) {
  event('M', "thread_name", 0.0, 0.0, tid,
        Args{{"name", std::string{name}}}, /*metadata=*/true);
}

void TraceSink::flush() { os_->flush(); }

}  // namespace sic::obs
