#include "obs/json_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace sic::obs::detail {

std::string format_double(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  if (v == 0.0) return "0";
  char buf[32];
  // Try increasing precision until the value round-trips.
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_json_string(std::ostream& os, std::string_view text) {
  std::string out;
  append_json_string(out, text);
  os << out;
}

bool is_json_number(std::string_view text) {
  if (text.empty()) return false;
  // strtod alone would also accept hex ("0x10"), "inf" and "nan" — none of
  // which are JSON — so restrict to the plain decimal alphabet first.
  for (const char c : text) {
    const bool plain = (c >= '0' && c <= '9') || c == '+' || c == '-' ||
                       c == '.' || c == 'e' || c == 'E';
    if (!plain) return false;
  }
  char* end = nullptr;
  const std::string owned{text};
  std::strtod(owned.c_str(), &end);
  return end == owned.c_str() + owned.size();
}

}  // namespace sic::obs::detail
