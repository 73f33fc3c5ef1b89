#ifndef SICMAC_OBS_JSON_UTIL_HPP
#define SICMAC_OBS_JSON_UTIL_HPP

/// \file json_util.hpp
/// Internal JSON-emission helpers shared by the obs writers (metrics,
/// time-series, flight recorder, trace sink). Every emitter in sic::obs
/// must produce byte-identical output for identical inputs; keeping the
/// number and string formatting in one place is what makes that a single
/// property instead of three.

#include <iosfwd>
#include <string>
#include <string_view>

namespace sic::obs::detail {

/// Shortest round-trip double representation — deterministic for a given
/// value, locale-independent (printf "C" numeric formatting of %.17g is
/// stable for the values we emit; we normalize -0 and non-finites).
/// NaN renders as "null", infinities as "1e999"/"-1e999" so the output
/// stays parseable by permissive JSON readers.
[[nodiscard]] std::string format_double(double v);

/// Appends \p text as a quoted JSON string, escaping quotes, backslashes,
/// and control characters. Instrument/event names are our own dotted
/// identifiers; escaping anyway means a stray name cannot corrupt the
/// document.
void append_json_string(std::string& out, std::string_view text);
void append_json_string(std::ostream& os, std::string_view text);

/// True when \p text is already a self-contained JSON number, so a
/// string-typed value like "7" or "0.05" can be emitted unquoted.
[[nodiscard]] bool is_json_number(std::string_view text);

}  // namespace sic::obs::detail

#endif  // SICMAC_OBS_JSON_UTIL_HPP
