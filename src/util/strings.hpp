#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uucs {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields. split("a,,b", ',') -> {a,"",b}.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on any run of ASCII whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// ASCII lower-casing.
std::string to_lower(std::string_view s);

/// Strict full-string parses; nullopt on any trailing garbage or overflow.
/// parse_double accepts exactly what strtod accepts over the trimmed token
/// (a leading '+', hex, inf and nan included) and rejects what strtod
/// flags ERANGE, returning strtod's bits.
std::optional<double> parse_double(std::string_view s);
std::optional<std::int64_t> parse_int(std::string_view s);
std::optional<bool> parse_bool(std::string_view s);  // true/false/1/0/yes/no

/// Appends `v` exactly as printf("%.17g") formats it (17 significant
/// digits, so every double round-trips through parse_double). The
/// kv-text writers all format doubles through this.
void append_double(std::string& out, double v);

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Formats a double compactly: fixed notation, up to `max_decimals`
/// decimals, trailing zeros removed ("1.5", "0.05", "3").
std::string format_compact(double v, int max_decimals = 6);

}  // namespace uucs
