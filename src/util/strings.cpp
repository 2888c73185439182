#include "util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace uucs {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<double> parse_double(std::string_view sv) {
  sv = trim(sv);
  if (sv.empty()) return std::nullopt;
  // Fast path. std::from_chars and glibc's strtod both round correctly, so
  // where from_chars reads the whole token to zero or to a finite value
  // above DBL_MIN, strtod returns the same bits and flags no ERANGE. The
  // rest takes the strtod path on a NUL-terminated copy: grammar only
  // strtod knows (a leading '+', hex, inf, nan), out-of-range tokens, and
  // results at or below DBL_MIN, where strtod's ERANGE depends on whether
  // the exact value was tiny before rounding.
  double fast = 0.0;
  const char* const last = sv.data() + sv.size();
  const auto [ptr, ec] = std::from_chars(sv.data(), last, fast);
  if (ec == std::errc() && ptr == last &&
      (fast == 0.0 || (std::isfinite(fast) && std::fabs(fast) > DBL_MIN))) {
    return fast;
  }
  std::string buf(sv);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

void append_double(std::string& out, double v) {
  // to_chars with a precision is specified as printf with that precision,
  // so this is "%.17g" without the format parse and the locale lookup.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

std::optional<std::int64_t> parse_int(std::string_view sv) {
  sv = trim(sv);
  if (sv.empty()) return std::nullopt;
  std::int64_t v = 0;
  const auto* first = sv.data();
  const auto* last = sv.data() + sv.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return v;
}

std::optional<bool> parse_bool(std::string_view sv) {
  const std::string s = to_lower(trim(sv));
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  return std::nullopt;
}

std::string strprintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string format_compact(double v, int max_decimals) {
  std::string s = strprintf("%.*f", max_decimals, v);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s == "-0") s = "0";
  return s;
}

}  // namespace uucs
