// Differential tests for the kv-text number codecs: append_double against
// snprintf("%.17g"), and parse_double against the strtod parse it replaced
// (kept below as the reference). Every comparison is bit for bit, so the
// sign of zero and NaN payloads count.

#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <string_view>

#include "util/strings.hpp"

namespace uucs {
namespace {

std::string printf_g17(double v) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string codec_g17(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

// parse_double as it was before the from_chars fast path: strtod over a
// NUL-terminated copy of the trimmed token, rejecting ERANGE and any
// unconsumed byte.
std::optional<double> strtod_reference(std::string_view sv) {
  sv = trim(sv);
  if (sv.empty()) return std::nullopt;
  const std::string buf(sv);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

// Same verdict and, when accepted, the same bits.
::testing::AssertionResult parses_like_strtod(const std::string& token) {
  const std::optional<double> want = strtod_reference(token);
  const std::optional<double> got = parse_double(token);
  if (want.has_value() != got.has_value()) {
    return ::testing::AssertionFailure()
           << "'" << token << "': strtod " << (want ? "accepts" : "rejects")
           << ", parse_double " << (got ? "accepts" : "rejects");
  }
  if (want && std::bit_cast<std::uint64_t>(*want) != std::bit_cast<std::uint64_t>(*got)) {
    return ::testing::AssertionFailure()
           << "'" << token << "': strtod " << printf_g17(*want) << ", parse_double "
           << printf_g17(*got);
  }
  return ::testing::AssertionSuccess();
}

TEST(NumberCodec, FormatsSpecialValuesLikePrintf) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             DBL_MIN,
                             -DBL_MIN,
                             DBL_MAX,
                             -DBL_MAX,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             DBL_EPSILON,
                             1.0,
                             0.1,
                             120.0,
                             1e16,
                             1e17,
                             123456789012345678.0,
                             1e-5,
                             1e-4,
                             1e21};
  for (const double v : specials) EXPECT_EQ(codec_g17(v), printf_g17(v)) << printf_g17(v);
}

TEST(NumberCodec, FormatsRandomBitPatternsLikePrintf) {
  std::mt19937_64 rng(20040607);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = std::bit_cast<double>(rng());
    const std::string want = printf_g17(v);
    const std::string got = codec_g17(v);
    if (want != got && ++mismatches <= 5) {
      ADD_FAILURE() << "printf '" << want << "', append_double '" << got << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NumberCodec, AppendsWithoutTouchingThePrefix) {
  std::string out = "x = ";
  append_double(out, 0.25);
  out.push_back(',');
  append_double(out, -3.0);
  EXPECT_EQ(out, "x = 0.25,-3");
}

TEST(NumberCodec, ParsesEdgeTokensLikeStrtod) {
  const std::string long_one = "1" + std::string(799, '0') + "e-799";
  const std::string long_tiny = "0." + std::string(800, '0') + "1";
  const std::string long_huge = std::string(800, '9');
  const std::string long_frac = "0." + std::string(800, '3');
  const std::string long_halfway = "9007199254740993" + std::string(784, '0') + "e-784";
  const std::string tokens[] = {
      "+1", "-1", "0x1p3", "-0x1.8p1", "0X1P-1074", "inf", "-inf", "+inf", "INF",
      "infinity", "Infinity", "nan", "-nan", "NaN", "nan(123)", "nan()", "1e400",
      "-1e400", "1e-400", "-1e-400", "4e-320", "-4e-320", ".5", "-.5", "5.", "5.e3",
      "e5", "E5", ".", "-", "+", "", "   ", "1e", "1e+", "1e-", "1e5x", "1.5.2",
      "--1", "+-1", "0", "-0", "+0", "0.0", "-0.0", "0e999999", "-0e-999999", "00001",
      "  1.5  ", "\t-2.25\n", " 120 ", "1 2", "0.1", "120", "0.10000000000000001",
      "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
      "1.797693134862315807e308", "1.7976931348623158079e308", "-1.7976931348623159e308",
      "2.2250738585072014e-308", "2.2250738585072013e-308", "2.2250738585072012e-308",
      "2.2250738585072011e-308", "2.225073858507201e-308", "-2.2250738585072012e-308",
      "2.2250738585072009e-308", "4.9406564584124654e-324", "2.4703282292062328e-324",
      "2.4703282292062327e-324", "1e-324", "3e-324", "1e308", "1e309", "1e-307",
      "1e-308", "1e-309", "9007199254740993", "9007199254740992.5", long_one, long_tiny,
      long_huge, long_frac, long_halfway};
  for (const auto& token : tokens) EXPECT_TRUE(parses_like_strtod(token));
}

// Random strings of signs, digits, points and exponents, with exponents
// spread over the whole double range and its two edges, where the fast
// path hands over to strtod.
TEST(NumberCodec, ParsesRandomTokensLikeStrtod) {
  std::mt19937_64 rng(1004);
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  const auto digits = [&](std::string& out, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(static_cast<char>('0' + pick(10)));
  };
  std::size_t accepted = 0;
  std::size_t mismatches = 0;
  for (int i = 0; i < 500'000; ++i) {
    std::string token;
    if (pick(8) == 0) token.push_back(' ');
    switch (pick(6)) {
      case 0: token.push_back('-'); break;
      case 1: token.push_back('+'); break;
      default: break;
    }
    // Mostly short mantissas; now and then one far past 17 digits.
    const std::uint64_t int_digits = pick(16) == 0 ? pick(60) : pick(6);
    digits(token, int_digits);
    if (pick(3) != 0) {
      token.push_back('.');
      digits(token, pick(16) == 0 ? pick(60) : pick(18));
    }
    if (pick(4) != 0) {
      token.push_back(pick(2) ? 'e' : 'E');
      const std::uint64_t kind = pick(4);
      if (kind != 0) token.push_back(pick(2) ? '-' : '+');
      std::uint64_t exp = 0;
      switch (pick(4)) {
        case 0: exp = pick(30); break;
        case 1: exp = 290 + pick(50); break;  // the DBL_MIN / DBL_MAX edges
        case 2: exp = 300 + pick(30); break;  // subnormals and underflow
        default: exp = pick(400); break;
      }
      token += std::to_string(exp);
    }
    if (pick(8) == 0) token.push_back('\t');
    const ::testing::AssertionResult same = parses_like_strtod(token);
    if (!same && ++mismatches <= 5) ADD_FAILURE() << same.message();
    if (strtod_reference(token)) ++accepted;
  }
  EXPECT_EQ(mismatches, 0u);
  // The generator must exercise the fast path, not only rejections.
  EXPECT_GT(accepted, 200'000u);
}

TEST(NumberCodec, RoundTripsRandomBitPatterns) {
  std::mt19937_64 rng(7);
  std::size_t mismatches = 0;
  for (int i = 0; i < 200'000; ++i) {
    const double v = std::bit_cast<double>(rng());
    const std::string text = codec_g17(v);
    const ::testing::AssertionResult same = parses_like_strtod(text);
    if (!same && ++mismatches <= 5) ADD_FAILURE() << same.message();
    // Every normal double reads back to its own bits.
    if (std::isnormal(v)) {
      const auto back = parse_double(text);
      if ((!back || std::bit_cast<std::uint64_t>(*back) != std::bit_cast<std::uint64_t>(v)) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << text << " does not read back";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace uucs
