#include "stats/special.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace uucs::stats {

namespace {

/// Continued fraction for the incomplete beta (Numerical-Recipes style
/// modified Lentz algorithm).
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

// ln Γ(x). std::lgamma also stores the sign of Γ(x) in the global
// `signgam`, a data race when threads compute figures at once; the
// reentrant lgamma_r returns the same value.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  UUCS_CHECK_MSG(a > 0 && b > 0, "incomplete_beta: a,b must be positive");
  UUCS_CHECK_MSG(x >= 0 && x <= 1, "incomplete_beta: x must be in [0,1]");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

double incomplete_gamma_p(double a, double x) {
  UUCS_CHECK_MSG(a > 0 && x >= 0, "incomplete_gamma_p domain");
  if (x == 0.0) return 0.0;
  const double lg = log_gamma(a);
  if (x < a + 1.0) {
    // Series representation.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int n = 0; n < 500; ++n) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 1e-15) break;
    }
    return sum * std::exp(-x + a * std::log(x) - lg);
  }
  // Continued fraction for Q(a,x); P = 1 - Q.
  constexpr double kFpMin = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  const double q = std::exp(-x + a * std::log(x) - lg) * h;
  return 1.0 - q;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_quantile(double p) {
  UUCS_CHECK_MSG(p > 0 && p < 1, "normal_quantile: p must be in (0,1)");
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step using the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double student_t_cdf(double t, double nu) {
  UUCS_CHECK_MSG(nu > 0, "student_t_cdf: nu must be positive");
  if (std::isinf(t)) return t > 0 ? 1.0 : 0.0;
  const double t2 = t * t;
  if (t2 < nu) {
    // Near the median x = nu/(nu+t^2) rounds to 1 and loses t^2; the
    // symmetric form I_{t^2/(nu+t^2)}(1/2, nu/2) keeps full precision there.
    const double x = t2 / (nu + t2);
    const double half_center = 0.5 * incomplete_beta(0.5, nu / 2.0, x);
    return t >= 0 ? 0.5 + half_center : 0.5 - half_center;
  }
  const double x = nu / (nu + t2);
  const double tail = 0.5 * incomplete_beta(nu / 2.0, 0.5, x);
  return t >= 0 ? 1.0 - tail : tail;
}

double student_t_two_sided_p(double t, double nu) {
  UUCS_CHECK_MSG(nu > 0, "student_t_two_sided_p: nu must be positive");
  const double x = nu / (nu + t * t);
  return incomplete_beta(nu / 2.0, 0.5, x);
}

double student_t_quantile(double p, double nu) {
  UUCS_CHECK_MSG(p > 0 && p < 1, "student_t_quantile: p must be in (0,1)");
  // Bracket then bisect; the CDF is strictly increasing.
  double lo = -1.0, hi = 1.0;
  while (student_t_cdf(lo, nu) > p) lo *= 2.0;
  while (student_t_cdf(hi, nu) < p) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (student_t_cdf(mid, nu) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * std::max(1.0, std::fabs(hi))) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace uucs::stats
