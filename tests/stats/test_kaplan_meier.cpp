#include "stats/kaplan_meier.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace uucs::stats {
namespace {

TEST(KaplanMeier, NoCensoringMatchesEmpiricalCdf) {
  KaplanMeier km;
  for (double l : {1.0, 2.0, 3.0, 4.0}) km.add_event(l);
  EXPECT_DOUBLE_EQ(km.discomfort_probability(0.5), 0.0);
  EXPECT_DOUBLE_EQ(km.discomfort_probability(1.0), 0.25);
  EXPECT_DOUBLE_EQ(km.discomfort_probability(2.5), 0.5);
  EXPECT_DOUBLE_EQ(km.discomfort_probability(10.0), 1.0);
}

TEST(KaplanMeier, TextbookCensoredExample) {
  // Events at 1, 3; censored at 2. Risk sets: at 1 -> 3, at 3 -> 1.
  // S(1) = 2/3; S(3) = 2/3 * 0 = 0.
  KaplanMeier km;
  km.add_event(1.0);
  km.add_censored(2.0);
  km.add_event(3.0);
  EXPECT_NEAR(km.discomfort_probability(1.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(km.discomfort_probability(2.5), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(km.discomfort_probability(3.0), 1.0, 1e-12);
}

TEST(KaplanMeier, CensoredAtEventLevelStaysAtRisk) {
  // Event and censoring at the same level: the censored run counts in the
  // risk set for that event.
  KaplanMeier km;
  km.add_event(2.0);
  km.add_censored(2.0);
  EXPECT_NEAR(km.discomfort_probability(2.0), 0.5, 1e-12);
}

TEST(KaplanMeier, LevelAtProbability) {
  KaplanMeier km;
  for (int i = 1; i <= 10; ++i) km.add_event(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(*km.level_at_probability(0.05), 1.0);
  EXPECT_DOUBLE_EQ(*km.level_at_probability(0.5), 5.0);
  // Heavily censored curve that never reaches 90%.
  KaplanMeier censored;
  censored.add_event(1.0);
  for (int i = 0; i < 9; ++i) censored.add_censored(1.0);
  EXPECT_FALSE(censored.level_at_probability(0.9).has_value());
  EXPECT_THROW(censored.level_at_probability(0.0), uucs::Error);
}

TEST(KaplanMeier, CorrectsDifferentialCensoringBias) {
  // Population thresholds uniform on (0, 10). Group A explores to 10
  // (events observable everywhere); group B censors at 2. The naive pooled
  // CDF under-estimates P(discomfort <= 5); KM recovers it.
  uucs::Rng rng(1);
  KaplanMeier km;
  std::size_t naive_events_le5 = 0, naive_total = 0;
  for (int i = 0; i < 4000; ++i) {
    const double threshold = rng.uniform(0.0, 10.0);
    const bool in_b = i % 2 == 0;
    const double cap = in_b ? 2.0 : 10.0;
    ++naive_total;
    if (threshold <= cap) {
      km.add_event(threshold);
      if (threshold <= 5.0) ++naive_events_le5;
    } else {
      km.add_censored(cap);
    }
  }
  const double naive =
      static_cast<double>(naive_events_le5) / static_cast<double>(naive_total);
  const double corrected = km.discomfort_probability(5.0);
  EXPECT_NEAR(corrected, 0.5, 0.04);  // the truth
  EXPECT_LT(naive, 0.40);             // the biased naive estimate
}

TEST(KaplanMeier, CurveMonotone) {
  uucs::Rng rng(2);
  KaplanMeier km;
  for (int i = 0; i < 500; ++i) {
    const double l = rng.lognormal(0.0, 0.7);
    if (rng.bernoulli(0.3)) {
      km.add_censored(l);
    } else {
      km.add_event(l);
    }
  }
  const auto points = km.curve_points();
  ASSERT_FALSE(points.empty());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].first, points[i - 1].first);
    EXPECT_GE(points[i].second, points[i - 1].second);
  }
  EXPECT_LE(points.back().second, 1.0 + 1e-12);
}

TEST(KaplanMeier, Validation) {
  KaplanMeier km;
  EXPECT_THROW(km.add_event(-1.0), uucs::Error);
  EXPECT_THROW(km.add_censored(-0.5), uucs::Error);
  EXPECT_THROW(km.add_events(-1.0, 3), uucs::Error);
  EXPECT_THROW(km.add_censored(-0.5, 3), uucs::Error);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(km.add_event(nan), uucs::Error);
  EXPECT_THROW(km.add_censored(nan), uucs::Error);
  EXPECT_THROW(km.add_events(nan, 2), uucs::Error);
  EXPECT_THROW(km.add_censored(nan, 2), uucs::Error);
  EXPECT_EQ(km.size(), 0u);
  EXPECT_DOUBLE_EQ(km.discomfort_probability(1.0), 0.0);  // empty: no events
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-for-bit equality of every view the figures read off an estimator.
void expect_same_curve(const KaplanMeier& a, const KaplanMeier& b) {
  EXPECT_EQ(a.event_count(), b.event_count());
  EXPECT_EQ(a.censored_count(), b.censored_count());
  const auto pa = a.curve_points();
  const auto pb = b.curve_points();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(bits(pa[i].first), bits(pb[i].first)) << i;
    EXPECT_EQ(bits(pa[i].second), bits(pb[i].second)) << i;
  }
  for (const double x : {0.0, 0.3, 1.0, 1.7, 2.5, 4.0, 100.0}) {
    EXPECT_EQ(bits(a.discomfort_probability(x)), bits(b.discomfort_probability(x))) << x;
  }
  for (const double q : {0.01, 0.05, 0.25, 0.5, 0.9, 1.0}) {
    const auto la = a.level_at_probability(q);
    const auto lb = b.level_at_probability(q);
    ASSERT_EQ(la.has_value(), lb.has_value()) << q;
    if (la) {
      EXPECT_EQ(bits(*la), bits(*lb)) << q;
    }
  }
}

TEST(KaplanMeier, CountedAddsEqualRepeatedSingleAdds) {
  // Random multiset of (level, event, n), with events and censorings tied
  // at shared levels; inserted once with counts and once run by run, in
  // a different order.
  uucs::Rng rng(3);
  const double levels[] = {0.25, 0.5, 1.0, 1.3, 2.0, 3.5, 7.0};
  KaplanMeier counted;
  KaplanMeier single;
  std::vector<std::pair<double, bool>> runs;
  for (int k = 0; k < 40; ++k) {
    const double level = levels[rng.uniform_int(0, 6)];
    const bool event = rng.bernoulli(0.6);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 50));
    if (event) {
      counted.add_events(level, n);
    } else {
      counted.add_censored(level, n);
    }
    for (std::size_t i = 0; i < n; ++i) runs.emplace_back(level, event);
  }
  for (std::size_t i = runs.size(); i-- > 0;) {
    if (runs[i].second) {
      single.add_event(runs[i].first);
    } else {
      single.add_censored(runs[i].first);
    }
  }
  ASSERT_GT(counted.size(), 0u);
  EXPECT_EQ(counted.size(), runs.size());
  expect_same_curve(counted, single);
}

TEST(KaplanMeier, CountedEventAndCensoringTiedAtOneLevel) {
  // 3 events and 5 censorings at 2.0 after 2 events at 1.0: the censored
  // runs are at risk for the events at 2.0 (risk set 8 there).
  KaplanMeier counted;
  counted.add_censored(2.0, 5);
  counted.add_events(2.0, 3);
  counted.add_events(1.0, 2);
  KaplanMeier single;
  for (int i = 0; i < 2; ++i) single.add_event(1.0);
  for (int i = 0; i < 3; ++i) single.add_event(2.0);
  for (int i = 0; i < 5; ++i) single.add_censored(2.0);
  expect_same_curve(counted, single);
  EXPECT_NEAR(counted.discomfort_probability(1.0), 0.2, 1e-12);
  EXPECT_NEAR(counted.discomfort_probability(2.0), 1.0 - 0.8 * (5.0 / 8.0), 1e-12);
}

TEST(KaplanMeier, ZeroCountIsNoOp) {
  KaplanMeier km;
  km.add_events(1.0, 0);
  km.add_censored(2.0, 0);
  EXPECT_EQ(km.size(), 0u);
  EXPECT_TRUE(km.curve_points().empty());
  km.add_event(1.0);
  km.add_censored(1.0);
  KaplanMeier with_zeros = km;
  with_zeros.add_events(0.5, 0);
  with_zeros.add_censored(0.5, 0);
  with_zeros.add_events(1.0, 0);
  expect_same_curve(with_zeros, km);
}

}  // namespace
}  // namespace uucs::stats
