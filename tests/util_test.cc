// Unit tests for the utility layer: Status/StatusOr, RNG, clock helpers.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/clock.h"
#include "util/rng.h"
#include "util/status.h"

namespace xtc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_FALSE(st.IsRetryable());
}

TEST(StatusTest, FactoryMethodsCarryCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::NotFound("x").message(), "x");
  EXPECT_EQ(Status::InvalidArgument("bad").ToString(),
            "INVALID_ARGUMENT: bad");
  EXPECT_EQ(Status::Internal("boom").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotSupported("no").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::ResourceExhausted("full").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, RetryableClassification) {
  EXPECT_TRUE(Status::Deadlock().IsRetryable());
  EXPECT_TRUE(Status::Deadlock().IsDeadlock());
  EXPECT_TRUE(Status::LockTimeout().IsRetryable());
  EXPECT_TRUE(Status::TxAborted().IsRetryable());
  EXPECT_FALSE(Status::NotFound("x").IsRetryable());
  EXPECT_FALSE(Status::Internal("x").IsRetryable());
}

TEST(StatusOrTest, ValueAndStatusPaths) {
  StatusOr<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  StatusOr<int> bad(Status::NotFound("gone"));
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
}

TEST(StatusOrDeathTest, ValueOfAnErrorFailsLoudly) {
  // value() used to guard with assert(), which vanishes under NDEBUG and
  // left the dereference of an empty std::optional. It must fail loudly
  // in every build.
  StatusOr<int> bad(Status::NotFound("gone"));
  EXPECT_DEATH((void)bad.value(),
               "XTC_CHECK failed.*StatusOr::value\\(\\) on an error status");
  const StatusOr<std::string> const_bad(Status::Internal("broken"));
  EXPECT_DEATH((void)*const_bad, "XTC_CHECK failed.*on an error status");
}

TEST(StatusOrTest, MacrosPropagate) {
  auto inner = []() -> StatusOr<int> { return Status::NotFound("inner"); };
  auto outer = [&]() -> Status {
    XTC_ASSIGN_OR_RETURN(int v, inner());
    (void)v;
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
  auto ok_inner = []() -> StatusOr<int> { return 7; };
  auto ok_outer = [&]() -> StatusOr<int> {
    XTC_ASSIGN_OR_RETURN(int v, ok_inner());
    return v + 1;
  };
  EXPECT_EQ(*ok_outer(), 8);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  // Different seeds diverge immediately (overwhelmingly likely).
  Rng a2(123);
  bool diverged = false;
  for (int i = 0; i < 10; ++i) {
    if (a2.Next() != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, UniformBoundsRespected) {
  Rng rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(31337);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(ClockTest, ConversionHelpers) {
  EXPECT_EQ(ToMillis(Millis(1500)), 1500);
  EXPECT_EQ(ToMicros(Micros(250)), 250);
  EXPECT_EQ(ToMillis(Micros(2500)), 2);
  TimePoint a = Now();
  SleepFor(Millis(5));
  EXPECT_GE(ToMillis(Now() - a), 4);
}

}  // namespace
}  // namespace xtc
