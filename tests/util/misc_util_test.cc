// Tests for status, histogram, timer, and logging.

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"

namespace tristream {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad edge");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad edge");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad edge");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::CorruptData("x").code(), StatusCode::kCorruptData);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
}

TEST(StatusTest, UnavailableToString) {
  EXPECT_EQ(Status::Unavailable("no checkpoint yet").ToString(),
            "Unavailable: no checkpoint yet");
}

Status FailsFast() {
  TRISTREAM_RETURN_IF_ERROR(Status::IoError("disk on fire"));
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsFast().code(), StatusCode::kIoError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<std::string> MakeName(bool good) {
  if (!good) return Status::InvalidArgument("nope");
  return std::string("fine");
}

TEST(ResultTest, FunctionReturnStyle) {
  EXPECT_TRUE(MakeName(true).ok());
  EXPECT_EQ(MakeName(true).value(), "fine");
  EXPECT_FALSE(MakeName(false).ok());
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status QuarterInto(int x, int* out) {
  // Declaration form: the macro introduces the binding.
  TRISTREAM_ASSIGN_OR_RETURN(const int half, HalveEven(x));
  // Assignment form: the macro assigns to an existing lvalue.
  int quarter = -1;
  TRISTREAM_ASSIGN_OR_RETURN(quarter, HalveEven(half));
  *out = quarter;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnUnwrapsValues) {
  int out = 0;
  ASSERT_TRUE(QuarterInto(20, &out).ok());
  EXPECT_EQ(out, 5);
}

TEST(ResultTest, AssignOrReturnPropagatesFirstError) {
  int out = -7;
  const Status s = QuarterInto(9, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, -7);  // never reached the assignment
}

TEST(ResultTest, AssignOrReturnPropagatesSecondError) {
  // 10 halves cleanly to 5, which is odd: the second unwrap fails.
  int out = -7;
  EXPECT_EQ(QuarterInto(10, &out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, -7);
}

Result<std::unique_ptr<int>> MakeBox(int v) {
  return std::make_unique<int>(v);
}

Status UnBox(int* out) {
  // Move-only payloads must move out of the Result, not copy.
  TRISTREAM_ASSIGN_OR_RETURN(std::unique_ptr<int> box, MakeBox(11));
  *out = *box;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMovesValue) {
  int out = 0;
  ASSERT_TRUE(UnBox(&out).ok());
  EXPECT_EQ(out, 11);
}

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, EmptyDefaults) {
  Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.distinct(), 0u);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_EQ(h.MeanValue(), 0.0);
}

TEST(HistogramTest, CountsValues) {
  Histogram h;
  h.Add(3);
  h.Add(3);
  h.Add(5);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.distinct(), 2u);
  EXPECT_EQ(h.CountOf(3), 2u);
  EXPECT_EQ(h.CountOf(5), 1u);
  EXPECT_EQ(h.CountOf(4), 0u);
  EXPECT_EQ(h.max_value(), 5u);
}

TEST(HistogramTest, WeightedAdd) {
  Histogram h;
  h.Add(2, 10);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.CountOf(2), 10u);
}

TEST(HistogramTest, MeanValue) {
  Histogram h;
  h.Add(1, 3);
  h.Add(5, 1);
  EXPECT_DOUBLE_EQ(h.MeanValue(), 2.0);
}

TEST(HistogramTest, SortedAscending) {
  Histogram h;
  h.Add(9);
  h.Add(1);
  h.Add(5);
  const auto rows = h.Sorted();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, 1u);
  EXPECT_EQ(rows[1].first, 5u);
  EXPECT_EQ(rows[2].first, 9u);
}

TEST(HistogramTest, CsvFormat) {
  Histogram h;
  h.Add(2, 7);
  EXPECT_EQ(h.ToCsv(), "value,count\n2,7\n");
}

TEST(HistogramTest, AsciiPlotNonEmpty) {
  Histogram h;
  for (std::uint64_t d = 1; d < 100; ++d) h.Add(d, 10000 / (d * d));
  const std::string plot = h.ToAsciiPlot(40, 8);
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("degree"), std::string::npos);
}

// ----------------------------------------------------------------- Timer

TEST(TimerTest, AccumulatesTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(t.Seconds(), 0.0);
}

TEST(TimerTest, MillisMatchesSeconds) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  t.Pause();
  EXPECT_DOUBLE_EQ(t.Millis(), t.Seconds() * 1e3);
}

TEST(TimerTest, PauseStopsAccumulation) {
  WallTimer t;
  t.Pause();
  const double after_pause = t.Seconds();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_EQ(t.Seconds(), after_pause);
  t.Resume();
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(t.Seconds(), after_pause);
}

TEST(TimerTest, RestartZeroes) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  t.Restart();
  EXPECT_LT(t.Seconds(), 0.05);
}

// --------------------------------------------------------------- Logging

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ TRISTREAM_CHECK(1 == 2) << "impossible"; }, "CHECK failed");
}

TEST(LoggingDeathTest, CheckEqReportsExpression) {
  EXPECT_DEATH({ TRISTREAM_CHECK_EQ(3, 4); }, "CHECK failed");
}

TEST(LoggingTest, CheckPassesSilently) {
  TRISTREAM_CHECK(true);
  TRISTREAM_CHECK_EQ(2, 2);
  TRISTREAM_CHECK_LT(1, 2);
  TRISTREAM_CHECK_LE(2, 2);
  TRISTREAM_CHECK_GT(3, 2);
  TRISTREAM_CHECK_GE(3, 3);
  TRISTREAM_CHECK_NE(1, 2);
}

}  // namespace
}  // namespace tristream
