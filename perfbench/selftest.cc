// Self-tests for the benchmark's own arithmetic (arith.h) and span
// bookkeeping (trace.h). run.py runs this before every measurement and
// refuses to report numbers when it fails.

#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

void SelfTime() {
  using perfbench::SelfTimeNs;
  Expect(SelfTimeNs({0, 100}, {}) == 100, "no children: self = duration");
  Expect(SelfTimeNs({0, 100}, {{10, 30}, {50, 60}}) == 70,
         "disjoint children are subtracted");
  Expect(SelfTimeNs({0, 100}, {{10, 40}, {30, 60}}) == 50,
         "overlapping children are counted once");
  Expect(SelfTimeNs({0, 100}, {{10, 40}, {15, 20}}) == 70,
         "a nested child adds nothing");
  Expect(SelfTimeNs({0, 100}, {{-20, 10}, {90, 150}}) == 80,
         "children are clipped to the parent");
  Expect(SelfTimeNs({0, 100}, {{0, 100}}) == 0, "fully covered parent");

  perfbench::Tracer t;
  const int job = t.Open("job", 0, -1);
  t.Close(job, 1000);
  const int a = t.Open("a", 100, job);
  t.Close(a, 400);
  const int b = t.Open("b", 200, a);
  t.Close(b, 300);
  t.Close(t.Open("a", 500, job), 600);
  Expect(t.SelfNs(0, "job") == 600, "tracer: root self time");
  Expect(t.SelfNs(0, "a") == 300, "tracer: self time sums over spans");
  Expect(t.TotalNs(0, "a") == 400 && t.Calls(0, "a") == 2,
         "tracer: totals and call counts");
}

void Percentiles() {
  using perfbench::Percentile;
  using perfbench::PercentileSupported;
  Expect(!PercentileSupported(99, 0.9), "p90 of 99 samples is refused");
  Expect(PercentileSupported(100, 0.9), "p90 of 100 samples is allowed");
  Expect(!PercentileSupported(19, 0.5), "p50 of 19 samples is refused");
  Expect(PercentileSupported(20, 0.5), "p50 of 20 samples is allowed");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  Expect(Percentile(v, 0.9) == 90.0, "nearest-rank p90 of 1..100 is 90");
  Expect(Percentile(v, 0.5) == 50.0, "nearest-rank p50 of 1..100 is 50");
  v.pop_back();
  Expect(std::isnan(Percentile(v, 0.9)), "refused percentile reads NaN");
  Expect(perfbench::Median({3, 1, 2}) == 2.0, "odd median");
  Expect(perfbench::Median({4, 1, 2, 3}) == 2.5, "even median");
}

void AnswerAge() {
  // Frames of 8192 edges every 8.192 ms starting at t = 1 s.
  const perfbench::FrameSchedule s{1000000000, 8192000, 8192};
  std::int64_t age = 0;
  Expect(!perfbench::AnswerAgeNs(s, 0, 2000000000, &age),
         "a reply covering no edge has no age");
  Expect(perfbench::AnswerAgeNs(s, 1, 1010000000, &age) && age == 10000000,
         "edge 0 rides frame 0");
  Expect(perfbench::AnswerAgeNs(s, 8192, 1010000000, &age) && age == 10000000,
         "the last edge of frame 0 still maps to frame 0");
  Expect(perfbench::AnswerAgeNs(s, 8193, 1020000000, &age) &&
             age == 20000000 - 8192000,
         "one edge into frame 1 maps to frame 1's due time");
  Expect(perfbench::AnswerAgeNs(s, 3 * 8192, 1050000000, &age) &&
             age == 50000000 - 2 * 8192000,
         "a batch boundary maps to the frame it closes");
}

}  // namespace

int main() {
  SelfTime();
  Percentiles();
  AnswerAge();
  if (failures == 0) std::fprintf(stderr, "perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
