// The benchmark's own arithmetic: span self time, the tail-percentile
// rule, and the answer-age mapping. Pure functions, so selftest.cc can pin
// them without running the system.

#ifndef PERFBENCH_ARITH_H_
#define PERFBENCH_ARITH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// Half-open interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time of `parent`: its duration minus the part of it that the
/// union of `children` covers. Children may overlap one another (an
/// asynchronous query span overlaps frame sends) and may stick out of the
/// parent; only the covered part inside the parent is subtracted.
inline std::int64_t SelfTimeNs(Interval parent, std::vector<Interval> children) {
  const std::int64_t total = std::max<std::int64_t>(parent.end - parent.start, 0);
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t reach = parent.start;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    const std::int64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return total - covered;
}

/// Minimum samples that must lie strictly above a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// True when the nearest-rank `q`-quantile (0 < q < 1) of `n` samples has
/// at least kTailSamples samples beyond it: n - ceil(q * n) >= 10. So p90
/// needs 100 samples and p50 needs 20.
inline bool PercentileSupported(std::size_t n, double q) {
  if (n == 0 || q <= 0.0 || q >= 1.0) return false;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank && n - rank >= kTailSamples;
}

/// Nearest-rank `q`-quantile of `samples`, or NaN when PercentileSupported
/// refuses the sample count.
inline double Percentile(std::vector<double> samples, double q) {
  if (!PercentileSupported(samples.size(), q)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

/// Plain median (mean of the middle pair on an even count); NaN when empty.
/// For the per-run summary of repetitions, where no tail is claimed.
inline double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Open-loop live feed schedule: frame k carries edges
/// [k * frame_edges, (k + 1) * frame_edges) and is due at
/// start_ns + k * frame_interval_ns.
struct FrameSchedule {
  std::int64_t start_ns = 0;
  std::int64_t frame_interval_ns = 0;
  std::uint64_t frame_edges = 1;

  std::int64_t DueNs(std::uint64_t frame) const {
    return start_ns + static_cast<std::int64_t>(frame) * frame_interval_ns;
  }
};

/// Answer age of a reply whose `edges` field says it covers the first
/// `covered_edges` edges of the live stream, arriving at `arrival_ns`:
/// arrival minus the due time of the frame carrying the newest covered
/// edge (index covered_edges - 1). Returns false when the reply covers no
/// edge (nothing to age against).
inline bool AnswerAgeNs(const FrameSchedule& schedule,
                        std::uint64_t covered_edges, std::int64_t arrival_ns,
                        std::int64_t* age_ns) {
  if (covered_edges == 0 || schedule.frame_edges == 0) return false;
  const std::uint64_t frame = (covered_edges - 1) / schedule.frame_edges;
  *age_ns = arrival_ns - schedule.DueNs(frame);
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H_
