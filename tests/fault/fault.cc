#include "tests/fault/fault.h"

#include <algorithm>

#include "util/rng.h"

namespace tristream {
namespace fault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kIoError:
      return "io-error";
    case FaultKind::kCorruptData:
      return "corrupt-data";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kConnReset:
      return "conn-reset";
    case FaultKind::kMidFrameCut:
      return "mid-frame-cut";
    case FaultKind::kEnospc:
      return "enospc";
    case FaultKind::kTornRename:
      return "torn-rename";
  }
  return "unknown";
}

FaultSchedule FaultSchedule::FromPoints(std::vector<FaultPoint> points) {
  std::stable_sort(points.begin(), points.end(),
                   [](const FaultPoint& a, const FaultPoint& b) {
                     return a.at < b.at;
                   });
  FaultSchedule schedule;
  schedule.points_ = std::move(points);
  return schedule;
}

FaultSchedule FaultSchedule::Random(std::uint64_t seed, std::size_t count,
                                    std::uint64_t max_at,
                                    std::span<const FaultKind> kinds) {
  std::vector<FaultPoint> points;
  if (count == 0 || max_at == 0 || kinds.empty()) {
    return FromPoints(std::move(points));
  }
  std::uint64_t state = seed;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FaultPoint p;
    p.at = 1 + SplitMix64Next(state) % max_at;
    p.kind = kinds[SplitMix64Next(state) % kinds.size()];
    p.param = p.kind == FaultKind::kStall ? 1 + SplitMix64Next(state) % 50
                                          : SplitMix64Next(state);
    points.push_back(p);
  }
  return FromPoints(std::move(points));
}

const FaultPoint* FaultSchedule::Due(std::uint64_t position) {
  if (next_ >= points_.size() || points_[next_].at > position) {
    return nullptr;
  }
  return &points_[next_++];
}

}  // namespace fault
}  // namespace tristream
