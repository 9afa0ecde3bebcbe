// Shared helpers for core-module tests: the canonical 9-edge test stream
// with hand-computed ground truth, and the estimator-state invariant
// checker used by naive, bulk, and window engines.
//
// The deterministic invariants are the strongest tests in the suite:
// given r1, the counter c is NOT random -- it must equal the exact
// c(r1) = |N(r1)| of Sec. 2 -- and given (r1, r2), has_triangle is also
// deterministic (the closing edge either arrives after r2 or it does not).
// Only the (r1, r2) pair itself is random, and its joint law is pinned
// down by Lemma 3.1; the distribution tests validate that separately.

#ifndef TRISTREAM_TESTS_CORE_CORE_TEST_UTIL_H_
#define TRISTREAM_TESTS_CORE_CORE_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "core/neighborhood_sampler.h"
#include "core/triangle_counter.h"
#include "graph/edge_list.h"
#include "graph/exact.h"
#include "gtest/gtest.h"
#include "util/types.h"

namespace tristream {
namespace core {

/// The canonical hand-analyzed stream:
///   pos : 0     1     2     3     4     5     6     7     8
///   edge: {0,1} {1,2} {0,2} {2,3} {3,4} {2,4} {4,5} {0,4} {1,4}
/// c = [4,4,3,2,4,3,2,1,0], ζ = 23, τ = 5. Triangles (first edge, C):
///   {0,1,2} (e0, 4), {0,1,4} (e0, 4), {1,2,4} (e1, 4), {0,2,4} (e2, 3),
///   {2,3,4} (e3, 2); tangle sum Σ C(t) = 17, γ = 3.4, s = [2,1,1,1,0,...].
inline graph::EdgeList CanonicalStream() {
  graph::EdgeList s;
  s.Add(0, 1);
  s.Add(1, 2);
  s.Add(0, 2);
  s.Add(2, 3);
  s.Add(3, 4);
  s.Add(2, 4);
  s.Add(4, 5);
  s.Add(0, 4);
  s.Add(1, 4);
  return s;
}

/// Exact c values of CanonicalStream() (see header comment).
inline std::vector<std::uint64_t> CanonicalC() {
  return {4, 4, 3, 2, 4, 3, 2, 1, 0};
}

/// Checks every deterministic invariant of a (r1, r2, c, has_triangle)
/// estimator state against the exact stream statistics. `c_exact` must be
/// ComputeStreamOrderStats(stream).c.
inline void ExpectStateInvariants(const graph::EdgeList& stream,
                                  const std::vector<std::uint64_t>& c_exact,
                                  const StreamEdge& r1, const StreamEdge& r2,
                                  std::uint64_t c, bool has_triangle) {
  if (stream.empty()) {
    EXPECT_FALSE(r1.valid());
    return;
  }
  // r1 is a real stream edge at its claimed position.
  ASSERT_TRUE(r1.valid());
  ASSERT_LT(r1.pos, stream.size());
  EXPECT_EQ(stream[static_cast<std::size_t>(r1.pos)], r1.edge);
  // c is exactly |N(r1)|.
  EXPECT_EQ(c, c_exact[static_cast<std::size_t>(r1.pos)])
      << "c mismatch for r1 at position " << r1.pos;
  if (c == 0) {
    EXPECT_FALSE(r2.valid());
    EXPECT_FALSE(has_triangle);
    return;
  }
  // r2 ∈ N(r1): a later stream edge adjacent to r1.
  ASSERT_TRUE(r2.valid());
  ASSERT_LT(r2.pos, stream.size());
  EXPECT_EQ(stream[static_cast<std::size_t>(r2.pos)], r2.edge);
  EXPECT_GT(r2.pos, r1.pos);
  EXPECT_TRUE(r2.edge.Adjacent(r1.edge));
  EXPECT_NE(r2.edge, r1.edge);
  // has_triangle ⇔ the closing edge arrives after r2.
  const Edge closer = ClosingEdge(r1.edge, r2.edge);
  bool closer_after_r2 = false;
  for (std::size_t p = static_cast<std::size_t>(r2.pos) + 1;
       p < stream.size(); ++p) {
    closer_after_r2 |= (stream[p] == closer);
  }
  EXPECT_EQ(has_triangle, closer_after_r2)
      << "triangle flag wrong for r1@" << r1.pos << " r2@" << r2.pos;
}

}  // namespace core
}  // namespace tristream

#endif  // TRISTREAM_TESTS_CORE_CORE_TEST_UTIL_H_
