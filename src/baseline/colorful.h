// Pagh–Tsourakakis "colorful triangle counting" (paper reference [16]),
// adapted to the adjacency stream as the paper's Sec. 1.2/3.1 discussion
// describes: each vertex gets a hash color in [0, C); only monochromatic
// edges are admitted into a sparsified subgraph G~, whose exact triangle
// count is scaled by C² (a triangle survives iff all three vertices share
// a color, probability 1/C²).
//
// Space is O(m/C) expected (the kept subgraph) -- a different trade-off
// from neighborhood sampling's O(r): the paper notes the bounds are
// incomparable in general, which the comparison bench illustrates.

#ifndef TRISTREAM_BASELINE_COLORFUL_H_
#define TRISTREAM_BASELINE_COLORFUL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/flat_hash_map.h"
#include "util/types.h"

namespace tristream {
namespace baseline {

/// Streaming colorful triangle counter with an incrementally maintained
/// exact count of the sparsified subgraph.
class ColorfulTriangleCounter {
 public:
  struct Options {
    /// Number of colors C; kept fraction of edges ≈ 1/C, variance grows
    /// with C.
    std::uint32_t num_colors = 8;
    std::uint64_t seed = 0xc0104f01ULL;
  };

  explicit ColorfulTriangleCounter(const Options& options);

  void ProcessEdge(const Edge& e);
  void ProcessEdges(std::span<const Edge> edges);

  std::uint64_t edges_processed() const { return edges_processed_; }

  /// Edges admitted into the monochromatic subgraph.
  std::uint64_t edges_kept() const { return kept_edges_; }

  /// Exact triangle count of the kept subgraph (maintained incrementally).
  std::uint64_t SubgraphTriangles() const { return subgraph_triangles_; }

  /// Unbiased estimate C² · τ(G~).
  double EstimateTriangles() const {
    const double c = static_cast<double>(options_.num_colors);
    return c * c * static_cast<double>(subgraph_triangles_);
  }

  /// The hash color of a vertex (exposed for tests).
  std::uint32_t ColorOf(VertexId v) const;

  /// Bytes held by the kept edges and their adjacency lists. The kept
  /// subgraph is an expected 1/C of the stream, so this grows with it.
  /// Walks every adjacency list.
  std::size_t MemoryBytes() const;

 private:
  Options options_;
  std::uint64_t edges_processed_ = 0;
  std::uint64_t kept_edges_ = 0;
  std::uint64_t subgraph_triangles_ = 0;
  FlatHashSet kept_edge_keys_;
  FlatHashMap<std::vector<VertexId>> adjacency_;
};

}  // namespace baseline
}  // namespace tristream

#endif  // TRISTREAM_BASELINE_COLORFUL_H_
