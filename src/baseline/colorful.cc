#include "baseline/colorful.h"

#include "util/rng.h"

namespace tristream {
namespace baseline {

ColorfulTriangleCounter::ColorfulTriangleCounter(const Options& options)
    : options_(options), kept_edge_keys_(1 << 10), adjacency_(1 << 10) {}

std::uint32_t ColorfulTriangleCounter::ColorOf(VertexId v) const {
  // Stateless seeded hash color.
  std::uint64_t x = options_.seed ^ (static_cast<std::uint64_t>(v) + 1);
  x = SplitMix64Next(x);
  return static_cast<std::uint32_t>(x % options_.num_colors);
}

void ColorfulTriangleCounter::ProcessEdge(const Edge& e) {
  ++edges_processed_;
  if (ColorOf(e.u) != ColorOf(e.v)) return;
  if (!kept_edge_keys_.Insert(e.Key())) return;  // duplicate defense
  ++kept_edges_;
  // Count new triangles closed inside the kept subgraph: common neighbors
  // of the endpoints, via the smaller adjacency list. Materialize both
  // slots first -- operator[] may rehash and would invalidate a reference
  // taken before the second lookup.
  adjacency_[e.u];
  adjacency_[e.v];
  std::vector<VertexId>* nu = adjacency_.Find(e.u);
  std::vector<VertexId>* nv = adjacency_.Find(e.v);
  const std::vector<VertexId>& smaller = nu->size() <= nv->size() ? *nu : *nv;
  const VertexId other_end = nu->size() <= nv->size() ? e.v : e.u;
  for (VertexId w : smaller) {
    if (kept_edge_keys_.Contains(Edge(w, other_end).Key())) {
      ++subgraph_triangles_;
    }
  }
  nu->push_back(e.v);
  nv->push_back(e.u);
}

void ColorfulTriangleCounter::ProcessEdges(std::span<const Edge> edges) {
  for (const Edge& e : edges) ProcessEdge(e);
}

std::size_t ColorfulTriangleCounter::MemoryBytes() const {
  std::size_t bytes = kept_edge_keys_.MemoryBytes() + adjacency_.MemoryBytes();
  adjacency_.ForEach(
      [&bytes](std::uint64_t, const std::vector<VertexId>& neighbors) {
        bytes += neighbors.capacity() * sizeof(VertexId);
      });
  return bytes;
}

}  // namespace baseline
}  // namespace tristream
