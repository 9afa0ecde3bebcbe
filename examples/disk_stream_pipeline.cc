// Disk-to-estimate pipeline: the paper's experimental setup end to end.
//
// The paper streams graphs from a laptop hard drive, processes them in
// batches, and reports I/O time separately from compute (Table 3). This
// example writes a graph to the binary edge format, streams it back
// through the one-door ingest front end (stream::OpenEdgeSource sniffs
// the format and memory-maps binary files, so batches reach the counter
// as zero-copy spans), and prints the same accounting: total wall time,
// I/O time, and sustained throughput.

#include <cstdio>
#include <string>

#include "core/triangle_counter.h"
#include "engine/estimators.h"
#include "engine/stream_engine.h"
#include "gen/holme_kim.h"
#include "graph/csr.h"
#include "graph/exact.h"
#include "stream/binary_io.h"
#include "stream/edge_source.h"
#include "stream/edge_stream.h"
#include "util/timer.h"

int main() {
  using namespace tristream;
  std::printf("=== Disk-backed streaming pipeline ===\n\n");

  // Produce a social-graph stand-in and persist it as a binary edge file.
  const auto g = stream::ShuffleStreamOrder(
      gen::HolmeKim(100000, 8, 0.4, 21), 22);
  const std::string path = "/tmp/tristream_example.tris";
  if (Status s = stream::WriteBinaryEdges(path, g); !s.ok()) {
    std::printf("write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu edges to %s\n\n", g.size(), path.c_str());

  // Stream it back: the source serves mmap'd spans, the pipelined counter
  // absorbs each batch while the producer faults in the next one.
  auto opened = stream::OpenEdgeSource(path);
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  stream::EdgeStream& source = **opened;

  core::TriangleCounterOptions options;
  options.num_estimators = 1 << 17;
  options.num_threads = 2;
  options.seed = 23;
  engine::TsbEstimator estimator(options);

  engine::StreamEngine engine;
  // The open can succeed and the stream still die mid-read (truncation,
  // yanked disk): the return status is what separates "estimate of the
  // whole file" from "estimate of a prefix".
  if (Status s = engine.Run(estimator, source); !s.ok()) {
    std::printf("stream failed mid-read: %s\n", s.ToString().c_str());
    return 1;
  }
  const double tau_hat = estimator.EstimateTriangles();
  const double total_s = engine.metrics().total_seconds;
  const double io_s = engine.metrics().io_seconds;

  const auto tau = graph::CountTriangles(graph::Csr::FromEdgeList(g));
  std::printf("triangles exact      : %llu\n",
              static_cast<unsigned long long>(tau));
  std::printf("triangles estimated  : %.0f  (error %.2f%%)\n", tau_hat,
              100.0 * (tau_hat - static_cast<double>(tau)) /
                  static_cast<double>(tau));
  std::printf("total time           : %.3f s\n", total_s);
  std::printf("I/O time             : %.3f s\n", io_s);
  std::printf("compute throughput   : %.2f M edges/s (I/O factored out)\n",
              static_cast<double>(g.size()) / (total_s - io_s) / 1e6);
  std::remove(path.c_str());
  return 0;
}
