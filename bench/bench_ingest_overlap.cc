// Ingest-path shootout: how edges reach the bulk counter's workers.
//
//   read_then_stream  ReadBinaryEdges materializes the whole file into an
//                     EdgeList, then the counter absorbs it -- the paper's
//                     load-first methodology and the repo's old only path.
//                     I/O strictly precedes processing.
//   file_stream       BinaryFileEdgeStream + StreamEngine: buffered FILE
//                     reads fill the engine's double buffers while the
//                     workers absorb the previous batch (overlap, 1 copy).
//   mmap_stream       MmapEdgeStream + StreamEngine: batches are spans
//                     into the mapping; the producer prefaults the next
//                     batch's pages while workers absorb (overlap, 0 copy).
//
// The counter batches every w edges whatever views a path hands it, so
// the three estimates must agree to the last bit -- the bench doubles as
// the ingest-parity check and exits nonzero on divergence.
//
// The file is written immediately before the runs, so the page cache is
// warm for every mode: the comparison isolates copy overhead and
// ingest/absorb overlap rather than disk latency (io_seconds shows the
// split each path reports). Knobs on top of the standard bench env vars:
//   TRISTREAM_BENCH_INGEST_EDGES  edges in the generated file (default 10M)
//   TRISTREAM_BENCH_R             total estimators         (default 4096)
//   TRISTREAM_BENCH_THREADS      worker threads            (default 4)
//   TRISTREAM_BENCH_BATCH        batch size w (0 = 8r)     (default 0)
//
// Output: human-readable table on stderr, one JSON document on stdout.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/triangle_counter.h"
#include "engine/estimators.h"
#include "engine/stream_engine.h"
#include "gen/erdos_renyi.h"
#include "stream/binary_io.h"
#include "stream/edge_stream.h"
#include "stream/mmap_io.h"

namespace {

using namespace tristream;

struct Measurement {
  std::string mode;
  double median_seconds = 0.0;
  double median_io_seconds = 0.0;
  double meps = 0.0;
  double triangles = 0.0;
};

core::TriangleCounterOptions CounterOptions() {
  core::TriangleCounterOptions options;
  options.num_estimators = bench::EnvU64("TRISTREAM_BENCH_R", 4096);
  options.num_threads = static_cast<std::uint32_t>(
      bench::EnvU64("TRISTREAM_BENCH_THREADS", 4));
  options.batch_size = static_cast<std::size_t>(
      bench::EnvU64("TRISTREAM_BENCH_BATCH", 0));
  options.seed = bench::BenchSeed() * 7919 + 29;
  return options;
}

Measurement RunMode(const std::string& mode, const std::string& path,
                    int trials) {
  std::vector<double> seconds;
  std::vector<double> io_seconds;
  Measurement out;
  out.mode = mode;
  std::uint64_t edges = 0;
  for (int trial = 0; trial < trials; ++trial) {
    engine::TsbEstimator estimator(CounterOptions());
    WallTimer timer;
    if (mode == "read_then_stream") {
      WallTimer io_timer;
      auto loaded = stream::ReadBinaryEdges(path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "FATAL: %s\n", loaded.status().ToString().c_str());
        std::exit(1);
      }
      io_seconds.push_back(io_timer.Seconds());
      estimator.counter().ProcessEdges(loaded->edges());
      estimator.Flush();
      out.triangles = estimator.EstimateTriangles();
    } else {
      std::unique_ptr<stream::EdgeStream> source;
      if (mode == "mmap_stream") {
        auto opened = stream::MmapEdgeStream::Open(path);
        if (!opened.ok()) {
          std::fprintf(stderr, "FATAL: %s\n",
                       opened.status().ToString().c_str());
          std::exit(1);
        }
        source = std::move(*opened);
      } else {
        auto opened = stream::BinaryFileEdgeStream::Open(path);
        if (!opened.ok()) {
          std::fprintf(stderr, "FATAL: %s\n",
                       opened.status().ToString().c_str());
          std::exit(1);
        }
        source = std::move(*opened);
      }
      engine::StreamEngine eng;
      if (Status s = eng.Run(estimator, *source); !s.ok()) {
        std::fprintf(stderr, "FATAL: stream failed mid-read: %s\n",
                     s.ToString().c_str());
        std::exit(1);
      }
      out.triangles = estimator.EstimateTriangles();
      io_seconds.push_back(eng.metrics().io_seconds);
    }
    seconds.push_back(timer.Seconds());
    edges = estimator.edges_processed();
  }
  out.median_seconds = Median(seconds);
  out.median_io_seconds = Median(io_seconds);
  if (out.median_seconds > 0.0) {
    out.meps =
        static_cast<double>(edges) / out.median_seconds / 1e6;
  }
  return out;
}

}  // namespace

int main() {
  const std::uint64_t m =
      bench::EnvU64("TRISTREAM_BENCH_INGEST_EDGES", 10'000'000);
  // Average degree 10 keeps G(n, m) generable at any m.
  const auto n = static_cast<VertexId>(m / 5 + 3);
  const int trials = bench::BenchTrials();

  const char* tmp = std::getenv("TMPDIR");
  const std::string path = std::string(tmp != nullptr ? tmp : "/tmp") +
                           "/tristream_ingest_overlap.tris";

  std::fprintf(stderr, "ingest overlap bench: generating G(n=%u, m=%llu)\n",
               n, static_cast<unsigned long long>(m));
  const auto el = gen::GnmRandom(n, m, bench::BenchSeed());
  if (Status s = stream::WriteBinaryEdges(path, el); !s.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::uint64_t file_bytes = 16 + 8 * m;
  std::fprintf(stderr, "wrote %s (%.1f MiB), trials=%d\n\n", path.c_str(),
               static_cast<double>(file_bytes) / (1 << 20), trials);
  std::fprintf(stderr, "%18s | %10s | %10s | %10s\n", "mode", "seconds",
               "io sec", "Medges/s");

  std::vector<Measurement> results;
  for (const char* mode :
       {"read_then_stream", "file_stream", "mmap_stream"}) {
    results.push_back(RunMode(mode, path, trials));
    const Measurement& r = results.back();
    std::fprintf(stderr, "%18s | %10.4f | %10.4f | %10.2f\n", r.mode.c_str(),
                 r.median_seconds, r.median_io_seconds, r.meps);
  }
  std::remove(path.c_str());

  bool bit_identical = true;
  for (const Measurement& r : results) {
    if (r.triangles != results[0].triangles) bit_identical = false;
  }
  if (!bit_identical) {
    std::fprintf(stderr, "\nERROR: ingest paths produced different "
                         "estimates!\n");
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"ingest_overlap\",\n");
  std::printf("  \"edges\": %llu,\n", static_cast<unsigned long long>(m));
  std::printf("  \"file_bytes\": %llu,\n",
              static_cast<unsigned long long>(file_bytes));
  std::printf("  \"estimators\": %llu,\n",
              static_cast<unsigned long long>(
                  bench::EnvU64("TRISTREAM_BENCH_R", 4096)));
  std::printf("  \"threads\": %llu,\n",
              static_cast<unsigned long long>(
                  bench::EnvU64("TRISTREAM_BENCH_THREADS", 4)));
  std::printf("  \"trials\": %d,\n", trials);
  std::printf("  \"bit_identical\": %s,\n", bit_identical ? "true" : "false");
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& r = results[i];
    std::printf("    {\"mode\": \"%s\", \"seconds\": %.6f, "
                "\"io_seconds\": %.6f, \"meps\": %.4f}%s\n",
                r.mode.c_str(), r.median_seconds, r.median_io_seconds, r.meps,
                i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return bit_identical ? 0 : 1;
}
