// Golden values for the StreamingEstimator contract of every algorithm
// MakeEstimator builds. The parity suites compare two runs of one build;
// this one pins what each adapter *reports*: its name and capabilities,
// its preferred batch, its checkpoint fingerprint (a changed fingerprint
// orphans every snapshot already on disk), whether a mid-batch estimate
// read would perturb it, the estimate bits, its serialized state, and
// that Reset() empties it. The rows were recorded before the adapters
// were folded into one template; never re-record them to make a refactor
// pass -- a mismatch means an adapter's contract changed.
//
// Covered: all eight algorithms at two configurations (one thread with
// the default batch, three threads with batch 777), each fed a Holme-Kim
// stream whose length is not a multiple of 777, so the bulk counter is
// mid-batch when the row is read. tsb is the bulk counter on worker
// threads under another name: its rows differ from bulk's only in the
// name and the fingerprint. A further row pins the counter's estimates
// read mid-stream on two workers, at a point that is not a batch
// multiple, and after the stream continues. On a mismatch the test
// prints the row to paste.

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "ckpt/serial.h"
#include "core/triangle_counter.h"
#include "engine/estimators.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gtest/gtest.h"
#include "stream/edge_stream.h"

namespace tristream {
namespace engine {
namespace {

constexpr VertexId kVertices = 200;

std::string Hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, x);
  return buf;
}

std::string Bits(double x) { return Hex(std::bit_cast<std::uint64_t>(x)); }

// FNV-1a over bytes.
std::uint64_t HashBytes(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

EstimatorConfig Config(std::uint32_t threads, std::size_t batch) {
  EstimatorConfig config;
  config.num_estimators = 3000;
  config.seed = 0xc0de;
  config.num_threads = threads;
  config.batch_size = batch;
  config.window_size = 1500;
  config.num_vertices = kVertices;
  config.max_degree_bound = 24;
  return config;
}

/// One row: every contract read, in the order the test makes them.
std::string ContractRow(const std::string& algo, const EstimatorConfig& config,
                        std::span<const Edge> edges) {
  auto made = MakeEstimator(algo, config);
  EXPECT_TRUE(made.ok()) << made.status();
  StreamingEstimator& est = **made;
  std::string row = std::string(est.name()) +
                    " del=" + std::to_string(est.supports_deletions()) +
                    " wedge=" + std::to_string(est.has_wedge_estimates()) +
                    " batch=" + std::to_string(est.preferred_batch_size()) +
                    " ckpt=" + std::to_string(est.checkpointable()) +
                    " fp=" + Hex(est.config_fingerprint());
  // Engine-shaped pulls: chunks of the preferred batch (or 1000).
  const std::size_t chunk =
      est.preferred_batch_size() != 0 ? est.preferred_batch_size() : 1000;
  for (std::size_t off = 0; off < edges.size(); off += chunk) {
    est.ProcessEdges(edges.subspan(off, std::min(chunk, edges.size() - off)));
  }
  row += " nonperturbing=" + std::to_string(est.estimates_nonperturbing()) +
         " edges=" + std::to_string(est.edges_processed());
  // State before the estimate reads: those flush a pending batch.
  ckpt::ByteSink sink;
  const Status saved = est.SaveState(sink);
  row += std::string(" save=") + StatusCodeToken(saved.code()) + ":" +
         Hex(HashBytes(sink.data()));
  row += " tri=" + Bits(est.EstimateTriangles()) +
         " wedges=" + Bits(est.EstimateWedges()) +
         " kappa=" + Bits(est.EstimateTransitivity());
  est.Reset();
  row += " reset_edges=" + std::to_string(est.edges_processed());
  return row;
}

struct ContractGolden {
  const char* algo;
  std::uint32_t threads;
  std::size_t batch;
  const char* row;
};

constexpr ContractGolden kContractGoldens[] = {
    {"tsb", 1, 0,
     "tsb del=0 wedge=1 batch=24000 ckpt=1 fp=52b9d2c53fdc044c"
     " nonperturbing=0 edges=1564 save=OK:ac37d5bcf9e44bac"
     " tri=40a3269e60f04c75 wedges=40e11f6f92c5f92c"
     " kappa=3fcad7b521a7b265 reset_edges=0"},
    {"tsb", 3, 777,
     "tsb del=0 wedge=1 batch=777 ckpt=1 fp=e4d9fa8fc544e0c3"
     " nonperturbing=0 edges=1564 save=OK:52ded82a730332ec"
     " tri=40a6fff04c756b2e wedges=40e09b3671529a48"
     " kappa=3fd09eba01fa5157 reset_edges=0"},
    {"bulk", 1, 0,
     "bulk del=0 wedge=1 batch=24000 ckpt=1 fp=481c1a6cf6a1253d"
     " nonperturbing=0 edges=1564 save=OK:ac37d5bcf9e44bac"
     " tri=40a3269e60f04c75 wedges=40e11f6f92c5f92c"
     " kappa=3fcad7b521a7b265 reset_edges=0"},
    {"bulk", 3, 777,
     "bulk del=0 wedge=1 batch=777 ckpt=1 fp=9029c6ec881c11fa"
     " nonperturbing=0 edges=1564 save=OK:52ded82a730332ec"
     " tri=40a6fff04c756b2e wedges=40e09b3671529a48"
     " kappa=3fd09eba01fa5157 reset_edges=0"},
    {"window", 1, 0,
     "window del=0 wedge=1 batch=4096 ckpt=1 fp=24f6232b936abc87"
     " nonperturbing=1 edges=1564 save=OK:7e5a953b6ea60974"
     " tri=40a1ff0000000000 wedges=40dc19e000000000"
     " kappa=3fcebd4ec60fd3a9 reset_edges=0"},
    {"window", 3, 777,
     "window del=0 wedge=1 batch=4096 ckpt=1 fp=24f6232b936abc87"
     " nonperturbing=1 edges=1564 save=OK:7e5a953b6ea60974"
     " tri=40a1ff0000000000 wedges=40dc19e000000000"
     " kappa=3fcebd4ec60fd3a9 reset_edges=0"},
    {"dynamic", 1, 0,
     "dynamic del=1 wedge=0 batch=4096 ckpt=1 fp=95388c364b60a5f1"
     " nonperturbing=1 edges=1564 save=OK:89c96bf7af717ad6"
     " tri=40a4ad0000000000 wedges=0000000000000000"
     " kappa=0000000000000000 reset_edges=0"},
    {"dynamic", 3, 777,
     "dynamic del=1 wedge=0 batch=4096 ckpt=1 fp=95388c364b60a5f1"
     " nonperturbing=1 edges=1564 save=OK:89c96bf7af717ad6"
     " tri=40a4ad0000000000 wedges=0000000000000000"
     " kappa=0000000000000000 reset_edges=0"},
    {"buriol", 1, 0,
     "buriol del=0 wedge=0 batch=0 ckpt=0 fp=0000000000000000"
     " nonperturbing=1 edges=1564 save=FAILED_PRECONDITION:cbf29ce484222325"
     " tri=40aae1999999999a wedges=0000000000000000"
     " kappa=0000000000000000 reset_edges=0"},
    {"buriol", 3, 777,
     "buriol del=0 wedge=0 batch=0 ckpt=0 fp=0000000000000000"
     " nonperturbing=1 edges=1564 save=FAILED_PRECONDITION:cbf29ce484222325"
     " tri=40aae1999999999a wedges=0000000000000000"
     " kappa=0000000000000000 reset_edges=0"},
    {"colorful", 1, 0,
     "colorful del=0 wedge=0 batch=0 ckpt=0 fp=0000000000000000"
     " nonperturbing=1 edges=1564 save=FAILED_PRECONDITION:cbf29ce484222325"
     " tri=409e000000000000 wedges=0000000000000000"
     " kappa=0000000000000000 reset_edges=0"},
    {"colorful", 3, 777,
     "colorful del=0 wedge=0 batch=0 ckpt=0 fp=0000000000000000"
     " nonperturbing=1 edges=1564 save=FAILED_PRECONDITION:cbf29ce484222325"
     " tri=409e000000000000 wedges=0000000000000000"
     " kappa=0000000000000000 reset_edges=0"},
    {"jg", 1, 0,
     "jg del=0 wedge=0 batch=0 ckpt=0 fp=0000000000000000"
     " nonperturbing=1 edges=1564 save=FAILED_PRECONDITION:cbf29ce484222325"
     " tri=40ae7f7ced916873 wedges=0000000000000000"
     " kappa=0000000000000000 reset_edges=0"},
    {"jg", 3, 777,
     "jg del=0 wedge=0 batch=0 ckpt=0 fp=0000000000000000"
     " nonperturbing=1 edges=1564 save=FAILED_PRECONDITION:cbf29ce484222325"
     " tri=40ae7f7ced916873 wedges=0000000000000000"
     " kappa=0000000000000000 reset_edges=0"},
    {"first-edge", 1, 0,
     "first-edge del=0 wedge=0 batch=0 ckpt=0 fp=0000000000000000"
     " nonperturbing=1 edges=1564 save=FAILED_PRECONDITION:cbf29ce484222325"
     " tri=40a4892015d867c4 wedges=0000000000000000"
     " kappa=0000000000000000 reset_edges=0"},
    {"first-edge", 3, 777,
     "first-edge del=0 wedge=0 batch=0 ckpt=0 fp=0000000000000000"
     " nonperturbing=1 edges=1564 save=FAILED_PRECONDITION:cbf29ce484222325"
     " tri=40a4892015d867c4 wedges=0000000000000000"
     " kappa=0000000000000000 reset_edges=0"},
};

TEST(AdapterContractTest, EveryAlgorithmMatchesRecordedContract) {
  const graph::EdgeList el = gen::HolmeKim(kVertices, 8, 0.9, 31);
  const std::span<const Edge> edges(el.edges());
  ASSERT_NE(edges.size() % 777, 0u);  // the bulk counter ends mid-batch
  std::map<std::string, std::string> rows;
  for (const ContractGolden& g : kContractGoldens) {
    const std::string row = ContractRow(g.algo, Config(g.threads, g.batch),
                                        edges);
    if (row != g.row) {
      std::printf("    {\"%s\", %u, %zu,\n     \"%s\"},\n", g.algo, g.threads,
                  g.batch, row.c_str());
    }
    EXPECT_EQ(row, g.row) << g.algo << " threads=" << g.threads
                          << " batch=" << g.batch;
    rows[std::string(g.algo) + "/" + std::to_string(g.batch)] = row;
  }
  EXPECT_EQ(rows.size(), 16u);
  // tsb and bulk are one counter: past the name and the fingerprint, the
  // rows agree at every configuration.
  const auto tail = [](const std::string& row) {
    return row.substr(row.find(" nonperturbing="));
  };
  for (const char* batch : {"0", "777"}) {
    EXPECT_EQ(tail(rows[std::string("tsb/") + batch]),
              tail(rows[std::string("bulk/") + batch]))
        << "batch " << batch;
  }
}

TEST(AdapterContractTest, ThreadedEstimatesReadMidStreamMatchRecordedBits) {
  // Reading an estimate mid-stream flushes the partial batch as a batch of
  // its own; the counter must then continue from there, on two workers
  // exactly as inline.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(40, 300, 3), 17);
  const std::span<const Edge> edges(stream.edges());
  const std::size_t half = edges.size() / 2;
  std::string rows[2];
  for (const std::uint32_t threads : {0u, 2u}) {
    core::TriangleCounterOptions opt;
    opt.num_estimators = 6000;
    opt.num_threads = threads;
    opt.seed = 7;
    opt.batch_size = 128;
    core::TriangleCounter counter(opt);
    ASSERT_NE(half % opt.batch_size, 0u);
    counter.ProcessEdges(edges.subspan(0, half));
    std::string row = "mid tri=" + Bits(counter.EstimateTriangles()) +
                      " wedges=" + Bits(counter.EstimateWedges());
    counter.ProcessEdges(edges.subspan(half));
    row += " end tri=" + Bits(counter.EstimateTriangles()) +
           " wedges=" + Bits(counter.EstimateWedges()) +
           " kappa=" + Bits(counter.EstimateTransitivity()) +
           " edges=" + std::to_string(counter.edges_processed());
    ckpt::ByteSink sink;
    counter.SaveState(sink);
    row += " state=" + Hex(HashBytes(sink.data()));
    rows[threads == 0 ? 0 : 1] = row;
  }
  const std::string expected =
      "mid tri=404b4ccccccccccd wedges=4091216666666666"
      " end tri=408192cccccccccd wedges=40b11b2666666666"
      " kappa=3fd8a7ded19aa961 edges=300"
      " state=b3024c71920ca83f";
  if (rows[1] != expected) std::printf("    \"%s\"\n", rows[1].c_str());
  EXPECT_EQ(rows[1], expected);
  EXPECT_EQ(rows[1], rows[0]);
}

}  // namespace
}  // namespace engine
}  // namespace tristream
