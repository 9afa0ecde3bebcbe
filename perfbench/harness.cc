// Benchmark of record for tristream: one workload per invocation, driven
// through the same public calls the CLI makes, checked against cached
// ground truth, timed for a fixed wall-clock budget. run.py builds this
// and wraps it; see README.md for the workloads and metrics.
//
//   perfbench_harness prepare --workload W --seed S --data DIR
//       generates W's inputs from S (as `tristream_cli generate` does) and
//       caches them with their ground truth in DIR. Idempotent.
//   perfbench_harness run --workload W --seed S --seconds T --trace 0|1
//                         --data DIR --tmp DIR
//       repeats W for T seconds and prints one JSON object on stdout.
//
// Exit status 0 whenever a JSON result was printed (correctness failures
// are reported inside it), nonzero on usage errors or missing inputs.

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "arith.h"
#include "engine/estimators.h"
#include "engine/serve.h"
#include "engine/stream_engine.h"
#include "gen/churn.h"
#include "gen/datasets.h"
#include "graph/csr.h"
#include "graph/exact.h"
#include "stream/binary_io.h"
#include "stream/edge_source.h"
#include "stream/socket_stream.h"
#include "trace.h"
#include "util/simd.h"

namespace {

using namespace tristream;
using perfbench::NowNs;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// ------------------------------------------------------------ parameters
// The CLI defaults the workloads reproduce (count: r = 2^17, w = 8r/T,
// estimator seed 1; dynamic: 16 groups, p = 0.5; serve: bulk, r = 2^17).
constexpr std::uint64_t kEstimators = std::uint64_t{1} << 17;
constexpr std::uint64_t kEstimatorSeed = 1;
constexpr std::uint32_t kDynamicGroups = 16;
constexpr double kDynamicP = 0.5;

// Inputs: livejournal stand-ins (gen::MakeDataset) seeded by --seed.
constexpr double kCountScale = 0.25;   // ~9 M edges
constexpr double kChurnScale = 0.01;   // ~430 K events after churn
constexpr double kChurnDeletes = 0.2;
constexpr double kLiveScale = 0.02;    // ~720 K edges, > kLiveFrames frames

// serve_mixed: serve --algo bulk --estimators 131072 --batch 8192
// --workers 2 --checkpoint-dir DIR (cadence 10^6 edges, fsync every 8th).
constexpr std::size_t kServeBatch = 8192;
constexpr std::size_t kServeWorkers = 2;
constexpr std::uint64_t kCheckpointEvery = 1000000;
constexpr std::uint64_t kCheckpointSyncEvery = 8;
constexpr std::uint64_t kReplayStreamId = 42;
constexpr std::size_t kFrameEdges = 8192;
// The live rate leaves the live session headroom (README.md, serve_mixed):
// at 0.5 M edges/s it was 77% busy on a slow spell of the measured host,
// and queueing then multiplied the answer age.
constexpr double kLiveEdgesPerSecond = 2.5e5;
constexpr std::int64_t kQueryIntervalNs = 10000000;  // a TRIQ every 10 ms
constexpr std::uint64_t kLiveFrames = 30;            // ~0.98 s of live feed
constexpr std::int64_t kRepTimeoutNs = 120000000000;
constexpr std::int64_t kMaxPollNs = 1000000;  // generator wakes at least every 1 ms

// An estimate passes when it lies within this many of its own standard
// deviations (computed exactly from the input, see EstimatorSigma) of the
// exact τ. The neighborhood-sampling mean is right-skewed: one estimator
// closing a triangle whose first edge has c ~ 2Δ moves it by ~3.5σ on the
// count input, so the band must admit a few such hits. 10σ still rejects
// an estimate of 0 or of twice τ on every workload.
constexpr double kSigmaTolerance = 10.0;

// A run repeats its workload until --seconds have passed, at least this
// many times, so every reported median has a middle.
constexpr std::size_t kMinReps = 3;

constexpr double kMiB = 1024.0 * 1024.0;

// ------------------------------------------------------------ utilities

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

/// Key-value text file ("key value" per line), written atomically.
using KeyValues = std::map<std::string, std::string>;

void WriteKeyValues(const std::string& path, const KeyValues& kv) {
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) Die("cannot write " + tmp);
  for (const auto& [k, v] : kv) std::fprintf(f, "%s %s\n", k.c_str(), v.c_str());
  if (std::fclose(f) != 0 || std::rename(tmp.c_str(), path.c_str()) != 0) {
    Die("cannot write " + path);
  }
}

KeyValues ReadKeyValues(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) Die("missing " + path + " (run prepare first)");
  KeyValues kv;
  char key[128];
  char value[128];
  while (std::fscanf(f, "%127s %127s", key, value) == 2) kv[key] = value;
  std::fclose(f);
  return kv;
}

std::string U64(std::uint64_t v) { return std::to_string(v); }
std::uint64_t AsU64(const KeyValues& kv, const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) Die("truth file lacks '" + key + "'");
  return std::strtoull(it->second.c_str(), nullptr, 10);
}
std::string Bits(double v) { return U64(std::bit_cast<std::uint64_t>(v)); }

/// Writes through a temp name so an interrupted prepare never leaves a
/// truncated input behind.
void WriteEdgesAtomically(const std::string& path, const graph::EdgeList& el) {
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  if (Status s = stream::WriteBinaryEdges(tmp, el); !s.ok()) Die(s.ToString());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) Die("cannot rename " + tmp);
}

/// Reads `path` once so a run measures warm-cache input, like a repeated
/// `count` over the same file would.
void WarmPageCache(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) Die("cannot read " + path);
  std::vector<char> buf(1 << 20);
  while (std::fread(buf.data(), 1, buf.size(), f) == buf.size()) {
  }
  std::fclose(f);
}

/// Current and peak resident set of this process, in bytes.
std::uint64_t ProcStatusBytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtoull(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

engine::EstimatorConfig CountConfig(std::uint32_t threads) {
  engine::EstimatorConfig config;  // count's flag defaults
  config.num_estimators = kEstimators;
  config.seed = kEstimatorSeed;
  config.num_threads = threads;
  config.dynamic_groups = kDynamicGroups;
  config.sample_probability = kDynamicP;
  return config;
}

engine::EstimatorConfig ServeConfig() {
  engine::EstimatorConfig config;  // serve's flag defaults + --batch 8192
  config.num_estimators = kEstimators;
  config.seed = kEstimatorSeed;
  config.batch_size = kServeBatch;
  return config;
}

// ------------------------------------------------------------ inputs

struct Paths {
  std::string data;
  std::uint64_t seed = 0;

  std::string Lj(double scale) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "/lj-%g-s%llu", scale,
                  static_cast<unsigned long long>(seed));
    return data + buf;
  }
  std::string CountInput() const { return Lj(kCountScale) + ".tris"; }
  std::string CountTruth() const { return Lj(kCountScale) + ".truth"; }
  std::string ChurnInput() const { return Lj(kChurnScale) + "-churn.tris"; }
  std::string ChurnTruth() const { return Lj(kChurnScale) + "-churn.truth"; }
  std::string LiveInput() const { return Lj(kLiveScale) + ".tris"; }
  /// The replay pushes the count input: ~9 M edges outlast the ~1 s live
  /// window at today's replay rate (~4.6 M edges/s) by about 2x.
  std::string ReplayInput() const { return CountInput(); }
  std::string ServeTruth() const { return Lj(kLiveScale) + "-serve.truth"; }
};

graph::EdgeList EnsureLj(const std::string& path, double scale,
                         std::uint64_t seed) {
  if (FileExists(path)) {
    auto el = stream::ReadBinaryEdges(path);
    if (!el.ok()) Die(el.status().ToString());
    return std::move(*el);
  }
  graph::EdgeList el = gen::MakeDataset(gen::DatasetId::kLiveJournal, scale, seed);
  WriteEdgesAtomically(path, el);
  return el;
}

/// count_default / count_sharded: τ plus Σ_t c(t) over the file's stream
/// order, which gives the exact variance of one neighborhood-sampling
/// estimator (paper Sec. 3: E[X²] = m Σ_t c(t)).
void PrepareCount(const Paths& p) {
  if (FileExists(p.CountTruth()) && FileExists(p.CountInput())) return;
  const graph::EdgeList el = EnsureLj(p.CountInput(), kCountScale, p.seed);
  // The truth describes the file's stream, which is what the estimator sees
  // only if the dedup filter admits every edge.
  stream::DedupFilter filter(el.size());
  for (const Edge& e : el.edges()) {
    if (!filter.Admit(e)) Die("generated input is not a simple graph");
  }
  const graph::StreamOrderStats stats = graph::ComputeStreamOrderStats(el);
  WriteKeyValues(p.CountTruth(), {{"events", U64(el.size())},
                                  {"triangles", U64(stats.triangle_count)},
                                  {"tangle_sum", U64(stats.tangle_sum)}});
}

/// count_churn: a TRIS v2 mixed churn stream (`generate --churn 0.2`), the
/// exact τ of its final live graph, and Σ_e t(e)(t(e)-1), the ordered
/// pairs of live triangles sharing an edge, which with τ gives the exact
/// variance of one hash-sampling group.
void PrepareChurn(const Paths& p) {
  if (FileExists(p.ChurnTruth()) && FileExists(p.ChurnInput())) return;
  const graph::EdgeList base =
      gen::MakeDataset(gen::DatasetId::kLiveJournal, kChurnScale, p.seed);
  gen::ChurnOptions churn;
  churn.schedule = gen::ChurnSchedule::kMixed;
  churn.delete_fraction = kChurnDeletes;
  churn.seed = p.seed;
  const EdgeEventList events = gen::MakeChurnStream(base, churn);
  const std::string tmp = p.ChurnInput() + ".tmp" + std::to_string(::getpid());
  if (Status s = stream::WriteBinaryEvents(tmp, events); !s.ok()) Die(s.ToString());
  if (std::rename(tmp.c_str(), p.ChurnInput().c_str()) != 0) Die("rename");

  // The live set under the dedup filter's turnstile semantics.
  stream::DedupFilter live_filter(events.size());
  std::unordered_set<std::uint64_t> live;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EdgeOp op = events.ops.empty() ? EdgeOp::kInsert : events.ops[i];
    if (!live_filter.AdmitEvent(events.edges[i], op)) continue;
    if (op == EdgeOp::kInsert) {
      live.insert(events.edges[i].Key());
    } else {
      live.erase(events.edges[i].Key());
    }
  }
  graph::EdgeList live_graph;
  for (const std::uint64_t key : live) {
    live_graph.Add(static_cast<VertexId>(key >> 32),
                   static_cast<VertexId>(key & 0xffffffffu));
  }
  const graph::Csr csr = graph::Csr::FromEdgeList(live_graph);
  std::unordered_map<std::uint64_t, std::uint64_t> per_edge;
  std::uint64_t triangles = 0;
  graph::EnumerateTriangles(csr, [&](VertexId a, VertexId b, VertexId c) {
    ++triangles;
    ++per_edge[Edge(a, b).Key()];
    ++per_edge[Edge(a, c).Key()];
    ++per_edge[Edge(b, c).Key()];
  });
  std::uint64_t shared_pairs = 0;
  for (const auto& [key, t] : per_edge) shared_pairs += t * (t - 1);
  WriteKeyValues(p.ChurnTruth(), {{"events", U64(events.size())},
                                  {"triangles", U64(triangles)},
                                  {"shared_pairs", U64(shared_pairs)}});
}

/// Standalone StreamEngine::Run of the serve configuration over `edges`:
/// the reference a serve session must match bit for bit.
double StandaloneServeEstimate(std::span<const Edge> edges) {
  auto est = engine::MakeEstimator("bulk", ServeConfig());
  if (!est.ok()) Die(est.status().ToString());
  graph::EdgeList list(std::vector<Edge>(edges.begin(), edges.end()));
  stream::MemoryEdgeStream source(list);
  engine::StreamEngineOptions options;
  options.batch_size = kServeBatch;
  engine::StreamEngine engine(options);
  if (Status s = engine.Run(**est, source); !s.ok()) Die(s.ToString());
  return (*est)->EstimateTriangles();
}

void PrepareServe(const Paths& p) {
  if (FileExists(p.ServeTruth()) && FileExists(p.LiveInput()) &&
      FileExists(p.ReplayInput())) {
    return;
  }
  const graph::EdgeList live = EnsureLj(p.LiveInput(), kLiveScale, 2 * p.seed + 1);
  const graph::EdgeList replay = EnsureLj(p.ReplayInput(), kCountScale, p.seed);
  const std::size_t live_edges = kLiveFrames * kFrameEdges;
  if (live.size() < live_edges) Die("live input shorter than the live window");
  WriteKeyValues(p.ServeTruth(),
                 {{"live_edges", U64(live_edges)},
                  {"live_bits", Bits(StandaloneServeEstimate(std::span<const Edge>(
                                    live.edges().data(), live_edges)))},
                  {"replay_edges", U64(replay.size())},
                  {"replay_bits", Bits(StandaloneServeEstimate(replay.edges()))}});
}

// ------------------------------------------------------------ results

struct Metric {
  double value = 0.0;
  const char* unit = "";
};

struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // empty = every check passed
  KeyValues config;

  void Check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

void PrintResult(const RunResult& r) {
  bool finite = true;
  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    if (!std::isfinite(m.value)) finite = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit);
    metrics += buf;
  }
  std::string problems;
  for (const std::string& p : r.problems) {
    problems += (problems.empty() ? "\"" : ",\"") + JsonEscape(p) + "\"";
  }
  if (!finite) problems += std::string(problems.empty() ? "" : ",") + "\"non-finite metric\"";
  std::string config;
  for (const auto& [k, v] : r.config) {
    config += (config.empty() ? "\"" : ",\"") + k + "\":\"" + JsonEscape(v) + "\"";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s},\"problems\":[%s],\"config\":{%s}}\n",
              r.problems.empty() && finite ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str(),
              problems.c_str(), config.c_str());
}

/// Every per-layer metric, so each workload reports the full set; a layer
/// a workload does not exercise reads 0 (see README.md, "little work in").
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"stream.fetch_ns_per_edge", "ns"},
      {"stream.dedup_ns_per_edge", "ns"},
      {"stream.dedup_admit_ratio", "ratio"},
      {"stream.dedup_table_mb", "MiB"},
      {"engine.absorb_wait_ns_per_edge", "ns"},
      {"engine.flush_ms", "ms"},
      {"engine.batches", "count"},
      {"engine.unattributed_ms", "ms"},
      {"engine.live_busy_share", "ratio"},
      {"engine.replay_busy_share", "ratio"},
      {"engine.triq_rtt_p50_ms", "ms"},
      {"engine.triq_rtt_p90_ms", "ms"},
      {"engine.answer_age_p90_ms", "ms"},
      {"engine.staleness_edges_p50", "count"},
      {"engine.invalid_replies", "count"},
      {"engine.live_late_ms_max", "ms"},
      {"engine.replay_blocked_share", "ratio"},
      {"core.absorb_ns_per_edge", "ns"},
      {"core.estimate_ms", "ms"},
      {"core.estimate_calls", "count"},
      {"core.state_mb", "MiB"},
      {"ckpt.saves", "count"},
      {"ckpt.save_ms_mean", "ms"},
      {"ckpt.snapshot_mb", "MiB"},
      {"trace.overhead_ratio", "ratio"},
  };
  return names;
}

/// Per-repetition per-layer values; the run reports their medians.
using LayerValues = std::map<std::string, double>;

void ReportLayers(const std::vector<LayerValues>& reps, RunResult* r) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    std::vector<double> v;
    for (const LayerValues& rep : reps) {
      const auto it = rep.find(name);
      v.push_back(it == rep.end() ? 0.0 : it->second);
    }
    r->metrics[name] = {v.empty() ? 0.0 : perfbench::Median(v), unit};
  }
}

/// What each repetition of a run is: one untimed warm-up job (it pays for
/// first-touch page faults and allocator growth that later jobs reuse),
/// then measured repetitions until `seconds` have passed and kMinReps were
/// kept. A traced run alternates
/// untraced measured repetitions (the overhead baseline) with traced ones.
class RepSchedule {
 public:
  enum class Kind { kWarmup, kUntraced, kTraced, kDone };

  RepSchedule(double seconds, bool trace)
      : seconds_ns_(static_cast<std::int64_t>(seconds * 1e9)), trace_(trace) {}

  /// `kept`: measured repetitions recorded so far (the traced ones in a
  /// traced run).
  Kind Next(std::size_t kept) {
    if (jobs_++ == 0) return Kind::kWarmup;
    const std::int64_t now = NowNs();
    if (start_ < 0) start_ = now;
    if (kept >= kMinReps && now - start_ >= seconds_ns_) return Kind::kDone;
    return trace_ && measured_++ % 2 == 1 ? Kind::kTraced : Kind::kUntraced;
  }

 private:
  std::int64_t seconds_ns_;
  bool trace_;
  std::int64_t start_ = -1;
  int jobs_ = 0;
  int measured_ = 0;
};

// ------------------------------------------------------------ count_*

struct CountSpec {
  const char* algo;
  std::uint32_t threads;
  std::string input;
  std::string truth;
};

struct CountRep {
  double setup_s = 0.0;
  double job_s = 0.0;
  std::uint64_t events = 0;
  double triangles = 0.0;
  Status status;
  LayerValues layers;
};

/// One `count` job. Untraced: OpenEdgeSource(dedup) + MakeEstimator, then
/// StreamEngine::Run and the Estimate* reads, exactly as CmdCount does.
/// Traced: the same pipeline with TracedStream around the raw source and
/// around DedupEdgeStream, and TracedEstimator around the estimator.
CountRep RunCountOnce(const CountSpec& spec, Tracer* tracer, int run) {
  CountRep rep;
  if (tracer != nullptr) tracer->set_run(run);
  const std::int64_t t0 = NowNs();
  stream::EdgeSourceInfo info;
  std::unique_ptr<stream::EdgeStream> source;
  const stream::DedupEdgeStream* dedup = nullptr;
  if (tracer == nullptr) {
    stream::EdgeSourceOptions options;
    options.prefer_mmap = true;
    options.dedup = true;
    auto opened = stream::OpenEdgeSource(spec.input, options, &info);
    if (!opened.ok()) Die(opened.status().ToString());
    source = std::move(*opened);
  } else {
    auto raw = stream::OpenEdgeSource(spec.input, {}, &info);
    if (!raw.ok()) Die(raw.status().ToString());
    auto fetch = std::make_unique<perfbench::TracedStream>(std::move(*raw), tracer,
                                                           "stream.fetch");
    // OpenEdgeSource's presize rule for the dedup table.
    auto filtered = std::make_unique<stream::DedupEdgeStream>(
        std::move(fetch),
        std::max<std::size_t>(static_cast<std::size_t>(info.total_edges), 1 << 12));
    dedup = filtered.get();
    source = std::make_unique<perfbench::TracedStream>(std::move(filtered), tracer,
                                                       "stream.dedup");
  }
  auto made = engine::MakeEstimator(spec.algo, CountConfig(spec.threads));
  if (!made.ok()) Die(made.status().ToString());
  std::unique_ptr<engine::StreamingEstimator> inner = std::move(*made);
  std::unique_ptr<perfbench::TracedEstimator> traced;
  if (tracer != nullptr) {
    traced = std::make_unique<perfbench::TracedEstimator>(*inner, tracer);
  }
  engine::StreamingEstimator& est =
      traced ? static_cast<engine::StreamingEstimator&>(*traced) : *inner;
  const std::int64_t t1 = NowNs();
  rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;

  int job_span = -1;
  if (tracer != nullptr) job_span = tracer->Begin("job");
  {
    ScopedSpan run_span(tracer, "engine.run");
    engine::StreamEngine engine;  // count's options: batch 0, no autotune
    rep.status = engine.Run(est, *source);
  }
  rep.triangles = est.EstimateTriangles();
  if (est.has_wedge_estimates()) {
    est.EstimateWedges();
    est.EstimateTransitivity();
  }
  const std::int64_t t2 = NowNs();
  if (tracer != nullptr) tracer->End(job_span);
  rep.job_s = static_cast<double>(t2 - t1) * 1e-9;
  rep.events = info.total_edges;

  if (tracer != nullptr) {
    const double edges = static_cast<double>(est.edges_processed());
    const double offered = tracer->count(run, "stream.fetch.events");
    const double absorb_ns = static_cast<double>(tracer->TotalNs(run, "engine.absorb"));
    const double flush_ns = static_cast<double>(tracer->TotalNs(run, "engine.flush"));
    LayerValues& l = rep.layers;
    l["stream.fetch_ns_per_edge"] =
        static_cast<double>(tracer->SelfNs(run, "stream.fetch")) / offered;
    l["stream.dedup_ns_per_edge"] =
        static_cast<double>(tracer->SelfNs(run, "stream.dedup")) / offered;
    l["stream.dedup_admit_ratio"] = static_cast<double>(dedup->filter().admitted()) /
                                    static_cast<double>(dedup->filter().offered());
    l["stream.dedup_table_mb"] = static_cast<double>(dedup->filter().MemoryBytes()) / kMiB;
    l["engine.absorb_wait_ns_per_edge"] = absorb_ns / edges;
    l["engine.flush_ms"] = flush_ns * 1e-6;
    l["engine.batches"] = static_cast<double>(tracer->Calls(run, "engine.absorb"));
    l["engine.unattributed_ms"] = static_cast<double>(tracer->SelfNs(run, "job") +
                                                      tracer->SelfNs(run, "engine.run")) *
                                  1e-6;
    l["core.absorb_ns_per_edge"] = (absorb_ns + flush_ns) / edges;
    l["core.estimate_ms"] =
        static_cast<double>(tracer->TotalNs(run, "core.estimate")) * 1e-6;
    l["core.estimate_calls"] = static_cast<double>(tracer->Calls(run, "core.estimate"));
    l["core.state_mb"] = static_cast<double>(est.approx_memory_bytes()) / kMiB;
    l["job_ms"] = rep.job_s * 1e3;
  }
  return rep;
}

/// Standard deviation of the workload's estimator on its input, from the
/// cached truth.
double EstimatorSigma(const std::string& algo, const KeyValues& truth) {
  const double tau = static_cast<double>(AsU64(truth, "triangles"));
  if (algo == std::string("dynamic")) {
    // One group: Σ_t I_t / p³ with I_t = all three edges sampled.
    // Var = τ(1/p³ - 1) + (1/p - 1) Σ_e t(e)(t(e)-1); mean of g groups.
    const double p = kDynamicP;
    const double pairs = static_cast<double>(AsU64(truth, "shared_pairs"));
    const double var = tau * (1.0 / (p * p * p) - 1.0) + (1.0 / p - 1.0) * pairs;
    return std::sqrt(var / kDynamicGroups);
  }
  // One neighborhood sample: Var = m Σ_t c(t) - τ²; mean of r samples.
  const double m = static_cast<double>(AsU64(truth, "events"));
  const double tangle = static_cast<double>(AsU64(truth, "tangle_sum"));
  return std::sqrt(std::max(m * tangle - tau * tau, 0.0) /
                   static_cast<double>(kEstimators));
}

RunResult RunCount(const CountSpec& spec, double seconds, bool trace,
                const std::string& trace_file) {
  RunResult r;
  const KeyValues truth = ReadKeyValues(spec.truth);
  const double tau = static_cast<double>(AsU64(truth, "triangles"));
  const double sigma = EstimatorSigma(spec.algo, truth);
  const std::uint64_t events = AsU64(truth, "events");
  r.config["algo"] = spec.algo;
  r.config["threads"] = std::to_string(spec.threads);
  if (spec.algo == std::string("dynamic")) {
    r.config["groups"] = std::to_string(kDynamicGroups);
    r.config["sample_probability"] = std::to_string(kDynamicP);
  } else {
    r.config["estimators"] = U64(kEstimators);
  }
  r.config["input_events"] = U64(events);
  r.config["exact_triangles"] = U64(AsU64(truth, "triangles"));
  r.config["tolerance"] = std::to_string(kSigmaTolerance) + " sigma = " +
                          std::to_string(kSigmaTolerance * sigma);

  WarmPageCache(spec.input);
  const std::uint64_t rss_before = ProcStatusBytes("VmRSS");
  Tracer tracer;
  std::vector<CountRep> reps;
  std::vector<double> untraced_job_s;
  std::uint64_t reference_bits = 0;
  // Every job of a run must return the first job's estimate bit for bit,
  // which also checks that the decorated (traced) pipeline computes what
  // the undecorated one does.
  RepSchedule schedule(seconds, trace);
  int run = 0;
  for (auto kind = schedule.Next(0); kind != RepSchedule::Kind::kDone;
       kind = schedule.Next(reps.size())) {
    const bool traced = kind == RepSchedule::Kind::kTraced;
    CountRep rep = RunCountOnce(spec, traced ? &tracer : nullptr, run++);
    ++r.attempted;
    bool ok = rep.status.ok();
    r.Check(rep.status.ok(), "job failed: " + rep.status.ToString());
    ok &= rep.events == events;
    r.Check(rep.events == events, "source reported " + U64(rep.events) +
                                      " events, truth has " + U64(events));
    const double error = std::fabs(rep.triangles - tau);
    ok &= error <= kSigmaTolerance * sigma;
    r.Check(error <= kSigmaTolerance * sigma,
            "estimate " + std::to_string(rep.triangles) + " is " +
                std::to_string(error / sigma) + " sigma from exact " +
                std::to_string(tau));
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(rep.triangles);
    if (run == 1) reference_bits = bits;
    ok &= bits == reference_bits;
    r.Check(bits == reference_bits,
            std::string(traced ? "traced" : "untraced") +
                " estimate differs from the run's first one");
    if (!ok) ++r.failed;
    const char* label = kind == RepSchedule::Kind::kWarmup ? " (warm-up)"
                        : traced                           ? " (traced)"
                                                           : "";
    std::fprintf(stderr, "  rep %d%s: setup %.4f s, job %.4f s\n", run - 1,
                 label, rep.setup_s, rep.job_s);
    if (kind == RepSchedule::Kind::kWarmup) continue;
    if (trace && !traced) {
      untraced_job_s.push_back(rep.job_s);
    } else {
      reps.push_back(std::move(rep));
    }
  }
  const std::uint64_t peak = ProcStatusBytes("VmHWM");
  r.config["repetitions"] = std::to_string(reps.size());
  r.config["estimate"] = std::to_string(reps.front().triangles);

  if (!trace) {
    std::vector<double> meps, setup, age;
    for (const CountRep& rep : reps) {
      meps.push_back(static_cast<double>(rep.events) / rep.job_s * 1e-6);
      setup.push_back(rep.setup_s);
      age.push_back(rep.job_s * 1e3);
    }
    r.metrics["throughput_meps"] = {perfbench::Median(meps), "Meps"};
    r.metrics["setup_s"] = {perfbench::Median(setup), "s"};
    r.metrics["answer_age_p50_ms"] = {perfbench::Median(age), "ms"};
    r.metrics["peak_rss_mb"] = {static_cast<double>(peak - rss_before) / kMiB, "MiB"};
    return r;
  }
  std::vector<LayerValues> layers;
  std::vector<double> traced_job_s;
  for (CountRep& rep : reps) {
    traced_job_s.push_back(rep.job_s);
    layers.push_back(std::move(rep.layers));
  }
  for (LayerValues& l : layers) {
    l["trace.overhead_ratio"] =
        perfbench::Median(traced_job_s) / perfbench::Median(untraced_job_s);
    // The top-level spans must account for the job's wall time.
    r.Check(l["engine.unattributed_ms"] <= 0.05 * l["job_ms"],
            "unattributed time exceeds 5% of the traced job");
  }
  ReportLayers(layers, &r);
  tracer.WriteJsonLines(trace_file);
  return r;
}

// ------------------------------------------------------------ serve_mixed

struct SessionRecord {
  bool seen = false;
  Status status;
  engine::SessionMetrics metrics;
  std::size_t state_bytes = 0;
};

/// A non-blocking client connection with an output buffer and a reply
/// parser.
struct Client {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  bool blocked = false;          // last send hit EAGAIN with bytes left
  std::int64_t blocked_since = 0;
  std::int64_t blocked_ns = 0;
  Tracer* tracer = nullptr;
  std::vector<int> sending;      // frame spans still in `out`

  bool pending() const { return out_off < out.size(); }

  void Append(const char magic[4], std::uint64_t count, const void* payload,
              std::size_t bytes) {
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    char header[stream::kTrisHeaderBytes];
    std::memcpy(header, magic, 4);
    std::memcpy(header + 4, &stream::kTrisVersion, 4);
    std::memcpy(header + 8, &count, 8);
    out.append(header, sizeof(header));
    if (bytes > 0) out.append(static_cast<const char*>(payload), bytes);
  }

  /// Queues one frame recorded as a span named `span_name` (null: no span)
  /// that ends once its last byte is handed to the kernel.
  void AppendFrame(const char magic[4], std::uint64_t count, const void* payload,
                   std::size_t bytes, const char* span_name, int parent,
                   std::int64_t now) {
    if (tracer != nullptr && span_name != nullptr) {
      sending.push_back(tracer->Open(span_name, now, parent));
    }
    Append(magic, count, payload, bytes);
  }

  /// Sends what the kernel takes now. False on a hard error.
  bool Flush(std::int64_t now) {
    if (!FlushBytes(now)) return false;
    if (!pending()) {
      for (const int span : sending) tracer->Close(span, NowNs());
      sending.clear();
    }
    return true;
  }

  bool FlushBytes(std::int64_t now) {
    while (pending()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        if (blocked) {
          blocked_ns += now - blocked_since;
          blocked = false;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!blocked) {
          blocked = true;
          blocked_since = now;
        }
        return true;
      }
      return false;
    }
    return true;
  }

  /// Reads what is available. False on error or EOF.
  bool Read() {
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
  }

  /// Pops one complete TRIR. Returns 1 with `*wire` filled, 0 when no
  /// complete frame is buffered, -1 on a TRIE or garbage.
  int PopReply(engine::SnapshotWire* wire, std::string* error) {
    if (in.size() < stream::kTrisHeaderBytes) return 0;
    std::uint64_t count = 0;
    std::memcpy(&count, in.data() + 8, 8);
    if (std::memcmp(in.data(), engine::kServeSnapshotMagic, 4) == 0 &&
        count == engine::kSnapshotBodyBytes) {
      if (in.size() < stream::kTrisHeaderBytes + count) return 0;
      auto decoded = engine::DecodeSnapshotBody(in.data() + stream::kTrisHeaderBytes,
                                                engine::kSnapshotBodyBytes);
      in.erase(0, stream::kTrisHeaderBytes + count);
      if (!decoded.ok()) {
        *error = decoded.status().ToString();
        return -1;
      }
      *wire = *decoded;
      return 1;
    }
    if (std::memcmp(in.data(), engine::kServeErrorMagic, 4) == 0) {
      *error = in.substr(stream::kTrisHeaderBytes);
    } else {
      *error = "unexpected server frame";
    }
    return -1;
  }
};

struct ServeInputs {
  graph::EdgeList live;
  graph::EdgeList replay;
  std::uint64_t live_edges = 0;
  std::uint64_t live_bits = 0;
  std::uint64_t replay_bits = 0;
};

struct ServeRep {
  bool ok = true;
  std::vector<std::string> problems;
  std::uint64_t queries = 0;
  std::uint64_t answered = 0;
  std::uint64_t sessions_failed = 0;
  double setup_s = 0.0;
  double replay_s = 0.0;
  std::vector<double> ages_ms;
  std::vector<double> rtt_ms;
  std::vector<double> staleness;
  std::uint64_t invalid = 0;
  double late_max_ms = 0.0;
  double replay_blocked_share = 0.0;
  double replay_over_live = 0.0;  // replay duration ÷ live window
  SessionRecord live;
  SessionRecord replay;
  std::uint64_t snapshot_bytes = 0;

  void Fail(const std::string& what) {
    ok = false;
    problems.push_back(what);
  }
};

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Blocking read of exactly one server reply (the hello ack).
bool ReadOneReply(Client& c, engine::SnapshotWire* wire, std::string* error) {
  while (true) {
    const int got = c.PopReply(wire, error);
    if (got != 0) return got == 1;
    char buf[256];
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      *error = "connection closed before the hello ack";
      return false;
    }
    c.in.append(buf, static_cast<std::size_t>(n));
  }
}

/// One serve_mixed repetition: a fresh in-process Server, one live
/// (anonymous, open-loop) and one replay (named, closed-loop) connection
/// driven by this thread.
ServeRep RunServeOnce(const ServeInputs& in, const std::string& ckpt_dir,
                      Tracer* tracer, int run) {
  ServeRep rep;
  if (tracer != nullptr) tracer->set_run(run);
  if (::mkdir(ckpt_dir.c_str(), 0755) != 0) {
    rep.Fail("cannot create a fresh checkpoint dir " + ckpt_dir);
    return rep;
  }
  std::mutex record_mu;
  engine::ServeOptions options;  // serve's flag defaults
  options.algo = "bulk";
  options.config = ServeConfig();
  options.batch_size = kServeBatch;
  options.num_workers = kServeWorkers;
  options.checkpoint_dir = ckpt_dir;
  options.checkpoint_every_edges = kCheckpointEvery;
  options.checkpoint_sync_every = kCheckpointSyncEvery;
  options.on_session_end = [&](engine::Session& session, const Status& status) {
    std::lock_guard<std::mutex> lock(record_mu);
    SessionRecord& rec =
        session.options().checkpoint_path.empty() ? rep.live : rep.replay;
    rec.seen = true;
    rec.status = status;
    rec.metrics = session.metrics();
    rec.state_bytes = session.estimator().approx_memory_bytes();
  };

  const std::int64_t t0 = NowNs();
  engine::Server server(std::move(options));
  const auto port = server.Start();
  if (!port.ok()) {
    rep.Fail("server start: " + port.status().ToString());
    return rep;
  }
  Client live;
  Client replay;
  live.tracer = replay.tracer = tracer;
  auto live_fd = stream::ConnectToLoopback(*port);
  auto replay_fd = stream::ConnectToLoopback(*port);
  if (!live_fd.ok() || !replay_fd.ok()) {
    if (live_fd.ok()) ::close(*live_fd);
    if (replay_fd.ok()) ::close(*replay_fd);
    rep.Fail("connect failed");
    server.Stop();
    server.Wait();
    return rep;
  }
  live.fd = *live_fd;
  replay.fd = *replay_fd;
  {
    const std::uint64_t id = kReplayStreamId;
    replay.Append(engine::kServeHelloMagic, 8, &id, 8);
    engine::SnapshotWire ack;
    std::string error;
    if (!replay.Flush(NowNs()) || replay.pending() ||
        !ReadOneReply(replay, &ack, &error) || ack.edges != 0) {
      rep.Fail("replay hello: " + (error.empty() ? "nonzero ack" : error));
    }
  }
  const std::int64_t t_ack = NowNs();
  rep.setup_s = static_cast<double>(t_ack - t0) * 1e-9;
  SetNonBlocking(live.fd);
  SetNonBlocking(replay.fd);
  replay.blocked = false;
  replay.blocked_ns = 0;

  const perfbench::FrameSchedule schedule{
      t_ack, static_cast<std::int64_t>(kFrameEdges * 1e9 / kLiveEdgesPerSecond),
      kFrameEdges};
  const std::int64_t live_end = schedule.DueNs(kLiveFrames);
  std::uint64_t live_frames_sent = 0;
  std::uint64_t live_edges_sent = 0;
  std::uint64_t next_query = 1;  // query j is due at t_ack + j * interval
  struct Outstanding {
    std::int64_t sent_ns;
    std::uint64_t edges_sent;
    int span;
  };
  std::vector<Outstanding> outstanding;  // FIFO: replies come in order
  std::size_t outstanding_head = 0;
  bool live_closed = false;
  bool live_done = false;
  const std::size_t replay_total = in.replay.size();
  std::size_t replay_sent = 0;
  bool replay_finish_sent = false;
  bool replay_done = false;
  std::int64_t t_replay_final = 0;
  engine::SnapshotWire live_final;
  engine::SnapshotWire replay_final;
  const int rep_span = tracer != nullptr ? tracer->Begin("serve.rep") : -1;

  while (rep.ok && !(live_done && replay_done)) {
    std::int64_t now = NowNs();
    if (now - t0 > kRepTimeoutNs) {
      rep.Fail("serve repetition timed out");
      break;
    }
    // Live, open loop: every frame and query due by now goes out now.
    while (!live_closed) {
      const std::int64_t frame_due = live_frames_sent < kLiveFrames
                                         ? schedule.DueNs(live_frames_sent)
                                         : INT64_MAX;
      const std::int64_t query_due =
          t_ack + static_cast<std::int64_t>(next_query) * kQueryIntervalNs;
      const bool query_left = query_due < live_end;
      const std::int64_t due = std::min(frame_due, query_left ? query_due : INT64_MAX);
      if (due == INT64_MAX) {
        // Window over: half-close ends the anonymous session.
        if (!live.pending()) {
          ::shutdown(live.fd, SHUT_WR);
          live_closed = true;
        }
        break;
      }
      if (due > now) break;
      rep.late_max_ms = std::max(rep.late_max_ms, static_cast<double>(now - due) * 1e-6);
      if (frame_due <= (query_left ? query_due : INT64_MAX)) {
        const Edge* edges = in.live.edges().data() + live_frames_sent * kFrameEdges;
        live.AppendFrame(stream::kTrisMagic, kFrameEdges, edges,
                         kFrameEdges * sizeof(Edge), "serve.live_frame", rep_span, now);
        ++live_frames_sent;
        live_edges_sent += kFrameEdges;
      } else {
        const int span = tracer ? tracer->Open("serve.query", now, rep_span) : -1;
        live.Append(engine::kServeQueryMagic, 0, nullptr, 0);
        outstanding.push_back({now, live_edges_sent, span});
        ++rep.queries;
        ++next_query;
      }
    }
    if (!live.Flush(now)) rep.Fail("live send failed");
    // Replay, closed loop: keep one frame queued whenever TCP takes it.
    while (!replay_finish_sent && !replay.pending()) {
      if (replay_sent < replay_total) {
        const std::size_t n = std::min(kFrameEdges, replay_total - replay_sent);
        replay.AppendFrame(stream::kTrisMagic, n, in.replay.edges().data() + replay_sent,
                           n * sizeof(Edge), "serve.replay_frame", rep_span, now);
        replay_sent += n;
      } else {
        replay.Append(engine::kServeFinishMagic, 0, nullptr, 0);
        replay_finish_sent = true;
      }
      if (!replay.Flush(now)) rep.Fail("replay send failed");
    }
    if (replay.pending() && !replay.Flush(now)) rep.Fail("replay send failed");

    // Sleep until the next live deadline, a reply, or TCP space.
    std::int64_t next_due = INT64_MAX;
    if (!live_closed) {
      if (live_frames_sent < kLiveFrames) next_due = schedule.DueNs(live_frames_sent);
      const std::int64_t qd =
          t_ack + static_cast<std::int64_t>(next_query) * kQueryIntervalNs;
      if (qd < live_end) next_due = std::min(next_due, qd);
      // Past the window with bytes still queued: POLLOUT wakes the
      // half-close; with nothing queued it is due right away.
      if (next_due == INT64_MAX && !live.pending()) next_due = now;
    }
    // A finished connection leaves the poll set (the server closes it).
    pollfd fds[2] = {{live_done ? -1 : live.fd, POLLIN, 0},
                     {replay_done ? -1 : replay.fd, POLLIN, 0}};
    if (live.pending()) fds[0].events |= POLLOUT;
    if (replay.pending()) fds[1].events |= POLLOUT;
    // Never sleep past kMaxPollNs, so a late or lost writability wakeup
    // for the replay socket stalls the closed loop for at most that long.
    const std::int64_t ns =
        std::clamp<std::int64_t>(next_due - NowNs(), 0, kMaxPollNs);
    const timespec timeout{0, static_cast<long>(ns)};
    if (::ppoll(fds, 2, &timeout, nullptr) < 0 && errno != EINTR) {
      rep.Fail("ppoll failed");
      break;
    }
    now = NowNs();
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      const bool open = live.Read();
      engine::SnapshotWire wire;
      std::string error;
      int got;
      while ((got = live.PopReply(&wire, &error)) == 1) {
        if (wire.final_result) {
          live_final = wire;
          live_done = true;
          continue;
        }
        if (outstanding_head >= outstanding.size()) {
          rep.Fail("live TRIR without a TRIQ");
          break;
        }
        const Outstanding q = outstanding[outstanding_head++];
        ++rep.answered;
        if (tracer != nullptr) tracer->Close(q.span, now);
        rep.rtt_ms.push_back(static_cast<double>(now - q.sent_ns) * 1e-6);
        if (!wire.valid) {
          ++rep.invalid;
          continue;
        }
        rep.staleness.push_back(static_cast<double>(q.edges_sent - wire.edges));
        std::int64_t age = 0;
        if (perfbench::AnswerAgeNs(schedule, wire.edges, now, &age)) {
          rep.ages_ms.push_back(static_cast<double>(age) * 1e-6);
        }
      }
      if (got < 0) rep.Fail("live: " + error);
      if (!open && !live_done) rep.Fail("live connection closed early");
    }
    if (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) {
      const bool open = replay.Read();
      engine::SnapshotWire wire;
      std::string error;
      int got;
      while ((got = replay.PopReply(&wire, &error)) == 1) {
        if (!wire.final_result) {
          rep.Fail("unexpected non-final replay TRIR");
          continue;
        }
        replay_final = wire;
        replay_done = true;
        t_replay_final = now;
      }
      if (got < 0) rep.Fail("replay: " + error);
      if (!open && !replay_done) rep.Fail("replay connection closed early");
    }
  }
  if (tracer != nullptr) tracer->End(rep_span);
  ::close(live.fd);
  ::close(replay.fd);
  server.Stop();
  server.Wait();
  const engine::ServerStats stats = server.stats();

  rep.replay_s = static_cast<double>(t_replay_final - t_ack) * 1e-9;
  rep.replay_over_live = static_cast<double>(t_replay_final - t_ack) /
                         static_cast<double>(live_end - t_ack);
  if (replay.blocked) replay.blocked_ns += t_replay_final - replay.blocked_since;
  rep.replay_blocked_share =
      static_cast<double>(replay.blocked_ns) / static_cast<double>(t_replay_final - t_ack);
  rep.snapshot_bytes = FileBytes(ckpt_dir + "/stream-" + U64(kReplayStreamId) + ".ckpt");
  if (rep.answered != rep.queries) {
    rep.Fail(U64(rep.queries - rep.answered) + " TRIQs unanswered");
  }
  const auto check_session = [&](const char* which, const SessionRecord& rec,
                                 const engine::SnapshotWire& final_wire,
                                 std::uint64_t edges, std::uint64_t bits) {
    const bool ok = rec.seen && rec.status.ok() && final_wire.final_result &&
                    final_wire.edges == edges &&
                    std::bit_cast<std::uint64_t>(final_wire.triangles) == bits;
    if (!ok) {
      ++rep.sessions_failed;
      rep.Fail(std::string(which) +
               " session's final estimate is not bit-identical to the "
               "standalone run (or the session failed: " +
               rec.status.ToString() + ")");
    }
  };
  check_session("live", rep.live, live_final, live_edges_sent, in.live_bits);
  check_session("replay", rep.replay, replay_final, replay_total, in.replay_bits);
  if (stats.completed != 2 || stats.failed != 0 || stats.refused != 0) {
    rep.Fail("server stats: " + U64(stats.completed) + " completed, " +
             U64(stats.failed) + " failed, " + U64(stats.refused) + " refused");
  }
  if (live_edges_sent != in.live_edges) rep.Fail("live window incomplete");
  return rep;
}

void RemoveTree(const std::string& dir) {
  // Only ever the per-repetition checkpoint dir: flat, files only.
  if (auto* d = ::opendir(dir.c_str())) {
    while (auto* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

RunResult RunServe(const Paths& paths, const std::string& tmp_dir, double seconds,
                bool trace, const std::string& trace_file) {
  RunResult r;
  ServeInputs in;
  {
    const KeyValues truth = ReadKeyValues(paths.ServeTruth());
    auto live = stream::ReadBinaryEdges(paths.LiveInput());
    auto replay = stream::ReadBinaryEdges(paths.ReplayInput());
    if (!live.ok() || !replay.ok()) Die("cannot read serve inputs");
    in.live = std::move(*live);
    in.replay = std::move(*replay);
    in.live_edges = AsU64(truth, "live_edges");
    in.live_bits = AsU64(truth, "live_bits");
    in.replay_bits = AsU64(truth, "replay_bits");
    if (in.replay.size() != AsU64(truth, "replay_edges")) Die("stale serve truth");
  }
  r.config["algo"] = "bulk";
  r.config["estimators"] = U64(kEstimators);
  r.config["batch"] = U64(kServeBatch);
  r.config["workers"] = U64(kServeWorkers);
  r.config["checkpoint_every"] = U64(kCheckpointEvery);
  r.config["checkpoint_sync_every"] = U64(kCheckpointSyncEvery);
  r.config["live_edges"] = U64(in.live_edges);
  r.config["live_rate_eps"] = std::to_string(kLiveEdgesPerSecond);
  r.config["query_interval_ms"] = std::to_string(kQueryIntervalNs / 1000000);
  r.config["replay_edges"] = U64(in.replay.size());

  // The generator's own copy of its input is the footprint to subtract.
  const std::uint64_t rss_before = ProcStatusBytes("VmRSS");
  Tracer tracer;
  std::vector<ServeRep> reps;
  std::vector<double> untraced_replay_s;
  int run = 0;
  RepSchedule schedule(seconds, trace);
  for (auto kind = schedule.Next(0); kind != RepSchedule::Kind::kDone;
       kind = schedule.Next(reps.size())) {
    const bool traced = kind == RepSchedule::Kind::kTraced;
    const std::string dir =
        tmp_dir + "/ckpt-" + std::to_string(::getpid()) + "-" + std::to_string(run);
    ServeRep rep = RunServeOnce(in, dir, traced ? &tracer : nullptr, run++);
    RemoveTree(dir);
    std::fprintf(stderr, "  rep %d%s: setup %.4f s, replay %.4f s, %zu answer ages\n",
                 run - 1,
                 kind == RepSchedule::Kind::kWarmup ? " (warm-up)"
                 : traced                           ? " (traced)"
                                                    : "",
                 rep.setup_s, rep.replay_s, rep.ages_ms.size());
    r.attempted += 2 + rep.queries;
    r.failed += rep.sessions_failed + (rep.queries - rep.answered);
    for (const std::string& p : rep.problems) r.problems.push_back(p);
    if (!rep.ok) break;
    if (kind == RepSchedule::Kind::kWarmup) continue;
    if (trace && !traced) {
      untraced_replay_s.push_back(rep.replay_s);
    } else {
      reps.push_back(std::move(rep));
    }
  }
  const std::uint64_t peak = ProcStatusBytes("VmHWM");
  r.config["repetitions"] = std::to_string(reps.size());

  std::vector<double> ages, meps, setup, rtt, overlap;
  std::uint64_t valid = 0;
  for (const ServeRep& rep : reps) {
    overlap.push_back(rep.replay_over_live);
    ages.insert(ages.end(), rep.ages_ms.begin(), rep.ages_ms.end());
    rtt.insert(rtt.end(), rep.rtt_ms.begin(), rep.rtt_ms.end());
    meps.push_back(static_cast<double>(in.replay.size()) / rep.replay_s * 1e-6);
    setup.push_back(rep.setup_s);
    valid += rep.ages_ms.size();
  }
  r.config["answer_age_samples"] = U64(valid);
  // Above 1 means the replay outlasted the live window, so every live
  // query ran under contention.
  r.config["replay_over_live_window"] = std::to_string(perfbench::Median(overlap));
  r.Check(perfbench::PercentileSupported(ages.size(), 0.9),
          "fewer than 100 valid live replies (" + U64(valid) + ")");
  if (!trace) {
    r.metrics["throughput_meps"] = {perfbench::Median(meps), "Meps"};
    r.metrics["setup_s"] = {perfbench::Median(setup), "s"};
    r.metrics["answer_age_p50_ms"] = {perfbench::Percentile(ages, 0.5), "ms"};
    r.metrics["peak_rss_mb"] = {static_cast<double>(peak - rss_before) / kMiB, "MiB"};
    return r;
  }
  // Latency percentiles pool every repetition's samples (one repetition
  // alone has too few beyond p90); the rest are medians over repetitions.
  std::vector<double> traced_replay_s, stale;
  for (const ServeRep& rep : reps) {
    traced_replay_s.push_back(rep.replay_s);
    stale.insert(stale.end(), rep.staleness.begin(), rep.staleness.end());
  }
  std::vector<LayerValues> layers;
  for (const ServeRep& rep : reps) {
    LayerValues l;
    const auto share = [](const engine::SessionMetrics& m) {
      return m.total_seconds > 0.0 ? m.compute_seconds / m.total_seconds : 0.0;
    };
    l["engine.live_busy_share"] = share(rep.live.metrics);
    l["engine.replay_busy_share"] = share(rep.replay.metrics);
    l["engine.batches"] = static_cast<double>(rep.replay.metrics.batches);
    l["engine.triq_rtt_p50_ms"] = perfbench::Percentile(rtt, 0.5);
    l["engine.triq_rtt_p90_ms"] = perfbench::Percentile(rtt, 0.9);
    l["engine.answer_age_p90_ms"] = perfbench::Percentile(ages, 0.9);
    l["engine.staleness_edges_p50"] = perfbench::Percentile(stale, 0.5);
    l["engine.invalid_replies"] = static_cast<double>(rep.invalid);
    l["engine.live_late_ms_max"] = rep.late_max_ms;
    l["engine.replay_blocked_share"] = rep.replay_blocked_share;
    l["core.absorb_ns_per_edge"] = rep.replay.metrics.compute_seconds * 1e9 /
                                   static_cast<double>(rep.replay.metrics.edges);
    l["core.state_mb"] = static_cast<double>(rep.replay.state_bytes) / kMiB;
    l["ckpt.saves"] = static_cast<double>(rep.replay.metrics.checkpoints);
    l["ckpt.save_ms_mean"] =
        rep.replay.metrics.checkpoints > 0
            ? rep.replay.metrics.checkpoint_seconds * 1e3 /
                  static_cast<double>(rep.replay.metrics.checkpoints)
            : 0.0;
    l["ckpt.snapshot_mb"] = static_cast<double>(rep.snapshot_bytes) / kMiB;
    l["trace.overhead_ratio"] =
        perfbench::Median(traced_replay_s) / perfbench::Median(untraced_replay_s);
    layers.push_back(std::move(l));
  }
  ReportLayers(layers, &r);
  tracer.WriteJsonLines(trace_file);
  return r;
}

// ------------------------------------------------------------ main

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Die(std::string("bad flag ") + argv[i]);
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string Need(const std::map<std::string, std::string>& flags,
                 const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) Die("missing --" + name);
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) Die("usage: perfbench_harness prepare|run --workload W --seed S ...");
  const std::string mode = argv[1];
  const auto flags = ParseFlags(argc, argv);
  const std::string workload = Need(flags, "workload");
  Paths paths;
  paths.data = Need(flags, "data");
  paths.seed = std::strtoull(Need(flags, "seed").c_str(), nullptr, 10);
  const bool is_count = workload == "count_default" || workload == "count_sharded";
  if (!is_count && workload != "count_churn" && workload != "serve_mixed") {
    Die("unknown workload '" + workload + "'");
  }

  if (mode == "prepare") {
    if (is_count) PrepareCount(paths);
    if (workload == "count_churn") PrepareChurn(paths);
    if (workload == "serve_mixed") PrepareServe(paths);
    return 0;
  }
  if (mode != "run") Die("unknown mode '" + mode + "'");
  const double seconds = std::strtod(Need(flags, "seconds").c_str(), nullptr);
  const bool trace = Need(flags, "trace") == "1";
  const std::string tmp = Need(flags, "tmp");
  const std::string trace_file = tmp + "/trace-" + workload + "-s" +
                                 U64(paths.seed) + ".jsonl";
  RunResult result;
  if (workload == "serve_mixed") {
    result = RunServe(paths, tmp, seconds, trace, trace_file);
  } else {
    CountSpec spec{"tsb", 1, paths.CountInput(), paths.CountTruth()};
    if (workload == "count_sharded") spec.threads = 2;
    if (workload == "count_churn") {
      spec = {"dynamic", 1, paths.ChurnInput(), paths.ChurnTruth()};
    }
    result = RunCount(spec, seconds, trace, trace_file);
  }
  result.config["simd_isa"] = SimdIsaName(*ResolveSimdIsa(SimdMode::kAuto));
  if (trace) result.config["trace_file"] = trace_file;
  PrintResult(result);
  return 0;
}
