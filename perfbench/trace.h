// In-memory span recorder plus the decorators that record spans around
// the system's public seams (EdgeStream, StreamingEstimator). Spans and
// counts stay in memory and are written out when the run ends.
//
// The decorators forward every trait the engine reads (stable_views,
// ready, BeginStream, estimates_nonperturbing, preferred_batch_size,
// supports_deletions, ...): a decorator that dropped one would send the
// engine or DedupEdgeStream down a different branch and so measure a
// different program. The harness checks that the decorated pipeline
// returns the bit-identical estimate of the undecorated one.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arith.h"
#include "engine/streaming_estimator.h"
#include "stream/edge_stream.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the parent span, -1 for a root
  int run = 0;      // repetition the span belongs to
};

/// Single-threaded span recorder: Begin/End nest on a stack, so a span's
/// parent is whatever span was open when it began. Open(...) records a
/// span whose end is set later (asynchronous replies).
class Tracer {
 public:
  void set_run(int run) { run_ = run; }

  int Begin(const char* name) {
    const int id = Open(name, NowNs(), Current());
    stack_.push_back(id);
    return id;
  }
  void End(int id) {
    spans_[id].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  /// Records a span outside the nesting stack (closed later via Close).
  int Open(const char* name, std::int64_t start_ns, int parent) {
    spans_.push_back(Span{name, start_ns, start_ns, parent, run_});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id, std::int64_t end_ns) { spans_[id].end_ns = end_ns; }
  int Current() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Counts recorded at the same boundaries as the spans, per run.
  void Count(const std::string& name, double delta) {
    counts_[{run_, name}] += delta;
  }
  double count(int run, const std::string& name) const {
    const auto it = counts_.find({run, name});
    return it == counts_.end() ? 0.0 : it->second;
  }

  /// Sum over `run`'s spans named `name` of their self time (duration
  /// minus the part covered by their children).
  std::int64_t SelfNs(int run, const std::string& name) const {
    std::vector<std::vector<Interval>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
    }
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.run != run || name != s.name) continue;
      total += SelfTimeNs({s.start_ns, s.end_ns}, children[i]);
    }
    return total;
  }
  /// Sum of durations and number of `run`'s spans named `name`.
  std::int64_t TotalNs(int run, const std::string& name) const {
    std::int64_t total = 0;
    for (const Span& s : spans_) {
      if (s.run == run && name == s.name) total += s.end_ns - s.start_ns;
    }
    return total;
  }
  std::size_t Calls(int run, const std::string& name) const {
    std::size_t n = 0;
    for (const Span& s : spans_) n += s.run == run && name == s.name;
    return n;
  }

  /// Writes every span as one JSON object per line (id, name, start, end,
  /// parent, run; times relative to the first span), then every count
  /// (count, run, value).
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"run\":%d}\n",
                   i, s.name, static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent, s.run);
    }
    for (const auto& [key, value] : counts_) {
      std::fprintf(f, "{\"count\":\"%s\",\"run\":%d,\"value\":%.17g}\n",
                   key.second.c_str(), key.first, value);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::pair<int, std::string>, double> counts_;
  int run_ = 0;
};

/// RAII Begin/End; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// EdgeStream decorator: one span per pull, named `name`, plus a count
/// "<name>.events" of the events the pull returned.
class TracedStream : public tristream::stream::EdgeStream {
 public:
  TracedStream(std::unique_ptr<tristream::stream::EdgeStream> inner,
               Tracer* tracer, const char* name)
      : inner_(std::move(inner)),
        tracer_(tracer),
        name_(name),
        events_(std::string(name) + ".events") {}

  std::size_t NextBatch(std::size_t max_edges,
                        std::vector<tristream::Edge>* batch) override {
    ScopedSpan span(tracer_, name_);
    const std::size_t n = inner_->NextBatch(max_edges, batch);
    tracer_->Count(events_, static_cast<double>(n));
    return n;
  }
  std::span<const tristream::Edge> NextBatchView(
      std::size_t max_edges, std::vector<tristream::Edge>* scratch) override {
    ScopedSpan span(tracer_, name_);
    const auto view = inner_->NextBatchView(max_edges, scratch);
    tracer_->Count(events_, static_cast<double>(view.size()));
    return view;
  }
  tristream::EventBatchView NextEventBatchView(
      std::size_t max_edges,
      tristream::stream::EventScratch* scratch) override {
    ScopedSpan span(tracer_, name_);
    const tristream::EventBatchView view =
        inner_->NextEventBatchView(max_edges, scratch);
    tracer_->Count(events_, static_cast<double>(view.size()));
    return view;
  }
  bool turnstile() const override { return inner_->turnstile(); }
  bool stable_views() const override { return inner_->stable_views(); }
  bool ready(std::size_t max_edges) const override {
    return inner_->ready(max_edges);
  }
  void Reset() override { inner_->Reset(); }
  std::uint64_t edges_delivered() const override {
    return inner_->edges_delivered();
  }
  double io_seconds() const override { return inner_->io_seconds(); }
  tristream::Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<tristream::stream::EdgeStream> inner_;
  Tracer* tracer_;
  const char* name_;
  std::string events_;
};

/// StreamingEstimator decorator: spans "engine.absorb" (ProcessEdges /
/// ProcessEvents), "engine.flush" and "core.estimate" (every Estimate*),
/// and the count "engine.absorb.events".
class TracedEstimator : public tristream::engine::StreamingEstimator {
 public:
  TracedEstimator(tristream::engine::StreamingEstimator& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  const char* name() const override { return inner_.name(); }
  void BeginStream(const tristream::engine::StreamSourceTraits& traits) override {
    inner_.BeginStream(traits);
  }
  void ProcessEdges(std::span<const tristream::Edge> edges) override {
    ScopedSpan span(tracer_, "engine.absorb");
    tracer_->Count("engine.absorb.events", static_cast<double>(edges.size()));
    inner_.ProcessEdges(edges);
  }
  bool supports_deletions() const override {
    return inner_.supports_deletions();
  }
  void ProcessEvents(const tristream::EventBatchView& view) override {
    ScopedSpan span(tracer_, "engine.absorb");
    tracer_->Count("engine.absorb.events", static_cast<double>(view.size()));
    inner_.ProcessEvents(view);
  }
  void Flush() override {
    ScopedSpan span(tracer_, "engine.flush");
    inner_.Flush();
  }
  void Reset() override { inner_.Reset(); }
  std::uint64_t edges_processed() const override {
    return inner_.edges_processed();
  }
  double EstimateTriangles() override {
    ScopedSpan span(tracer_, "core.estimate");
    return inner_.EstimateTriangles();
  }
  bool has_wedge_estimates() const override {
    return inner_.has_wedge_estimates();
  }
  double EstimateWedges() override {
    ScopedSpan span(tracer_, "core.estimate");
    return inner_.EstimateWedges();
  }
  double EstimateTransitivity() override {
    ScopedSpan span(tracer_, "core.estimate");
    return inner_.EstimateTransitivity();
  }
  std::size_t preferred_batch_size() const override {
    return inner_.preferred_batch_size();
  }
  bool estimates_nonperturbing() const override {
    return inner_.estimates_nonperturbing();
  }
  std::size_t approx_memory_bytes() const override {
    return inner_.approx_memory_bytes();
  }
  bool checkpointable() const override { return inner_.checkpointable(); }
  std::uint64_t config_fingerprint() const override {
    return inner_.config_fingerprint();
  }
  tristream::Status SaveState(tristream::ckpt::ByteSink& sink) override {
    return inner_.SaveState(sink);
  }
  tristream::Status RestoreState(tristream::ckpt::ByteSource& source) override {
    return inner_.RestoreState(source);
  }

 private:
  tristream::engine::StreamingEstimator& inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
