// StreamingEstimator adapters for every triangle estimator in the repo,
// plus the name-based factory the CLI and benches share.
//
// One class template, CounterEstimator<Counter>, adapts every counter. It
// owns the counter and forwards the interface; Reset() reconstructs the
// counter from the stored options (same seed, same configuration), which
// is exactly "back to the freshly constructed state" for every engine
// here. The counter stays reachable through counter() for
// algorithm-specific reads (worker counts, success rates, chain lengths,
// estimator state inspection in tests).
//
// What a counter's interface states, the template detects:
//   * AbsorbBatchView: the bulk counter absorbs an engine view of one
//     whole batch in place, with no staging copy, and buffers any other.
//     The view lifetime the interface demands (valid until the next
//     ProcessEdges/Flush) is exactly what its workers need. Other
//     counters absorb through ProcessEdges, or, with only per-event
//     absorption, edge by edge as inserts.
//   * ProcessEvents marks a turnstile counter (supports_deletions);
//     EstimateWedges, SaveState/RestoreState, Flush, batch_size and
//     MemoryBytes back the matching estimator reads.
//   * pending_edges: estimates are non-perturbing exactly when no partial
//     batch is buffered, since Flush() would absorb it early and change
//     the RNG trajectory.
// What the interface does not state sits in CounterTraits<Counter>: the
// name, the options type, the fingerprint fields, the memory rule of
// counters without MemoryBytes, and the pull size of per-edge counters.
//
// The bulk counter batches at its own w whatever views the engine hands
// it, so engine batch boundaries never change its estimates. "tsb" and
// "bulk" are that one counter under two names: MakeEstimator gives tsb
// worker threads and bulk none. The baselines (Buriol, colorful,
// Jowhari-Ghodsi, first-edge exhaustive) are strictly per-edge
// algorithms: batch boundaries cannot affect their output.

#ifndef TRISTREAM_ENGINE_ESTIMATORS_H_
#define TRISTREAM_ENGINE_ESTIMATORS_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "baseline/buriol.h"
#include "baseline/colorful.h"
#include "baseline/jowhari_ghodsi.h"
#include "ckpt/serial.h"
#include "core/dynamic_counter.h"
#include "core/sliding_window.h"
#include "core/triangle_counter.h"
#include "engine/streaming_estimator.h"
#include "util/status.h"
#include "util/types.h"

namespace tristream {
namespace engine {

/// Per-algorithm facts a counter's interface does not state: `Options`
/// and `kName` always; `MixConfig` (the fingerprinted configuration,
/// after the name) for checkpointable counters; optionally `kPerEdgeBatch`
/// and `MemoryBytes(options)`.
template <typename Counter>
struct CounterTraits;

template <>
struct CounterTraits<core::TriangleCounter> {
  using Options = core::TriangleCounterOptions;
  static constexpr const char* kName = "bulk";
  /// The resolved batch size stands in for options.batch_size == 0. The
  /// simd mode, thread count and pinning are deliberately absent: they
  /// never change a bit, so snapshots restore across all of them.
  static void MixConfig(ckpt::ConfigFingerprint& fp, const Options& o,
                        const core::TriangleCounter& counter) {
    fp.Mix(o.num_estimators);
    fp.Mix(o.seed);
    fp.Mix(static_cast<std::uint64_t>(o.aggregation));
    fp.Mix(o.median_groups);
    fp.Mix(counter.batch_size());
  }
};

/// The bulk counter under the paper's name, as MakeEstimator builds it for
/// "tsb" (with worker threads). Only the name differs from "bulk", and
/// with it the fingerprint: a snapshot restores under the name it was
/// taken with.
struct TsbTraits : CounterTraits<core::TriangleCounter> {
  static constexpr const char* kName = "tsb";
};

template <>
struct CounterTraits<core::SlidingWindowTriangleCounter> {
  using Options = core::SlidingWindowOptions;
  static constexpr const char* kName = "window";
  /// The chain update is strictly per-edge; 4K-edge pulls just amortize a
  /// live queue's lock traffic.
  static constexpr std::size_t kPerEdgeBatch = 4096;
  /// Coarse: the buffered window of edges plus r chain states.
  static std::size_t MemoryBytes(const Options& o) {
    return static_cast<std::size_t>(o.window_size) * sizeof(Edge) +
           static_cast<std::size_t>(o.num_estimators) * 64;
  }
  static void MixConfig(ckpt::ConfigFingerprint& fp, const Options& o,
                        const core::SlidingWindowTriangleCounter&) {
    fp.Mix(o.window_size);
    fp.Mix(o.num_estimators);
    fp.Mix(o.seed);
    fp.Mix(static_cast<std::uint64_t>(o.aggregation));
    fp.Mix(o.median_groups);
  }
};

template <>
struct CounterTraits<core::DynamicTriangleCounter> {
  using Options = core::DynamicCounterOptions;
  static constexpr const char* kName = "dynamic";
  /// The sketch update is strictly per-event; moderate pulls amortize
  /// source lock traffic without changing anything the sketch computes.
  static constexpr std::size_t kPerEdgeBatch = 4096;
  static void MixConfig(ckpt::ConfigFingerprint& fp, const Options& o,
                        const core::DynamicTriangleCounter&) {
    fp.Mix(o.num_groups);
    fp.Mix(o.seed);
    std::uint64_t p_bits;
    std::memcpy(&p_bits, &o.sample_probability, sizeof(p_bits));
    fp.Mix(p_bits);
    fp.Mix(static_cast<std::uint64_t>(o.aggregation));
    fp.Mix(o.median_groups);
  }
};

template <>
struct CounterTraits<baseline::BuriolCounter> {
  using Options = baseline::BuriolCounter::Options;
  static constexpr const char* kName = "buriol";
};

template <>
struct CounterTraits<baseline::ColorfulTriangleCounter> {
  using Options = baseline::ColorfulTriangleCounter::Options;
  static constexpr const char* kName = "colorful";
};

template <>
struct CounterTraits<baseline::JowhariGhodsiCounter> {
  using Options = baseline::JowhariGhodsiCounter::Options;
  static constexpr const char* kName = "jg";
};

template <>
struct CounterTraits<baseline::FirstEdgeExhaustiveCounter> {
  using Options = baseline::FirstEdgeExhaustiveCounter::Options;
  static constexpr const char* kName = "first-edge";
};

/// The one adapter: see the file comment for what it detects.
template <typename Counter, typename Traits = CounterTraits<Counter>>
class CounterEstimator final : public StreamingEstimator {
 public:
  using Options = typename Traits::Options;

  explicit CounterEstimator(const Options& options)
      : options_(options), counter_(std::make_unique<Counter>(options)) {}

  const char* name() const override { return Traits::kName; }
  void ProcessEdges(std::span<const Edge> edges) override {
    if constexpr (requires { counter_->AbsorbBatchView(edges); }) {
      counter_->AbsorbBatchView(edges);
    } else if constexpr (requires { counter_->ProcessEdges(edges); }) {
      counter_->ProcessEdges(edges);
    } else {
      for (const Edge& e : edges) counter_->ProcessEvent(e, EdgeOp::kInsert);
    }
  }
  bool supports_deletions() const override { return kTurnstile; }
  void ProcessEvents(const EventBatchView& view) override {
    if constexpr (kTurnstile) {
      counter_->ProcessEvents(view);
    } else {
      ProcessEdges(view.edges);
    }
  }
  void Flush() override {
    if constexpr (requires { counter_->Flush(); }) counter_->Flush();
  }
  void Reset() override { counter_ = std::make_unique<Counter>(options_); }
  /// Turnstile counters count events (inserts + deletes), matching how
  /// the session and checkpoint cadence count delivered batch entries.
  std::uint64_t edges_processed() const override {
    if constexpr (requires { counter_->edges_processed(); }) {
      return counter_->edges_processed();
    } else if constexpr (requires { counter_->events_seen(); }) {
      return counter_->events_seen();
    } else {
      return counter_->edges_seen();
    }
  }
  double EstimateTriangles() override { return counter_->EstimateTriangles(); }
  bool has_wedge_estimates() const override { return kWedges; }
  double EstimateWedges() override {
    if constexpr (kWedges) return counter_->EstimateWedges();
    return 0.0;
  }
  double EstimateTransitivity() override {
    if constexpr (kWedges) return counter_->EstimateTransitivity();
    return 0.0;
  }
  std::size_t preferred_batch_size() const override {
    if constexpr (requires { counter_->batch_size(); }) {
      return counter_->batch_size();
    } else if constexpr (requires { Traits::kPerEdgeBatch; }) {
      return Traits::kPerEdgeBatch;
    }
    return 0;
  }
  bool estimates_nonperturbing() const override {
    if constexpr (requires { counter_->pending_edges(); }) {
      return counter_->pending_edges() == 0;
    }
    return true;
  }
  std::size_t approx_memory_bytes() const override {
    if constexpr (requires { counter_->MemoryBytes(); }) {
      return counter_->MemoryBytes();
    } else if constexpr (requires { Traits::MemoryBytes(options_); }) {
      return Traits::MemoryBytes(options_);
    }
    return 0;
  }
  bool checkpointable() const override { return kCheckpointable; }
  std::uint64_t config_fingerprint() const override {
    if constexpr (kCheckpointable) {
      ckpt::ConfigFingerprint fp;
      fp.Mix(name());
      Traits::MixConfig(fp, options_, *counter_);
      return fp.value();
    }
    return 0;
  }
  Status SaveState(ckpt::ByteSink& sink) override {
    if constexpr (kCheckpointable) {
      counter_->SaveState(sink);
      return Status::Ok();
    }
    return StreamingEstimator::SaveState(sink);
  }
  Status RestoreState(ckpt::ByteSource& source) override {
    if constexpr (kCheckpointable) return counter_->RestoreState(source);
    return StreamingEstimator::RestoreState(source);
  }

  Counter& counter() { return *counter_; }

 private:
  static constexpr bool kTurnstile =
      requires(Counter& c, const EventBatchView& view) {
        c.ProcessEvents(view);
      };
  static constexpr bool kWedges = requires(Counter& c) {
    c.EstimateWedges();
    c.EstimateTransitivity();
  };
  static constexpr bool kCheckpointable =
      requires(Counter& c, ckpt::ByteSink& sink, ckpt::ByteSource& source) {
        c.SaveState(sink);
        c.RestoreState(source);
      };

  Options options_;
  std::unique_ptr<Counter> counter_;
};

/// Bulk neighborhood-sampling counter (Theorem 3.5).
using BulkEstimator = CounterEstimator<core::TriangleCounter>;
/// The same counter named "tsb", the repo's headline engine.
using TsbEstimator = CounterEstimator<core::TriangleCounter, TsbTraits>;
/// Sequence-based sliding-window counter (Sec. 5.2). Estimates describe
/// the most recent window_size edges, not the whole stream.
using SlidingWindowEstimator =
    CounterEstimator<core::SlidingWindowTriangleCounter>;
/// Hash-sampling turnstile counter (after Bulteau et al.,
/// arXiv:1404.4696): the one estimator in the repo that absorbs delete
/// events, estimating the live graph's triangle count.
using DynamicEstimator = CounterEstimator<core::DynamicTriangleCounter>;
/// Buriol et al. uniform-apex baseline (paper reference [5]).
using BuriolStreamEstimator = CounterEstimator<baseline::BuriolCounter>;
/// Pagh-Tsourakakis colorful sparsification baseline (reference [16]).
using ColorfulStreamEstimator =
    CounterEstimator<baseline::ColorfulTriangleCounter>;
/// Jowhari-Ghodsi blind-slot baseline (reference [9]).
using JowhariGhodsiStreamEstimator =
    CounterEstimator<baseline::JowhariGhodsiCounter>;
/// Idealized O(Δ)-space first-edge exhaustive baseline.
using FirstEdgeStreamEstimator =
    CounterEstimator<baseline::FirstEdgeExhaustiveCounter>;

/// Cross-algorithm configuration for the factory. Fields irrelevant to the
/// selected algorithm are ignored; fields an algorithm *requires* in
/// advance (Buriol's vertex universe, JG's degree bound) are validated.
struct EstimatorConfig {
  std::uint64_t num_estimators = 1 << 17;
  std::uint64_t seed = 1;
  /// tsb only: worker threads (0 = hardware concurrency); bulk absorbs
  /// inline. Never changes an estimate.
  std::uint32_t num_threads = 1;
  core::Aggregation aggregation = core::Aggregation::kMean;
  std::uint32_t median_groups = 12;
  /// tsb/bulk: batch size w (0 = 8r).
  std::size_t batch_size = 0;
  /// tsb/bulk: vector ISA for the lane sweeps (--simd). Bit-identical
  /// estimates under every choice; validated against the host CPU by
  /// MakeEstimator.
  SimdMode simd = SimdMode::kAuto;
  /// tsb only: pin worker k to the k-th allowed cpu (--pin); see
  /// core::TriangleCounterOptions::pin_threads.
  bool pin_threads = false;
  /// window only.
  std::uint64_t window_size = 1 << 16;
  /// dynamic only: independent hash groups.
  std::uint32_t dynamic_groups = 16;
  /// dynamic only: per-edge sampling probability p in (0, 1].
  double sample_probability = 0.5;
  /// buriol only: the advance-known vertex universe (required, > 0).
  VertexId num_vertices = 0;
  /// jg only: the a-priori degree bound Δ (required, > 0).
  std::uint64_t max_degree_bound = 0;
  /// colorful only.
  std::uint32_t num_colors = 8;
};

/// Builds the estimator named `algo`: "tsb" (the paper's algorithm on
/// worker threads), "bulk" (the same, inline), "window", "dynamic"
/// (turnstile), "buriol", "colorful", "jg", "first-edge". InvalidArgument
/// on an unknown name or a missing required parameter.
Result<std::unique_ptr<StreamingEstimator>> MakeEstimator(
    const std::string& algo, const EstimatorConfig& config);

/// The algo names MakeEstimator accepts, for usage strings.
const char* KnownAlgos();

}  // namespace engine
}  // namespace tristream

#endif  // TRISTREAM_ENGINE_ESTIMATORS_H_
