#include "core/triangle_counter.h"

#include <algorithm>
#include <bit>

#include "core/estimator_kernels.h"
#include "util/logging.h"
#include "util/stats.h"

namespace tristream {
namespace core {
namespace {

constexpr std::uint32_t kNil = 0xffffffffu;

double TransitivityFrom(double triangles, double wedges) {
  if (wedges <= 0.0) return 0.0;
  return 3.0 * triangles / wedges;
}

SimdIsa ResolveIsaOrDie(SimdMode mode) {
  const std::optional<SimdIsa> isa = ResolveSimdIsa(mode);
  // Requesting an ISA the CPU lacks is a configuration error;
  // engine::MakeEstimator turns it into InvalidArgument before a counter
  // is ever constructed.
  TRISTREAM_CHECK(isa.has_value());
  return *isa;
}

// Filter sizing: a power of two of at least `bits` so the hash is a pure
// shift, floored at 512 bits and capped at 2^26 bits (8 MiB) so a
// pathological batch cannot own the cache -- past the cap the false-
// positive rate degrades gracefully and only costs redundant probes.
int FilterLog2Bits(std::uint64_t bits) {
  const std::uint64_t target = std::max<std::uint64_t>(512, bits);
  const int log2_bits = 64 - std::countl_zero(target - 1);
  return std::min(log2_bits, 26);
}

std::size_t FilterBytes(int log2_bits) {
  return (std::size_t{1} << log2_bits) / 8;
}

// The batch tables' sizing rules, shared by the batch pipeline and
// MemoryBytes. On batches small against r the batch's vertices filter the
// lane sweep, with 128 bits per edge; on the others the lanes' r1
// endpoints filter the batch index, with ~8 bits per endpoint. Q starts at
// kInitialClosers entries and holds one entry and ~8 filter bits per
// candidate lane, capped for pathological r.
constexpr std::size_t kInitialClosers = 1024;
bool UseBloomFilter(std::uint64_t w, std::uint64_t r) { return w * 8 <= r; }
int BloomLog2Bits(std::uint64_t w) { return FilterLog2Bits(128 * w); }
int LaneFilterLog2Bits(std::uint64_t r) { return FilterLog2Bits(16 * r); }
std::size_t CloserEntries(std::uint64_t candidates) {
  return std::min<std::size_t>(candidates, std::size_t{1} << 22);
}
int CloserLog2Bits(std::uint64_t candidates) {
  return FilterLog2Bits(8 * candidates);
}

// r1 endpoints are stored packed (u in the low word, v in the high word)
// so a candidate touches one cache line instead of two and the kernels
// cover 8 lanes per 512-bit load.
constexpr std::uint64_t PackUv(std::uint32_t u, std::uint32_t v) {
  return static_cast<std::uint64_t>(v) << 32 | u;
}
constexpr std::uint32_t UvLo(std::uint64_t uv) {
  return static_cast<std::uint32_t>(uv);
}
constexpr std::uint32_t UvHi(std::uint64_t uv) {
  return static_cast<std::uint32_t>(uv >> 32);
}

}  // namespace

double AggregateEstimates(const std::vector<double>& values,
                          Aggregation aggregation,
                          std::uint32_t median_groups) {
  switch (aggregation) {
    case Aggregation::kMean:
      return Mean(values);
    case Aggregation::kMedianOfMeans:
      return MedianOfMeans(values, median_groups);
  }
  return Mean(values);
}

// ------------------------------------------------------------------ naive

NaiveTriangleCounter::NaiveTriangleCounter(
    const TriangleCounterOptions& options)
    : options_(options),
      rng_(options.seed),
      estimators_(options.num_estimators) {
  TRISTREAM_CHECK(options.num_estimators > 0);
}

void NaiveTriangleCounter::ProcessEdge(const Edge& e) {
  ++edges_processed_;
  for (NeighborhoodSampler& est : estimators_) est.Process(e, rng_);
}

void NaiveTriangleCounter::ProcessEdges(std::span<const Edge> edges) {
  for (const Edge& e : edges) ProcessEdge(e);
}

double NaiveTriangleCounter::EstimateTriangles() const {
  std::vector<double> values;
  values.reserve(estimators_.size());
  for (const NeighborhoodSampler& est : estimators_) {
    values.push_back(est.TriangleEstimate());
  }
  return AggregateEstimates(values, options_.aggregation,
                            options_.median_groups);
}

double NaiveTriangleCounter::EstimateWedges() const {
  std::vector<double> values;
  values.reserve(estimators_.size());
  for (const NeighborhoodSampler& est : estimators_) {
    values.push_back(est.WedgeEstimate());
  }
  return AggregateEstimates(values, options_.aggregation,
                            options_.median_groups);
}

double NaiveTriangleCounter::EstimateTransitivity() const {
  return TransitivityFrom(EstimateTriangles(), EstimateWedges());
}

// ------------------------------------------------------------------- bulk

TriangleCounter::TriangleCounter(const TriangleCounterOptions& options)
    : options_(options),
      batch_size_(options.batch_size != 0
                      ? options.batch_size
                      : static_cast<std::size_t>(8 * options.num_estimators)),
      isa_(ResolveIsaOrDie(options.simd)),
      kernels_(&kernels::TableFor(isa_)),
      cold_(options.num_estimators),
      r1_pos_(options.num_estimators, kInvalidEdgeIndex),
      c_(options.num_estimators, 0),
      r1_uv_(options.num_estimators, 0),
      index_(batch_size_),
      closer_chain_(options.num_estimators),
      draw2_(options.num_estimators, 0),
      replacers_(options.num_estimators, 0),
      replace_batch_idx_(options.num_estimators, 0),
      candidates_(options.num_estimators, 0) {
  TRISTREAM_CHECK(options.num_estimators > 0);
  // Chain heads and lane lists index estimators with 32-bit values.
  TRISTREAM_CHECK(options.num_estimators < kNil);
  TRISTREAM_CHECK(batch_size_ > 0);
  const auto r = static_cast<std::uint32_t>(options.num_estimators);
  const std::uint32_t workers = std::min(options.num_threads, r);
  // One buffer per batch in flight, capped for huge w.
  const std::size_t reserve =
      std::min<std::size_t>(batch_size_, std::size_t{1} << 22);
  pending_.reserve(reserve);
  // Contiguous lane ranges, the first r % T one lane longer.
  const std::uint32_t num_ranges = std::max<std::uint32_t>(workers, 1);
  ranges_.resize(num_ranges);
  std::uint32_t first = 0;
  for (std::uint32_t k = 0; k < num_ranges; ++k) {
    ranges_[k].first = first;
    first += r / num_ranges + (k < r % num_ranges ? 1 : 0);
    ranges_[k].end = first;
    ranges_[k].closers.Reset(kInitialClosers);
  }
  if (workers == 0) return;
  absorbing_.reserve(reserve);
  batch_barrier_ = std::make_unique<std::barrier<>>(workers);
  ThreadPoolOptions pool_options;
  if (options.pin_threads) pool_options.pin_cpus = AffinityPinPlan(workers);
  pool_ = std::make_unique<ThreadPool>(workers, pool_options);
  all_pinned_ = options.pin_threads;
  for (std::uint32_t k = 0; k < workers && all_pinned_; ++k) {
    all_pinned_ = pool_->pinned(k);
  }
  // Published once: each batch re-dispatches it without constructing a
  // std::function.
  pool_->SetTask([this](std::size_t slot) { RunBatch(slot); });
}

void TriangleCounter::ProcessEdge(const Edge& e) {
  if (view_in_flight_) WaitForInFlight();
  pending_.push_back(e);
  if (pending_.size() >= batch_size_) SubmitPending();
}

void TriangleCounter::ProcessEdges(std::span<const Edge> edges) {
  // The caller may reuse a view's memory once this call returns.
  if (view_in_flight_) WaitForInFlight();
  // Bulk-append up to each batch boundary instead of pushing edge-by-edge.
  std::size_t offset = 0;
  while (offset < edges.size()) {
    const std::size_t take =
        std::min(edges.size() - offset, batch_size_ - pending_.size());
    pending_.insert(pending_.end(), edges.begin() + offset,
                    edges.begin() + offset + take);
    offset += take;
    if (pending_.size() >= batch_size_) SubmitPending();
  }
}

void TriangleCounter::AbsorbBatchView(std::span<const Edge> view) {
  if (!pending_.empty() || view.size() != batch_size_) {
    ProcessEdges(view);
    return;
  }
  WaitForInFlight();
  StartBatch(view);
  view_in_flight_ = in_flight_;
}

void TriangleCounter::Flush() {
  if (!pending_.empty()) SubmitPending();
  WaitForInFlight();
}

void TriangleCounter::SubmitPending() {
  WaitForInFlight();
  if (pool_ != nullptr) {
    // The workers take the filled buffer; the caller fills the other one.
    pending_.swap(absorbing_);
    StartBatch(absorbing_);
  } else {
    StartBatch(pending_);
  }
  pending_.clear();
}

void TriangleCounter::StartBatch(std::span<const Edge> batch) {
  const std::uint64_t w = batch.size();
  const std::uint64_t r = cold_.size();
  // Lanes and batch meet only where a lane's r1 endpoint is a batch
  // vertex, so the smaller side filters the larger one. On batches small
  // against r the lane-sweep filter gets 64 bits per inserted vertex (at
  // most 2w): a false positive sends a lane through two index probes, so
  // at r >> w lanes even a few percent would dominate the batch. On the
  // others nearly every lane has an in-batch endpoint, so the sweep runs
  // filterless (every lane a candidate) and the lanes' r1 endpoints filter
  // the index instead: it then holds only the incidences lanes can read.
  // Neither filter has false negatives, and the cutoff is a pure function
  // of (w, r), never of the ISA or the lane ranges, so dispatch stays
  // bit-identical.
  job_.edges = batch;
  job_.m_before = applied_edges_;
  job_.batch_no = batch_no_;
  job_.filter_lanes = UseBloomFilter(w, r);
  job_.log2_bits =
      job_.filter_lanes ? BloomLog2Bits(w) : LaneFilterLog2Bits(r);
  applied_edges_ += w;
  ++batch_no_;
  if (pool_ == nullptr) {
    RunBatch(0);
    return;
  }
  pool_->Dispatch();
  in_flight_ = true;
}

void TriangleCounter::WaitForInFlight() {
  if (!in_flight_) return;
  pool_->Wait();
  in_flight_ = false;
  view_in_flight_ = false;
}

void TriangleCounter::RunBatch(std::size_t slot) {
  LaneRange& range = ranges_[slot];
  if (job_.filter_lanes) {
    // The sweep probes the batch's Bloom filter, so the tables come first.
    if (slot == 0) BuildBatchTables();
    AwaitWorkers();
    SweepLanes(range);
  } else {
    // The index is filtered by every lane's r1 after this batch's
    // replacements, so every sweep comes first.
    SweepLanes(range);
    AwaitWorkers();
    if (slot == 0) BuildBatchTables();
    AwaitWorkers();
  }
  ResolveLanes(range);
}

void TriangleCounter::AwaitWorkers() {
  if (ranges_.size() > 1) batch_barrier_->arrive_and_wait();
}

void TriangleCounter::BuildBatchTables() {
  const int log2_bits = job_.log2_bits;
  bloom_.assign(std::size_t{1} << (log2_bits - 6), 0);
  const auto insert = [this, log2_bits](VertexId x) {
    const std::uint64_t bit = kernels::BloomBitIndex(x, log2_bits);
    bloom_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  };
  // Algorithm 2, once: every kept incidence's β snapshot and every kept
  // vertex's EVENTB positions (core/bulk_engine.h).
  if (job_.filter_lanes) {
    for (const Edge& e : job_.edges) {
      insert(e.u);
      insert(e.v);
    }
    index_.Build(job_.edges, BatchIndex::kKeepAll);
  } else {
    // Lanes read the index only at their r1 endpoints (Observation 3.6),
    // so the filter takes every lane's r1 after this batch: a replacer's
    // chosen batch edge, which Step 1 installs, or the r1 it holds.
    for (const LaneRange& range : ranges_) {
      const std::uint32_t first = range.first;
      std::size_t kr = 0;
      for (std::uint32_t i = first; i < range.end; ++i) {
        std::uint64_t uv = r1_uv_[i];
        if (kr < range.swept.replacers && first + replacers_[first + kr] == i) {
          const Edge& e = job_.edges[replace_batch_idx_[first + kr++]];
          uv = PackUv(e.u, e.v);
        }
        insert(UvLo(uv));
        insert(UvHi(uv));
      }
    }
    index_.Build(job_.edges, {bloom_.data(), log2_bits});
  }
}

void TriangleCounter::SweepLanes(LaneRange& range) {
  // ---------------------------------------------------------------------
  // Step 0 -- fused lane sweep (SIMD kernel). Every estimator draws its
  // Threefry block for this batch: word 0 decides the level-1 replacement
  // (keep with probability m/(m+w), Sec. 3.3's reservoir step) and picks
  // the replacement batch edge in the same draw; word 1 feeds the Step-2b
  // candidate draw. On batches small against r the same pass probes a
  // Bloom filter of the batch's vertices with each lane's r1 endpoints: a
  // lane only has level-2 work when one of its endpoints gained in-batch
  // neighbors. No false negatives -- a filtered lane's endpoints are
  // absent from the batch, and replacing lanes are candidates
  // unconditionally. Lanes are independent streams keyed (seed, global
  // lane), so every ISA and every lane range produces the same bits.
  // ---------------------------------------------------------------------
  const std::uint32_t first = range.first;
  range.swept = kernels_->lane_sweep(
      {.seed = options_.seed, .batch_no = job_.batch_no,
       .m_before = job_.m_before, .w = job_.edges.size(),
       .lanes = range.end - first, .lane_base = first,
       .bloom = job_.filter_lanes ? bloom_.data() : nullptr,
       .log2_bits = job_.log2_bits, .r1_uv = r1_uv_.data() + first,
       .replacers = replacers_.data() + first,
       .batch_idx = replace_batch_idx_.data() + first,
       .candidates = candidates_.data() + first,
       .draw2 = draw2_.data() + first});
}

void TriangleCounter::ResolveLanes(LaneRange& range) {
  const std::span<const Edge> batch = job_.edges;
  const std::uint64_t m_before = job_.m_before;
  const std::uint64_t w = batch.size();
  // The range's slices of the lane-sized scratch arrays. Lists hold
  // range-local lane indices; `first + i` is the global lane.
  const std::uint32_t first = range.first;
  const std::uint32_t* const replacers = replacers_.data() + first;
  const std::uint32_t* const replace_batch_idx =
      replace_batch_idx_.data() + first;
  const std::uint32_t* const candidates = candidates_.data() + first;
  const std::uint64_t* const draw2 = draw2_.data() + first;
  CloserLink* const closer_chain = closer_chain_.data() + first;
  const std::size_t num_replacers = range.swept.replacers;
  const std::size_t num_candidates = range.swept.candidates;

  // ---------------------------------------------------------------------
  // Steps 1, 2a, 2b -- one pass over the candidate lanes. A replacing lane
  // installs its chosen batch edge as r1 and reads β(r1) from the index
  // (every other lane has β = 0). Then Algorithm 3 draws the level-2 edge
  // over c− old candidates plus c+ = a + b in-batch ones: keep the current
  // r2, or take EVENTB(x, d), which the index resolves on the spot.
  // ---------------------------------------------------------------------
  // Each candidate subscribes at most once, so Q and its key filter are
  // sized by the candidate count; with few candidates they stay in cache.
  // The filter (~8 bits per candidate) lets the closer pass skip the Q
  // probe for the batch edges that close nothing, nearly all of them. A
  // key sets two bits of one word: the hash's top bits pick the word, the
  // 12 bits below them the two bits, so a probe still loads one word.
  FlatHashMap<std::uint32_t>& closers = range.closers;
  std::vector<std::uint64_t>& closer_filter = range.closer_filter;
  closers.Reset(CloserEntries(num_candidates));
  const int closer_shift = 64 - (CloserLog2Bits(num_candidates) - 6);
  closer_filter.assign(std::size_t{1} << (64 - closer_shift), 0);
  struct CloserBits {
    std::size_t word;
    std::uint64_t mask;
  };
  const auto closer_bits = [closer_shift](std::uint64_t key) {
    const std::uint64_t h = key * kernels::kBloomHashMul;
    return CloserBits{h >> closer_shift,
                      std::uint64_t{1} << (h >> (closer_shift - 6) & 63) |
                          std::uint64_t{1} << (h >> (closer_shift - 12) & 63)};
  };

  // Open wedges subscribe their closing edge in Q, chained by candidate-
  // list position k (dense, so the chain stays within a few cache lines),
  // with the first batch position that may close them: 0 for a kept r2,
  // p + 1 for an r2 chosen at position p.
  auto subscribe_closer = [&](std::uint32_t k, std::uint32_t est_idx,
                              std::uint32_t from) {
    const std::uint64_t uv = r1_uv_[est_idx];
    const Edge r1(UvLo(uv), UvHi(uv));
    const std::uint64_t key = ClosingEdge(r1, cold_[est_idx].r2).Key();
    const CloserBits bits = closer_bits(key);
    closer_filter[bits.word] |= bits.mask;
    std::uint32_t& head = closers[key];
    closer_chain[k] = {head == 0 ? kNil : head - 1, from};
    head = k + 1;
  };

  // Both sweep lists are ascending and every replacer is a candidate, so a
  // two-pointer merge pairs each replacer with its chosen batch edge.
  std::size_t kr = 0;
  for (std::size_t k = 0; k < num_candidates; ++k) {
    const std::uint32_t i = first + candidates[k];
    if (k + 8 < num_candidates) {
      // The lane indices are data-dependent; hint the lane-indexed arrays a
      // few candidates ahead so their cache misses overlap this iteration.
      const std::uint32_t pi = first + candidates[k + 8];
      __builtin_prefetch(&c_[pi]);
      __builtin_prefetch(&cold_[pi]);
      __builtin_prefetch(&r1_uv_[pi]);
    }
    ColdState& st = cold_[i];
    std::uint64_t uv;
    BatchIndex::Position ends = {{0, 0}, {0, 0}};  // r1's endpoint ids, β
    if (kr < num_replacers && first + replacers[kr] == i) {
      // Replacers read the index at random positions: hint the lines of
      // the ones 16 and 8 replacers ahead (bulk_engine.h).
      if (kr + 16 < num_replacers) {
        index_.PrefetchLocator(replace_batch_idx[kr + 16]);
      }
      if (kr + 8 < num_replacers) {
        index_.PrefetchEntries(replace_batch_idx[kr + 8]);
      }
      const std::uint32_t pos = replace_batch_idx[kr++];
      uv = PackUv(batch[pos].u, batch[pos].v);
      r1_uv_[i] = uv;
      r1_pos_[i] = m_before + pos;
      st = ColdState();
      c_[i] = 0;
      ends = index_.position(pos);
    } else {
      // Every lane replaces in the very first batch (pick < m_before is
      // impossible at m_before = 0), so r1 is always set by now.
      TRISTREAM_DCHECK(r1_pos_[i] != kInvalidEdgeIndex);
      uv = r1_uv_[i];
      ends.id[0] = index_.IdOf(UvLo(uv));
      ends.id[1] = index_.IdOf(UvHi(uv));
    }
    const std::uint64_t a = index_.Degree(ends.id[0]) - ends.beta[0];
    const std::uint64_t b = index_.Degree(ends.id[1]) - ends.beta[1];
    if (a + b == 0) {
      // No in-batch neighbors after all (a Bloom false positive, a
      // filterless lane, or an r1 that no later batch edge touches).
      continue;
    }
    const std::uint64_t c_minus = c_[i];
    const std::uint64_t c_total = c_minus + a + b;
    c_[i] = c_total;
    // randInt(1, c_total) from the lane's second Threefry word; draw2 is
    // compacted alongside candidates, so index by list position.
    const std::uint64_t phi = 1 + MulHi64(draw2[k], c_total);
    if (phi <= c_minus) {
      // Keep the current r2; its wedge may still be closed by a batch edge.
      if (st.r2_pos != kInvalidEdgeIndex && !st.has_triangle) {
        subscribe_closer(static_cast<std::uint32_t>(k), i, 0);
      }
      continue;
    }
    // Algorithm 3 names EVENTB(x, d) for the chosen in-batch edge; the
    // index holds its position.
    const int side = phi <= c_minus + a ? 0 : 1;
    const VertexId x = side == 0 ? UvLo(uv) : UvHi(uv);
    const std::uint64_t d =
        ends.beta[side] + (phi - c_minus) - (side == 0 ? 0 : a);
    TRISTREAM_CHECK(d >= 1 && d <= index_.Degree(ends.id[side]));
    const std::uint32_t pos =
        index_.EventB(ends.id[side], static_cast<std::uint32_t>(d));
    TRISTREAM_CHECK(batch[pos].Contains(x));
    st.r2 = batch[pos];
    st.r2_pos = m_before + pos;
    st.has_triangle = false;
    subscribe_closer(static_cast<std::uint32_t>(k), i, pos + 1);
  }
  TRISTREAM_CHECK_EQ(kr, num_replacers);

  // Steps 2c + 3 -- the one remaining pass over the batch (the paper's
  // Sec. 4 notes merge these): each edge closes the subscribed wedges
  // whose r2 precedes it.
  if (!closers.empty()) {
    for (std::size_t j = 0; j < w; ++j) {
      const std::uint64_t key = batch[j].Key();
      const CloserBits bits = closer_bits(key);
      if ((closer_filter[bits.word] & bits.mask) != bits.mask) continue;
      const std::uint32_t* head = closers.Find(key);
      if (head == nullptr) continue;
      for (std::uint32_t k = *head - 1; k != kNil;
           k = closer_chain[k].next) {
        if (j >= closer_chain[k].from) {
          cold_[first + candidates[k]].has_triangle = true;
        }
      }
    }
  }
}

std::vector<double> TriangleCounter::PerEstimatorTriangleEstimates() {
  Flush();
  std::vector<double> values;
  values.reserve(cold_.size());
  const auto m = static_cast<double>(applied_edges_);
  for (std::size_t i = 0; i < cold_.size(); ++i) {
    values.push_back(cold_[i].has_triangle ? static_cast<double>(c_[i]) * m
                                           : 0.0);
  }
  return values;
}

std::vector<double> TriangleCounter::PerEstimatorWedgeEstimates() {
  Flush();
  std::vector<double> values;
  values.reserve(c_.size());
  const auto m = static_cast<double>(applied_edges_);
  for (const std::uint64_t c : c_) {
    values.push_back(static_cast<double>(c) * m);
  }
  return values;
}

double TriangleCounter::EstimateTriangles() {
  return AggregateEstimates(PerEstimatorTriangleEstimates(),
                            options_.aggregation, options_.median_groups);
}

double TriangleCounter::EstimateWedges() {
  return AggregateEstimates(PerEstimatorWedgeEstimates(),
                            options_.aggregation, options_.median_groups);
}

double TriangleCounter::EstimateTransitivity() {
  return TransitivityFrom(EstimateTriangles(), EstimateWedges());
}

const std::vector<EstimatorState>& TriangleCounter::estimators() {
  Flush();
  snapshot_.resize(cold_.size());
  for (std::size_t i = 0; i < cold_.size(); ++i) {
    EstimatorState& st = snapshot_[i];
    st.r1 = Edge(UvLo(r1_uv_[i]), UvHi(r1_uv_[i]));
    st.r2 = cold_[i].r2;
    st.r1_pos = r1_pos_[i];
    st.r2_pos = cold_[i].r2_pos;
    st.c = c_[i];
    st.has_triangle = cold_[i].has_triangle;
  }
  return snapshot_;
}

void TriangleCounter::SaveState(ckpt::ByteSink& sink) {
  WaitForInFlight();
  sink.WriteU64(applied_edges_);
  // The counter-based RNG's entire position is the batch number -- one
  // word where the sequential generator needed its 256-bit state.
  sink.WriteU64(batch_no_);
  sink.WriteU64(cold_.size());
  for (std::size_t i = 0; i < cold_.size(); ++i) {
    const ColdState& cs = cold_[i];
    sink.WriteU32(UvLo(r1_uv_[i]));
    sink.WriteU32(UvHi(r1_uv_[i]));
    sink.WriteU64(r1_pos_[i]);
    sink.WriteU64(c_[i]);
    sink.WriteU32(cs.r2.u);
    sink.WriteU32(cs.r2.v);
    sink.WriteU64(cs.r2_pos);
    sink.WriteU8(cs.has_triangle ? 1 : 0);
  }
  sink.WriteU64(pending_.size());
  for (const Edge& e : pending_) {
    sink.WriteU32(e.u);
    sink.WriteU32(e.v);
  }
}

Status TriangleCounter::RestoreState(ckpt::ByteSource& source) {
  WaitForInFlight();
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&applied_edges_));
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&batch_no_));
  std::uint64_t count = 0;
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&count));
  if (count != cold_.size()) {
    return Status::CorruptData(
        "estimator count mismatch: snapshot holds " + std::to_string(count) +
        " estimators, this counter is configured for " +
        std::to_string(cold_.size()));
  }
  // Overwrite the existing arrays in place: they are already sized r.
  for (std::size_t i = 0; i < cold_.size(); ++i) {
    ColdState& cs = cold_[i];
    std::uint8_t flags = 0;
    std::uint32_t r1_u = 0;
    std::uint32_t r1_v = 0;
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&r1_u));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&r1_v));
    r1_uv_[i] = PackUv(r1_u, r1_v);
    TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&r1_pos_[i]));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&c_[i]));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&cs.r2.u));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&cs.r2.v));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&cs.r2_pos));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU8(&flags));
    if (flags > 1) {
      return Status::CorruptData("estimator " + std::to_string(i) +
                                 " carries unknown flag bits");
    }
    cs.has_triangle = flags != 0;
  }
  std::uint64_t pending_count = 0;
  TRISTREAM_RETURN_IF_ERROR(source.ReadU64(&pending_count));
  if (pending_count > source.remaining() / 8) {
    return Status::CorruptData(
        "pending-edge count " + std::to_string(pending_count) +
        " exceeds the bytes left in the snapshot");
  }
  pending_.clear();
  pending_.reserve(pending_count);
  for (std::uint64_t i = 0; i < pending_count; ++i) {
    Edge e;
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&e.u));
    TRISTREAM_RETURN_IF_ERROR(source.ReadU32(&e.v));
    pending_.push_back(e);
  }
  return Status::Ok();
}

TriangleCounter::MemoryStats TriangleCounter::ApproxMemoryUsage() {
  WaitForInFlight();
  MemoryStats stats;
  stats.per_estimator_bytes = sizeof(EstimatorState);
  stats.estimator_bytes =
      cold_.capacity() * sizeof(ColdState) +
      r1_pos_.capacity() * sizeof(EdgeIndex) +
      c_.capacity() * sizeof(std::uint64_t) +
      r1_uv_.capacity() * sizeof(std::uint64_t) +
      snapshot_.capacity() * sizeof(EstimatorState);
  stats.batch_scratch_bytes =
      (pending_.capacity() + absorbing_.capacity()) * sizeof(Edge) +
      index_.MemoryBytes() + closer_chain_.capacity() * sizeof(CloserLink) +
      (replacers_.capacity() + replace_batch_idx_.capacity() +
       candidates_.capacity()) *
          sizeof(std::uint32_t) +
      (draw2_.capacity() + bloom_.capacity()) * sizeof(std::uint64_t);
  for (const LaneRange& range : ranges_) {
    stats.batch_scratch_bytes +=
        range.closers.MemoryBytes() +
        range.closer_filter.capacity() * sizeof(std::uint64_t);
  }
  return stats;
}

std::size_t TriangleCounter::MemoryBytes() const {
  const std::uint64_t r = cold_.size();
  const std::size_t w = batch_size_;
  // Per lane: the SoA estimator arrays, its Q chain link, its Step-2b draw
  // word and its slots in the replacer and candidate lists.
  const std::size_t per_lane =
      sizeof(ColdState) + sizeof(EdgeIndex) + 3 * sizeof(std::uint64_t) +
      sizeof(CloserLink) + 3 * sizeof(std::uint32_t);
  const std::size_t buffers = pool_ != nullptr ? 2 : 1;
  // The filter on either side of the lane/batch join. At w > r/8 a
  // stream's short last batch may take the other side, within the same
  // bound (its Bloom filter is at most the lane filter's size).
  std::size_t bytes = r * per_lane + buffers * w * sizeof(Edge) +
                      BatchIndex::BytesFor(w) +
                      FilterBytes(UseBloomFilter(w, r) ? BloomLog2Bits(w)
                                                       : LaneFilterLog2Bits(r));
  // Each range's Q holds an entry and ~8 filter bits per candidate lane.
  for (const LaneRange& range : ranges_) {
    const std::uint64_t lanes = range.end - range.first;
    bytes += FlatHashMap<std::uint32_t>::BytesFor(
                 std::max(kInitialClosers, CloserEntries(lanes))) +
             FilterBytes(CloserLog2Bits(lanes));
  }
  return bytes;
}

}  // namespace core
}  // namespace tristream
