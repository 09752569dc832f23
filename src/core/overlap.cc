#include "core/overlap.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {
namespace {

// Merges two sorted poi lists into `out` (duplicates collapsed). In the
// MOVD algebra the poi set of an overlap is the union of the operands' poi
// sets (Algorithm 3 line 7 / Algorithm 4 line 6).
void MergePois(std::span<const PoiRef> a, std::span<const PoiRef> b,
               std::vector<PoiRef>* out) {
  out->clear();
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(*out));
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

struct Event {
  double y;
  bool is_start;
  bool from_a;
  uint32_t index;  // OVR index within its MOVD
};

// Event queue: start/end events of every OVR, sorted by descending y;
// at equal y, start events run first so regions touching only along a
// horizontal line still pair up (closed-boundary semantics).
std::vector<Event> SweepEvents(const Movd& a, const Movd& b) {
  TRACE_SPAN("overlap_sort");
  std::vector<Event> events;
  events.reserve(2 * (a.ovrs.size() + b.ovrs.size()));
  for (uint32_t i = 0; i < a.ovrs.size(); ++i) {
    events.push_back({a.ovrs[i].mbr.max_y, true, true, i});
    events.push_back({a.ovrs[i].mbr.min_y, false, true, i});
  }
  for (uint32_t i = 0; i < b.ovrs.size(); ++i) {
    events.push_back({b.ovrs[i].mbr.max_y, true, false, i});
    events.push_back({b.ovrs[i].mbr.min_y, false, false, i});
  }
  // stable_sort: events are generated in (input, OVR index) order, so
  // events tying on (y, is_start) keep that order under every sort
  // implementation and the output OVR order is reproducible.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) {
                     if (x.y != y.y) return x.y > y.y;
                     return x.is_start && !y.is_start;
                   });
  return events;
}

// The active set of one operand: the paper's "balanced search tree sorted
// by start x-coordinates", made output-sensitive. Every OVR gets a static
// rank ordered by mbr.min_x, ties broken by start-event order — exactly the
// key-then-insertion order of a multimap keyed by min_x, so candidates are
// reported in the order such a status structure would list them. Per rank,
// `reach_` holds mbr.max_x while the OVR is active and NaN otherwise; a
// max-tree over buckets of kBucket consecutive ranks lets a query descend
// only into buckets holding an active OVR whose x-range reaches the
// query's: O((k + 1) log n) for k reported candidates instead of a scan
// over every active OVR. A tree over buckets rather than single ranks is
// eight times smaller: at paper scale it saves ~20 MB net of `reach_`.
class ActiveIndex {
 public:
  // `movd` is the operand whose start events in the sorted `events` carry
  // `from_a`.
  ActiveIndex(const Movd& movd, const std::vector<Event>& events, bool from_a) {
    TRACE_SPAN("overlap_index");
    const size_t n = movd.ovrs.size();
    std::vector<std::pair<double, uint32_t>> keyed;  // in start-event order
    keyed.reserve(n);
    for (const Event& e : events) {
      if (e.is_start && e.from_a == from_a) {
        keyed.emplace_back(movd.ovrs[e.index].mbr.min_x, e.index);
      }
    }
    // stable_sort with `<` on min_x: equal keys (−0.0 and 0.0 included)
    // keep their start-event order, as multimap insertion would.
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    min_x_.resize(n);
    index_of_rank_.resize(n);
    rank_of_index_.resize(n);
    for (size_t r = 0; r < n; ++r) {
      min_x_[r] = keyed[r].first;
      index_of_rank_[r] = keyed[r].second;
      rank_of_index_[keyed[r].second] = static_cast<uint32_t>(r);
    }
    reach_.assign(n, kInactive);
    const size_t buckets = (n + kBucket - 1) / kBucket;
    while (leaves_ < buckets) leaves_ *= 2;
    tree_.assign(2 * leaves_, kInactive);
  }

  // Activates OVR `index`, whose mbr.max_x is `max_x`.
  void Insert(uint32_t index, double max_x) {
    const uint32_t rank = rank_of_index_[index];
    reach_[rank] = max_x;
    for (size_t node = leaves_ + rank / kBucket; node >= 1; node /= 2) {
      if (tree_[node] >= max_x) break;  // NaN (empty subtree) compares false
      tree_[node] = max_x;
    }
  }

  void Erase(uint32_t index) {
    const uint32_t rank = rank_of_index_[index];
    reach_[rank] = kInactive;
    size_t node = leaves_ + rank / kBucket;
    double v = kInactive;
    const size_t first = rank - rank % kBucket;
    const size_t last = std::min(reach_.size(), first + kBucket);
    for (size_t r = first; r < last; ++r) v = std::fmax(v, reach_[r]);
    while (true) {
      if (v == tree_[node] || (std::isnan(v) && std::isnan(tree_[node]))) {
        break;  // ancestors already agree with this subtree
      }
      tree_[node] = v;
      if (node == 1) break;
      node /= 2;
      // fmax ignores a NaN operand, so inactive subtrees drop out.
      v = std::fmax(tree_[2 * node], tree_[2 * node + 1]);
    }
  }

  // Calls fn(index) for every active OVR whose x-range overlaps `q`'s
  // (min_x <= q.max_x and max_x >= q.min_x), in rank order.
  template <typename Fn>
  void ForEachOverlapping(const Rect& q, Fn&& fn) const {
    const size_t end = static_cast<size_t>(
        std::upper_bound(min_x_.begin(), min_x_.end(), q.max_x) -
        min_x_.begin());
    if (end > 0) Visit(1, 0, leaves_, end, q.min_x, fn);
  }

 private:
  static constexpr size_t kBucket = 8;
  static constexpr double kInactive = std::numeric_limits<double>::quiet_NaN();

  // Visits tree node `node`, which covers buckets [lo, hi); `end` bounds
  // the ranks whose min_x is within the query's reach.
  template <typename Fn>
  void Visit(size_t node, size_t lo, size_t hi, size_t end, double min_x,
             Fn& fn) const {
    if (!(tree_[node] >= min_x)) return;  // no active reach (or empty)
    if (node >= leaves_) {
      const size_t last = std::min(end, (lo + 1) * kBucket);
      for (size_t r = lo * kBucket; r < last; ++r) {
        if (reach_[r] >= min_x) fn(index_of_rank_[r]);
      }
      return;
    }
    const size_t mid = lo + (hi - lo) / 2;
    Visit(2 * node, lo, mid, end, min_x, fn);
    if (mid * kBucket < end) Visit(2 * node + 1, mid, hi, end, min_x, fn);
  }

  std::vector<double> min_x_;            // by rank, ascending
  std::vector<uint32_t> index_of_rank_;  // rank -> OVR index
  std::vector<uint32_t> rank_of_index_;  // OVR index -> rank
  std::vector<double> reach_;            // by rank: max_x if active, else NaN
  std::vector<double> tree_;  // max of reach_ per bucket subtree; root at 1
  size_t leaves_ = 1;         // bucket leaves at [leaves_, 2 leaves_)
};

// One candidate pair in sweep order: `self` is the OVR whose start event
// found `cand` in the other operand's active set.
struct CandidatePair {
  uint32_t self;
  uint32_t cand;
  bool self_from_a;
};

// Candidate pairs per intersection window. A window bounds the memory the
// sweep holds beyond its output (its pairs and their hits) and is
// handed off as soon as it fills, even in the middle of one start event's
// candidates, so an event that pairs with a whole operand never overruns
// it.
constexpr size_t kWindowPairs = size_t{1} << 15;
// Pairs one worker claims at a time: amortises the shared claim counter,
// and the unit of the flat per-claim hit tables.
constexpr size_t kPairsPerClaim = 256;

// Intersects the sweep's candidate pairs, one window at a time, on
// `threads` threads. Two windows alternate: pool workers intersect the
// window in flight while the sweep fills the other, and the calling thread
// helps finish the window in flight before it appends its hits. Each claim
// of kPairsPerClaim pairs appends its hits, in pair order, to its own flat
// table, and the claims' tables are concatenated in claim order, so the
// output is the same for every thread count.
class PairIntersector {
 public:
  PairIntersector(const Movd& a, const Movd& b, BoundaryMode mode,
                  int threads, Movd* result)
      : a_(a),
        b_(b),
        mode_(mode),
        workers_(ResolveThreads(threads) - 1),
        result_(result),
        pool_(workers_) {
    for (Window& w : windows_) w.pairs.reserve(kWindowPairs);
  }

  ~PairIntersector() { pool_.Wait(); }  // workers read the window in flight

  // Pool tasks hold `this`.
  PairIntersector(const PairIntersector&) = delete;
  PairIntersector& operator=(const PairIntersector&) = delete;

  // Appends one pair; a full window is handed to the workers. Returns
  // false once `cancel` has fired.
  bool Add(const CandidatePair& pair, const CancelToken* cancel) {
    filling_->pairs.push_back(pair);
    return filling_->pairs.size() < kWindowPairs || Launch(cancel);
  }

  // Intersects every pair added so far, unless `cancel` has fired.
  void Finish(const CancelToken* cancel) {
    if (Launch(cancel)) Complete();
  }

  uint64_t intersected() const { return intersected_; }
  uint64_t hits() const { return hits_; }
  uint64_t windows() const { return launched_; }

 private:
  struct Window {
    std::vector<CandidatePair> pairs;
    std::vector<OvrTable> claims;  // hits of claim c; reused across windows
    std::atomic<size_t> next_claim{0};
  };

  // Completes the window in flight, then hands the filling one to the
  // workers. Cancellation checkpoint: once per window; returns false once
  // `cancel` has fired.
  bool Launch(const CancelToken* cancel) {
    Complete();
    if (TokenExpired(cancel)) return false;
    if (filling_->pairs.empty()) return true;
    std::swap(filling_, in_flight_);
    Window* w = in_flight_;
    // Claim tables grow to the largest window launched, so a small overlap
    // (a live-update refold) does not build a full window of them.
    const size_t claims = (w->pairs.size() + kPairsPerClaim - 1) /
                          kPairsPerClaim;
    if (w->claims.size() < claims) w->claims.resize(claims);
    w->next_claim.store(0, std::memory_order_relaxed);
    for (int t = 0; t < workers_; ++t) pool_.Submit([this, w] { Drain(w); });
    ++launched_;
    return true;
  }

  // Finishes the window in flight (the calling thread claims pairs too)
  // and appends its hits in pair order.
  void Complete() {
    Window* w = in_flight_;
    if (w->pairs.empty()) return;
    TRACE_SPAN("overlap_intersect");
    Drain(w);
    pool_.Wait();
    const size_t n = w->pairs.size();
    for (size_t c = 0; c * kPairsPerClaim < n; ++c) {
      OvrTable& hits = w->claims[c];
      result_->ovrs.Append(hits);
      hits_ += hits.size();
      hits.clear();
    }
    intersected_ += n;
    w->pairs.clear();
  }

  // Intersects claimed chunks of `w` until none is left.
  void Drain(Window* w) {
    const size_t n = w->pairs.size();
    for (size_t c; (c = w->next_claim.fetch_add(kPairsPerClaim,
                                                std::memory_order_relaxed)) <
                   n;) {
      const size_t end = std::min(n, c + kPairsPerClaim);
      OvrTable* hits = &w->claims[c / kPairsPerClaim];
      for (size_t i = c; i < end; ++i) {
        const CandidatePair& p = w->pairs[i];
        const Movd& self = p.self_from_a ? a_ : b_;
        const Movd& other = p.self_from_a ? b_ : a_;
        IntersectOvrPair(self.ovrs[p.self], other.ovrs[p.cand], mode_, hits);
      }
    }
  }

  const Movd& a_;
  const Movd& b_;
  const BoundaryMode mode_;
  const int workers_;
  Movd* result_;
  Window windows_[2];
  Window* filling_ = &windows_[0];
  Window* in_flight_ = &windows_[1];
  uint64_t intersected_ = 0;
  uint64_t hits_ = 0;
  uint64_t launched_ = 0;
  ThreadPool pool_;  // last: its workers use the members above
};

}  // namespace

Movd Overlap(const Movd& a, const Movd& b, BoundaryMode mode,
             OverlapStats* stats, const CancelToken* cancel, int threads) {
  TraceSpan span("overlap_step");
  span.Counter("input_ovrs",
               static_cast<int64_t>(a.ovrs.size() + b.ovrs.size()));
  const std::vector<Event> events = SweepEvents(a, b);
  ActiveIndex index_a(a, events, /*from_a=*/true);
  ActiveIndex index_b(b, events, /*from_a=*/false);

  // The sweep is serial and fixes the pair order; the intersector turns
  // pairs into OVRs in that order.
  Movd result;
  PairIntersector intersector(a, b, mode, threads, &result);
  OverlapStats local;
  bool live = true;  // false once the token fired
  for (size_t i = 0; i < events.size() && live; ++i) {
    // Cancellation checkpoint (serving deadlines): every 1024 events, so
    // the clock poll is amortized over a block of sweep work. The caller
    // discards the truncated result when the token fired.
    if (cancel != nullptr && (i & 1023u) == 0 && cancel->Expired()) {
      live = false;
      break;
    }
    const Event& e = events[i];
    ++local.events;
    ActiveIndex& current = e.from_a ? index_a : index_b;
    if (!e.is_start) {
      current.Erase(e.index);
      continue;
    }
    const Rect& mbr = (e.from_a ? a : b).ovrs[e.index].mbr;
    current.Insert(e.index, mbr.max_x);
    // Candidates: active OVRs of the other MOVD whose x-range overlaps.
    const ActiveIndex& others = e.from_a ? index_b : index_a;
    others.ForEachOverlapping(mbr, [&](uint32_t cand) {
      if (!live) return;
      ++local.candidate_pairs;
      live = intersector.Add({e.index, cand, e.from_a}, cancel);
    });
  }
  if (live) intersector.Finish(cancel);
  if (mode == BoundaryMode::kRealRegion) {
    local.region_intersections = intersector.intersected();
  }
  local.output_ovrs = intersector.hits();

  if (stats != nullptr) {
    stats->events += local.events;
    stats->candidate_pairs += local.candidate_pairs;
    stats->region_intersections += local.region_intersections;
    stats->output_ovrs += local.output_ovrs;
  }
  span.Counter("candidate_pairs", static_cast<int64_t>(local.candidate_pairs));
  span.Counter("output_ovrs", static_cast<int64_t>(local.output_ovrs));
  span.Counter("windows", static_cast<int64_t>(intersector.windows()));
  return result;
}

Movd OverlapAll(const std::vector<Movd>& inputs, BoundaryMode mode,
                OverlapStats* stats, const CancelToken* cancel, int threads) {
  MOVD_CHECK_MSG(!inputs.empty(),
                 "sequential overlap needs at least one input MOVD");
  if (inputs.size() == 1) return inputs.front();
  Movd acc;
  for (size_t i = 1; i < inputs.size(); ++i) {
    if (TokenExpired(cancel)) return acc;
    // The fold starts with inputs[0] ⊕ inputs[1]; no copy of inputs[0].
    acc = Overlap(i == 1 ? inputs[0] : acc, inputs[i], mode, stats, cancel,
                  threads);
  }
  return acc;
}

bool IntersectOvrPair(const OvrView& x, const OvrView& y, BoundaryMode mode,
                      OvrTable* out) {
  thread_local std::vector<PoiRef> pois;  // the merged list, reused
  if (mode == BoundaryMode::kMbr) {
    // Algorithm 4: MBR intersection only. Callers guarantee x/y range
    // overlap, so the rectangle intersection is non-empty.
    MergePois(x.pois, y.pois, &pois);
    out->CommitOvr(x.mbr.Intersect(y.mbr), pois);
    return true;
  }
  // Algorithm 3: real region intersection, clipped straight into the
  // output's vertex pool.
  if (AppendRegionIntersection(x.region, y.region,
                               Region::kDefaultMinPieceArea,
                               out->mutable_pieces()) == 0) {
    return false;
  }
  MergePois(x.pois, y.pois, &pois);
  out->CommitOvr(out->PendingRegion().Bbox(), pois);
  return true;
}

Movd OverlapBruteForce(const Movd& a, const Movd& b, BoundaryMode mode) {
  Movd result;
  for (const OvrView x : a.ovrs) {
    for (const OvrView y : b.ovrs) {
      if (!x.mbr.Intersects(y.mbr)) continue;
      IntersectOvrPair(x, y, mode, &result.ovrs);
    }
  }
  return result;
}

}  // namespace movd
