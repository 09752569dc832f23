#include "core/optimizer.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <span>
#include <unordered_set>

#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {
namespace {

std::span<const PoiRef> PoisOf(const OvrTable& ovrs, uint32_t i) {
  return ovrs[i].pois;
}

// Hash and equality of OVR indices by their poi lists, read in place from
// the table: the dedup set holds indices, never copies of the lists.
struct PoiListHash {
  const OvrTable* ovrs;
  size_t operator()(uint32_t i) const {
    size_t h = 1469598103934665603ULL;
    for (const PoiRef& p : PoisOf(*ovrs, i)) {
      h ^= (static_cast<size_t>(p.set) << 32) ^
           static_cast<size_t>(static_cast<uint32_t>(p.object));
      h *= 1099511628211ULL;
    }
    return h;
  }
};

struct PoiListEqual {
  const OvrTable* ovrs;
  bool operator()(uint32_t a, uint32_t b) const {
    const std::span<const PoiRef> pa = PoisOf(*ovrs, a);
    const std::span<const PoiRef> pb = PoisOf(*ovrs, b);
    return std::equal(pa.begin(), pa.end(), pb.begin(), pb.end());
  }
};

// Exact optimal cost of the first two demand points (see batch.cc); adding
// the full problem's constant offset keeps it a valid lower bound of the
// full problem's optimal total cost.
double TwoPointPrefixCost(const std::vector<WeightedPoint>& points,
                          double offset) {
  if (points.size() < 2) return offset;
  return offset + std::min(points[0].weight, points[1].weight) *
                      Distance(points[0].location, points[1].location);
}

// What happened to one OVR. Each worker writes only its OVR's slot; the
// counters are summed from the slots afterwards, so the hot loop touches
// no shared counter.
enum class Fate : uint8_t {
  kNotExamined,  // a duplicate, or skipped after the token fired
  kPrefiltered,  // cut by the two-point prefilter
  kPruned,       // cut by the cost bound mid-solve
  kSolved,
};

struct OvrOutcome {
  Point location;
  double cost = 0.0;  // total cost (Fermat–Weber cost + constant offset)
  uint32_t iterations = 0;
  Fate fate = Fate::kNotExamined;
};

}  // namespace

OptimizerResult OptimizeMovd(const MolqQuery& query, const Movd& movd,
                             const OptimizerOptions& options) {
  MOVD_CHECK_MSG(!movd.ovrs.empty(),
                 "the Optimizer needs a non-empty MOVD to scan");
  // The Optimizer stage span. Per-OVR work is reported as counters on it,
  // not as one span per OVR: at paper scale that is over a million spans,
  // whose recording cost would dominate the stage it measures.
  TraceSpan span("optimizer");
  OptimizerResult result;
  const size_t n = movd.ovrs.size();

  // Deduplication is a serial prefix pass so "first occurrence wins" stays
  // well-defined regardless of scheduling.
  std::vector<uint8_t> duplicate(n, 0);
  if (options.dedup_combinations) {
    std::unordered_set<uint32_t, PoiListHash, PoiListEqual> seen(
        0, PoiListHash{&movd.ovrs}, PoiListEqual{&movd.ovrs});
    for (size_t i = 0; i < n; ++i) {
      MOVD_CHECK(!movd.ovrs[i].pois.empty());
      if (!seen.insert(static_cast<uint32_t>(i)).second) {
        duplicate[i] = 1;
        ++result.stats.deduped;
      }
    }
  }

  // The §5.4 global cost bound (total-cost space), shared by all workers
  // through CAS-min. Both the prefilter and the in-iteration prune compare
  // strictly, so an OVR whose optimum ties the bound always completes: the
  // winner is then a pure (cost, index) decision, bit-identical for every
  // thread count.
  std::atomic<double> bound{std::numeric_limits<double>::infinity()};
  std::vector<OvrOutcome> outcomes(n);

  ParallelFor(options.exec.threads, n, [&](size_t i) {
    // Cancellation checkpoint (serving deadlines): once per claimed OVR.
    // The token latches, so after it fires every worker drains its
    // remaining iterations without doing work.
    if (TokenExpired(options.exec.cancel)) return;
    const std::span<const PoiRef> pois = movd.ovrs[i].pois;
    MOVD_CHECK(!pois.empty());
    if (duplicate[i]) return;
    OvrOutcome& outcome = outcomes[i];

    // One problem buffer per worker thread, reused across its OVRs.
    thread_local std::vector<WeightedPoint> points;
    const double offset = BuildFermatWeberProblem(query, pois, &points);

    if (options.use_two_point_prefilter && points.size() > 3 &&
        TwoPointPrefixCost(points, offset) >
            bound.load(std::memory_order_relaxed)) {
      outcome.fate = Fate::kPrefiltered;
      return;
    }

    FermatWeberOptions fw;
    fw.epsilon = options.epsilon;
    if (options.use_cost_bound) {
      // The solver sees pure Fermat–Weber costs; it shifts its lower bound
      // by this problem's constant offset before comparing.
      fw.shared_cost_bound = &bound;
      fw.shared_bound_offset = offset;
    }
    const FermatWeberResult r = SolveFermatWeber(points, fw);
    outcome.iterations = static_cast<uint32_t>(r.iterations);
    if (r.pruned) {
      outcome.fate = Fate::kPruned;
      return;
    }
    outcome.location = r.location;
    outcome.cost = r.cost + offset;
    outcome.fate = Fate::kSolved;
    AtomicMinDouble(&bound, outcome.cost);
  });

  // One index-order pass sums the counters and finds the winner: minimum
  // total cost, lowest OVR index on ties.
  const OvrOutcome* winner = nullptr;
  for (size_t i = 0; i < n; ++i) {
    const OvrOutcome& o = outcomes[i];
    result.stats.total_iterations += o.iterations;
    switch (o.fate) {
      case Fate::kNotExamined:
        continue;
      case Fate::kPrefiltered:
        ++result.stats.skipped_prefilter;
        break;
      case Fate::kPruned:
        ++result.stats.pruned_by_bound;
        break;
      case Fate::kSolved:
        if (winner == nullptr || o.cost < winner->cost) winner = &o;
        break;
    }
    ++result.stats.problems;
  }
  span.Counter("problems", static_cast<int64_t>(result.stats.problems));
  span.Counter("skipped_prefilter",
               static_cast<int64_t>(result.stats.skipped_prefilter));
  span.Counter("pruned_by_bound",
               static_cast<int64_t>(result.stats.pruned_by_bound));
  span.Counter("weiszfeld_iters",
               static_cast<int64_t>(result.stats.total_iterations));

  // A fired token means an unknown subset of OVRs was skipped: the partial
  // best could be wrong, so no answer is reduced at all.
  if (TokenExpired(options.exec.cancel)) {
    result.cancelled = true;
    return result;
  }
  MOVD_CHECK(winner != nullptr);
  result.location = winner->location;
  result.cost = winner->cost;
  const std::span<const PoiRef> group =
      movd.ovrs[static_cast<size_t>(winner - outcomes.data())].pois;
  result.group.assign(group.begin(), group.end());
  return result;
}

}  // namespace movd
