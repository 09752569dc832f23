#include "core/optimizer.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <unordered_set>

#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {
namespace {

struct PoiListHash {
  size_t operator()(const std::vector<PoiRef>& pois) const {
    size_t h = 1469598103934665603ULL;
    for (const PoiRef& p : pois) {
      h ^= (static_cast<size_t>(p.set) << 32) ^
           static_cast<size_t>(static_cast<uint32_t>(p.object));
      h *= 1099511628211ULL;
    }
    return h;
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

struct OvrOutcome {
  Point location;
  double cost = 0.0;  // total cost (Fermat–Weber cost + constant offset)
  bool solved = false;
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
    std::unordered_set<std::vector<PoiRef>, PoiListHash> seen;
    for (size_t i = 0; i < n; ++i) {
      MOVD_CHECK(!movd.ovrs[i].pois.empty());
      if (!seen.insert(movd.ovrs[i].pois).second) {
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
  std::atomic<uint64_t> problems{0};
  std::atomic<uint64_t> skipped_prefilter{0};
  std::atomic<uint64_t> pruned_by_bound{0};
  std::atomic<uint64_t> total_iterations{0};

  ParallelFor(options.exec.threads, n, [&](size_t i) {
    // Cancellation checkpoint (serving deadlines): once per claimed OVR.
    // The token latches, so after it fires every worker drains its
    // remaining iterations without doing work.
    if (TokenExpired(options.exec.cancel)) return;
    const Ovr& ovr = movd.ovrs[i];
    MOVD_CHECK(!ovr.pois.empty());
    if (duplicate[i]) return;
    problems.fetch_add(1, std::memory_order_relaxed);

    // One problem buffer per worker thread, reused across its OVRs.
    thread_local std::vector<WeightedPoint> points;
    const double offset = BuildFermatWeberProblem(query, ovr.pois, &points);

    if (options.use_two_point_prefilter && points.size() > 3 &&
        TwoPointPrefixCost(points, offset) >
            bound.load(std::memory_order_relaxed)) {
      skipped_prefilter.fetch_add(1, std::memory_order_relaxed);
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
    total_iterations.fetch_add(static_cast<uint64_t>(r.iterations),
                               std::memory_order_relaxed);
    if (r.pruned) {
      pruned_by_bound.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const double total = r.cost + offset;
    outcomes[i] = {r.location, total, true};
    AtomicMinDouble(&bound, total);
  });

  result.stats.problems = problems.load();
  result.stats.skipped_prefilter = skipped_prefilter.load();
  result.stats.pruned_by_bound = pruned_by_bound.load();
  result.stats.total_iterations = total_iterations.load();
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

  // Deterministic reduction: minimum total cost, lowest OVR index on ties.
  bool have_answer = false;
  for (size_t i = 0; i < n; ++i) {
    const OvrOutcome& o = outcomes[i];
    if (!o.solved) continue;
    if (!have_answer || o.cost < result.cost) {
      have_answer = true;
      result.cost = o.cost;
      result.location = o.location;
      result.group = movd.ovrs[i].pois;
    }
  }
  MOVD_CHECK(have_answer);
  return result;
}

}  // namespace movd
