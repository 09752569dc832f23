#include "core/topk.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <set>

#include "core/pruned_overlap.h"
#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {

MolqResult TopKFromMovd(const MolqQuery& query, const Movd& movd, size_t k,
                        const MolqOptions& options) {
  MOVD_CHECK_MSG(k > 0, "top-k needs k >= 1");
  MOVD_CHECK_MSG(!movd.ovrs.empty(),
                 "the top-k Optimizer needs a non-empty MOVD to scan");
  MolqResult result;
  result.trace = options.exec.trace;
  result.stats.threads = ResolveThreads(options.exec.threads);
  TraceContextScope trace_scope(options.exec.trace);
  TraceSpan span("topk_optimize");

  // The k best entries so far, ordered by (cost, group): lexicographic
  // group order settles cost ties. A tree, so each step is O(log k) for
  // any k. A group seen again (MBRB duplicates) re-solves to the same
  // cost: it is either ranked already (the insert finds its key) or was
  // evicted or pruned, and the bound, which only decreases, rejects it.
  const auto precedes = [](double cost, const std::vector<PoiRef>& group,
                           const RankedLocation& entry) {
    return cost < entry.cost ||
           (!(entry.cost < cost) && group < entry.group);
  };
  const auto before = [&](const RankedLocation& a, const RankedLocation& b) {
    return precedes(a.cost, a.group, b);
  };
  std::set<RankedLocation, decltype(before)> best(before);
  // The k-th best cost, the prune bound; atomic for the solver's shared-
  // bound read (the loop is serial). The prune is strict (lb > bound), so
  // an optimum tying the k-th cost is still solved and ranked by group.
  std::atomic<double> kth_bound{std::numeric_limits<double>::infinity()};
  std::vector<WeightedPoint> points;

  for (const Ovr& ovr : movd.ovrs) {
    // Cancellation checkpoint (serving deadlines): once per OVR. A fired
    // token discards the partial ranking — a truncated scan could rank
    // wrong answers into the top k.
    if (TokenExpired(options.exec.cancel)) {
      result.status = StatusCode::kCancelled;
      return result;
    }
    MOVD_CHECK(!ovr.pois.empty());
    const double offset = BuildFermatWeberProblem(query, ovr.pois, &points);
    FermatWeberOptions fw;
    fw.epsilon = options.epsilon;
    if (options.use_cost_bound) {
      fw.shared_cost_bound = &kth_bound;
      fw.shared_bound_offset = offset;
    }
    const FermatWeberResult r = SolveFermatWeber(points, fw);
    span.Counter("weiszfeld_iters", r.iterations);
    if (r.pruned) continue;  // provably worse than the current k-th best
    const double cost = r.cost + offset;
    if (best.size() == k && !precedes(cost, ovr.pois, *best.rbegin())) {
      continue;
    }
    if (!best.insert({r.location, cost, ovr.pois}).second) continue;
    if (best.size() > k) best.erase(std::prev(best.end()));
    if (best.size() == k) {
      kth_bound.store(best.rbegin()->cost, std::memory_order_relaxed);
    }
  }
  result.ranked.assign(best.begin(), best.end());

  span.Counter("ranked", static_cast<int64_t>(result.ranked.size()));
  if (!result.ranked.empty()) {
    result.location = result.ranked.front().location;
    result.cost = result.ranked.front().cost;
    result.group = result.ranked.front().group;
  }
  return result;
}

MolqResult SolveMolqTopK(const MolqQuery& query, const Rect& search_space,
                         size_t k, const MolqOptions& options) {
  MOVD_CHECK(k > 0);
  MOVD_CHECK(options.algorithm != MolqAlgorithm::kSsc);
  MolqResult result;
  result.trace = options.exec.trace;
  TraceContextScope trace_scope(options.exec.trace);
  TRACE_SPAN("solve_molq_topk");
  const BoundaryMode mode = options.algorithm == MolqAlgorithm::kRrb
                                ? BoundaryMode::kRealRegion
                                : BoundaryMode::kMbr;

  const int threads = ResolveThreads(options.exec.threads);
  result.stats.threads = threads;
  const size_t num_sets = query.sets.size();
  const int inner_threads =
      std::max(1, threads / static_cast<int>(num_sets));
  std::vector<Movd> basic(num_sets);
  std::vector<AuditReport> set_audits(options.exec.audit ? num_sets : 0);
  {
    TraceSpan vd_span("vd_generator");
    const Trace::Context ctx = Trace::CaptureContext();
    ParallelFor(threads, num_sets, [&](size_t i) {
      TraceContextScope scope(ctx);
      TRACE_SPAN("build_basic_movd");
      basic[i] = BuildBasicMovd(
          query, static_cast<int32_t>(i), search_space,
          options.exec.weighted_grid_resolution, inner_threads,
          options.exec.audit ? &set_audits[i] : nullptr);
    });
  }
  for (AuditReport& sub : set_audits) result.audit.Merge(std::move(sub));
  Movd movd;
  {
    TRACE_SPAN("movd_overlap");
    movd = OverlapAll(basic, mode, &result.stats.overlap,
                      options.exec.cancel, threads);
  }
  if (TokenExpired(options.exec.cancel)) {
    result.status = StatusCode::kCancelled;
    return result;
  }
  result.stats.final_ovrs = movd.ovrs.size();
  result.stats.memory_bytes = movd.MemoryBytes(mode);

  MolqResult top = TopKFromMovd(query, movd, k, options);
  top.stats.vd_seconds = result.stats.vd_seconds;
  top.stats.overlap = result.stats.overlap;
  top.stats.final_ovrs = result.stats.final_ovrs;
  top.stats.memory_bytes = result.stats.memory_bytes;
  top.audit = std::move(result.audit);
  return top;
}

}  // namespace movd
