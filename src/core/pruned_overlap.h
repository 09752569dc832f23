#ifndef MOVD_CORE_PRUNED_OVERLAP_H_
#define MOVD_CORE_PRUNED_OVERLAP_H_

#include <span>

#include "model/movd_model.h"
#include "model/object.h"
#include "core/overlap.h"

namespace movd {

/// Statistics from the pruning overlap.
struct PrunedOverlapStats {
  OverlapStats overlap;       ///< the underlying sweep's counters
  uint64_t pruned_ovrs = 0;   ///< OVRs discarded by the cost bound
  double upper_bound = 0.0;   ///< the seed upper bound used
};

/// The paper's second future-work direction (§8): "pruning the search
/// space by filtering out the impossible POI combinations during the MOVD
/// overlapping."
///
/// A cheap global upper bound U on the query's optimal cost is seeded by
/// probing MWGD on a coarse grid. During every overlap step, each produced
/// OVR's object combination G is given a lower bound
///
///   lb(G) = sum_i offset_i + max_{i<j} min(a_i, a_j) * d(p_i, p_j)
///
/// (valid for any location by the triangle inequality on the decomposed
/// weighted distances WD = a*d + b). OVRs with lb(G) > U are dropped
/// immediately: every extension of G by further types only adds
/// non-negative terms, so no descendant combination can beat U either.
/// The surviving MOVD yields exactly the same optimum as the unpruned one.
/// `threads` runs each step's pair intersections as Overlap does; the
/// result is identical for every thread count.
Movd OverlapAllPruned(const MolqQuery& query, const std::vector<Movd>& inputs,
                      BoundaryMode mode, const Rect& search_space,
                      PrunedOverlapStats* stats = nullptr,
                      int threads = 1);

/// The seed upper bound used by OverlapAllPruned: the minimum MWGD over a
/// `resolution` x `resolution` probe grid (always >= the true optimum).
double SeedUpperBound(const MolqQuery& query, const Rect& search_space,
                      int resolution = 8);

/// The pairwise lower bound lb(G) described above, for an OVR's poi list.
double CombinationLowerBound(const MolqQuery& query,
                             std::span<const PoiRef> pois);

}  // namespace movd

#endif  // MOVD_CORE_PRUNED_OVERLAP_H_
