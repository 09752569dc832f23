#ifndef MOVD_CORE_WEIGHTED_DISTANCE_H_
#define MOVD_CORE_WEIGHTED_DISTANCE_H_

#include <vector>

#include "fermat/fermat_weber.h"
#include "model/object.h"
#include "geom/point.h"

namespace movd {

/// WD(q, p, ς^t, ς^o) = ς^t(ς^o(d(q, p.l), p.w^o), p.w^t)   (paper Eq. 1).
double WeightedDistance(const Point& q, const SpatialObject& p,
                        WeightFunctionKind type_fn,
                        WeightFunctionKind object_fn);

/// WGD(q, G, ς^t, σ): sum of WD over an object group, one object per set
/// (paper Eq. 2). `group[i]` indexes into `query.sets[i].objects`.
double WeightedGroupDistance(const MolqQuery& query, const Point& q,
                             const std::vector<int32_t>& group);

/// WGD over an explicit list of object references (used on OVR poi lists).
double WeightedGroupDistance(const MolqQuery& query, const Point& q,
                             const std::vector<PoiRef>& group);

/// MWGD(q, Ē, ς^t, σ) (paper Eq. 3). Because the group sum decomposes per
/// type, the minimum over the cartesian product equals the sum of per-set
/// minima; this evaluates in O(sum |P_i|) rather than O(prod |P_i|).
double MinWeightedGroupDistance(const MolqQuery& query, const Point& q);

/// The group realising MinWeightedGroupDistance: per set, the object with
/// the smallest WD (ties to the lowest index).
std::vector<int32_t> ArgMinGroup(const MolqQuery& query, const Point& q);

/// The decomposition of one object's WD into Fermat–Weber form:
/// WD(q, p) = fw_weight * d(q, p.l) + offset. Exact for every combination
/// of multiplicative/additive ς^t and ς^o (see DESIGN.md §4); this is how
/// the Optimizer turns an OVR into a weighted Fermat–Weber problem plus a
/// constant.
struct FermatWeberTerm {
  double fw_weight = 1.0;
  double offset = 0.0;
};
FermatWeberTerm DecomposeWeightedDistance(const SpatialObject& p,
                                          WeightFunctionKind type_fn,
                                          WeightFunctionKind object_fn);

/// The Fermat–Weber problem of one object group (an OVR's poi list): per
/// object its location with the DecomposeWeightedDistance weight, written
/// into `points` (cleared first, so a caller can reuse one buffer across
/// groups). Returns the sum of the constant offsets, accumulated in group
/// order; WGD(q, group) = FermatWeberCost(*points, q) + that sum.
double BuildFermatWeberProblem(const MolqQuery& query,
                               const std::vector<PoiRef>& group,
                               std::vector<WeightedPoint>* points);

}  // namespace movd

#endif  // MOVD_CORE_WEIGHTED_DISTANCE_H_
