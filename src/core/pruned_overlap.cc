#include "core/pruned_overlap.h"

#include <algorithm>

#include "core/weighted_distance.h"
#include "trace/trace.h"
#include "util/check.h"

namespace movd {

double SeedUpperBound(const MolqQuery& query, const Rect& search_space,
                      int resolution) {
  MOVD_CHECK(resolution > 1);
  double best = std::numeric_limits<double>::infinity();
  const double sx = search_space.Width() / (resolution - 1);
  const double sy = search_space.Height() / (resolution - 1);
  for (int gy = 0; gy < resolution; ++gy) {
    for (int gx = 0; gx < resolution; ++gx) {
      const Point q{search_space.min_x + gx * sx,
                    search_space.min_y + gy * sy};
      best = std::min(best, MinWeightedGroupDistance(query, q));
    }
  }
  return best;
}

double CombinationLowerBound(const MolqQuery& query,
                             std::span<const PoiRef> pois) {
  // Decompose each member as WD_i(l) = a_i * d(l, p_i) + b_i.
  struct Term {
    Point location;
    double a;
  };
  std::vector<Term> terms;
  terms.reserve(pois.size());
  double offset = 0.0;
  for (const PoiRef& ref : pois) {
    const SpatialObject& obj = query.sets.at(ref.set).objects.at(ref.object);
    const FermatWeberTerm t = DecomposeWeightedDistance(
        obj, query.type_function, query.ObjectFunction(ref.set));
    terms.push_back({obj.location, t.fw_weight});
    offset += t.offset;
  }
  // For any l: a_i d(l,p_i) + a_j d(l,p_j) >= min(a_i,a_j) * d(p_i,p_j).
  double pair_bound = 0.0;
  for (size_t i = 0; i < terms.size(); ++i) {
    for (size_t j = i + 1; j < terms.size(); ++j) {
      pair_bound = std::max(pair_bound,
                            std::min(terms[i].a, terms[j].a) *
                                Distance(terms[i].location,
                                         terms[j].location));
    }
  }
  return offset + pair_bound;
}

Movd OverlapAllPruned(const MolqQuery& query, const std::vector<Movd>& inputs,
                      BoundaryMode mode, const Rect& search_space,
                      PrunedOverlapStats* stats, int threads) {
  MOVD_CHECK(!inputs.empty());
  TraceSpan span("pruned_overlap");
  const double upper_bound = SeedUpperBound(query, search_space);
  if (stats != nullptr) stats->upper_bound = upper_bound;

  if (inputs.size() == 1) return inputs.front();
  Movd acc;
  for (size_t i = 1; i < inputs.size(); ++i) {
    // The fold starts with inputs[0] ⊕ inputs[1]; no copy of inputs[0].
    acc = Overlap(i == 1 ? inputs[0] : acc, inputs[i], mode,
                  stats != nullptr ? &stats->overlap : nullptr,
                  /*cancel=*/nullptr, threads);
    // Filter combinations whose lower bound already exceeds the seed: no
    // location, and no extension by further types, can make them optimal.
    std::vector<uint32_t> kept;
    kept.reserve(acc.ovrs.size());
    for (size_t k = 0; k < acc.ovrs.size(); ++k) {
      if (CombinationLowerBound(query, acc.ovrs[k].pois) > upper_bound) {
        if (stats != nullptr) ++stats->pruned_ovrs;
        span.Counter("pruned_ovrs", 1);
        continue;
      }
      kept.push_back(static_cast<uint32_t>(k));
    }
    acc.ovrs = acc.ovrs.Gather(kept);
    MOVD_CHECK(!acc.ovrs.empty());  // the seed location's OVR survives
  }
  return acc;
}

}  // namespace movd
