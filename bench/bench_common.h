#ifndef MOVD_BENCH_BENCH_COMMON_H_
#define MOVD_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib/bench.h"
#include "core/molq.h"
#include "model/object.h"
#include "data/generate.h"
#include "geom/rect.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace movd::bench {

/// Workload builders shared by the harnessed bench binaries. Everything
/// the binaries used to hand-roll around these — flag parsing, warmup /
/// repetition policy, tracing, JSON emission — lives in the harness
/// (src/bench_lib, DESIGN.md §10) now; this header only makes paper-shaped
/// inputs.

/// The search space used by every harness (arbitrary units; the paper's
/// data is continental-scale but only relative geometry matters).
inline constexpr Rect kWorld(0, 0, 10000, 10000);

/// Builds a MOLQ query over the first `sizes.size()` classes of the
/// GeoNames-like catalog (Ē follows the paper's selection sequence
/// STM, CH, SCH, PPL, BLDG), with `sizes[i]` objects sampled per class and
/// one type weight per *type* drawn uniformly from (0, 10) as in §6.1
/// (ς^t must rank uniformly within a type for the OVD model's Property 5).
/// Object weights stay 1 (the paper's default), keeping the exact
/// ordinary-Voronoi path.
inline MolqQuery MakeQuery(const std::vector<size_t>& sizes, uint64_t seed) {
  const auto& catalog = GeoNamesLikeCatalog();
  Rng rng(seed);
  MolqQuery query;
  for (size_t s = 0; s < sizes.size(); ++s) {
    ObjectSet set;
    set.name = catalog[s % catalog.size()].name;
    double type_weight = rng.Uniform(0.0, 10.0);
    if (type_weight == 0.0) type_weight = 0.1;  // keep positive
    const auto points = SamplePoiClass(set.name, sizes[s], kWorld, seed + s);
    for (const Point& p : points) {
      SpatialObject obj;
      obj.location = p;
      obj.type_weight = type_weight;
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

/// One basic MOVD per class for overlap-only experiments (Figs. 11-14).
/// `threads` parallelises across sets exactly like SolveMolq's VD Generator
/// stage (each set writes its own slot, so the result is independent of the
/// thread count).
inline std::vector<Movd> MakeBasicMovds(const std::vector<size_t>& sizes,
                                        uint64_t seed, int threads = 1) {
  const MolqQuery query = MakeQuery(sizes, seed);
  std::vector<Movd> out(query.sets.size());
  ParallelFor(threads, query.sets.size(), [&](size_t s) {
    out[s] = BuildBasicMovd(query, static_cast<int32_t>(s), kWorld,
                            /*weighted_grid_resolution=*/128);
  });
  return out;
}

/// Weighted variant of MakeQuery: per-object weights drawn from (0.5, 2.5)
/// make ς^o rank-shuffling, so every set routes to the approximated
/// weighted diagram instead of the exact ordinary one. This is the
/// VD-Generator configuration the weighted-build benchmark cases measure.
inline MolqQuery MakeWeightedQuery(const std::vector<size_t>& sizes,
                                   uint64_t seed) {
  MolqQuery query = MakeQuery(sizes, seed);
  Rng rng(seed ^ 0x5eedull);
  for (ObjectSet& set : query.sets) {
    for (SpatialObject& obj : set.objects) {
      obj.object_weight = rng.Uniform(0.5, 2.5);
    }
  }
  return query;
}

/// One weighted basic MOVD per class, built with the given construction
/// method (paper §5.3; DESIGN.md §11). The `ovrs_out` sum is a
/// deterministic metric: both methods derive ownership from the shared
/// BestWeightedSite tie rule, and each construction is bit-identical for
/// every thread count.
inline std::vector<Movd> MakeWeightedBasicMovds(const MolqQuery& query,
                                                WeightedMethod method,
                                                int resolution, int threads) {
  std::vector<Movd> out(query.sets.size());
  for (size_t s = 0; s < query.sets.size(); ++s) {
    out[s] = BuildBasicMovd(query, static_cast<int32_t>(s), kWorld,
                            resolution, threads, /*audit=*/nullptr, method);
  }
  return out;
}

/// The weighted VD-Generator (build-phase) cases shared by the Fig. 11-14
/// harnesses: one adaptive and one dense-grid case per workload, measuring
/// BuildBasicMovd over a `types`-set weighted query of `n` objects per
/// set. The summed OVR count is a deterministic gated Metric; the adaptive
/// case carries a Derived speedup_vs_dense for observability.
inline void WeightedBuildCases(BenchContext& ctx, size_t types, size_t n,
                               int resolution) {
  const MolqQuery query =
      MakeWeightedQuery(std::vector<size_t>(types, n), ctx.seed());
  const std::string suffix =
      "/types=" + std::to_string(types) + "/n=" + std::to_string(n);
  const Summary* dense_wall = nullptr;
  for (const auto& [method, name] :
       {std::pair{WeightedMethod::kDenseGrid, "dense"},
        std::pair{WeightedMethod::kAdaptive, "adaptive"}}) {
    BenchCase& c = ctx.Case(std::string("wbuild_") + name + suffix)
                       .Param("method", name)
                       .Param("types", types)
                       .Param("n", n)
                       .Param("resolution", static_cast<int64_t>(resolution));
    size_t ovrs = 0;
    const Summary& wall = ctx.Measure(c, [&] {
      const auto basic =
          MakeWeightedBasicMovds(query, method, resolution, ctx.threads());
      ovrs = 0;
      for (const Movd& m : basic) ovrs += m.ovrs.size();
      Keep(ovrs);
    });
    c.Metric("movd_ovrs", static_cast<double>(ovrs));
    if (method == WeightedMethod::kDenseGrid) {
      dense_wall = &wall;
    } else {
      c.Derived("speedup_vs_dense", dense_wall->median / wall.median);
    }
  }
}

/// Compact %g formatting for case names ("eps=0.001", "keep=0.05").
inline std::string FmtG(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Human-readable byte count.
inline std::string FormatBytes(size_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB",
                  static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  }
  return buf;
}

}  // namespace movd::bench

#endif  // MOVD_BENCH_BENCH_COMMON_H_
