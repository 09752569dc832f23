// Benchmark of the query-algebra evaluators (DESIGN.md §13): all four
// shapes — skyline, diversified top-k, constrained MOLQ, and what-if
// sweeps — run against the SAME prebuilt MOVD overlay, isolating the
// per-shape evaluation cost from the (shared, cacheable) artifact build.
// The overlay build itself is measured once per size as its own case so a
// regression in either half is attributable.
//
// Deterministic metrics gate exactly through bench_diff: candidate and
// skyline sizes, dominance-test counts from the pruning pass, diversified
// selection/skip counts, constrained boundary-solve counts, and the
// sweep's answer count. All evaluators are bit-identical across thread
// counts, so these survive machine changes.
//
// Extra flags: --sizes=16,32  --vectors=8

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/overlap.h"
#include "model/query_model.h"
#include "query/constrained.h"
#include "query/diversify.h"
#include "query/skyline.h"
#include "query/whatif.h"
#include "util/rng.h"

namespace movd::bench {
namespace {

Movd BuildOverlay(const MolqQuery& query, int threads) {
  std::vector<Movd> basic(query.sets.size());
  ParallelFor(threads, query.sets.size(), [&](size_t s) {
    basic[s] = BuildBasicMovd(query, static_cast<int32_t>(s), kWorld,
                              /*weighted_grid_resolution=*/128);
  });
  return OverlapAll(basic, BoundaryMode::kRealRegion);
}

/// A boundary box over the central quarter of the world plus one exclusion
/// inside it: every seed keeps the constrained solve non-trivial (clipping
/// splits OVRs) without going infeasible.
QueryConstraint MakeConstraint() {
  QueryConstraint c;
  const double w = kWorld.max_x - kWorld.min_x;
  const double h = kWorld.max_y - kWorld.min_y;
  c.boundary = Polygon({{0.25 * w, 0.25 * h},
                        {0.75 * w, 0.25 * h},
                        {0.75 * w, 0.75 * h},
                        {0.25 * w, 0.75 * h}});
  c.exclusions.push_back(Polygon({{0.45 * w, 0.45 * h},
                                  {0.55 * w, 0.45 * h},
                                  {0.55 * w, 0.55 * h},
                                  {0.45 * w, 0.55 * h}}));
  return c;
}

std::vector<WhatIfVector> MakeVectors(size_t count, size_t arity,
                                      uint64_t seed) {
  Rng rng(seed ^ 0x51feull);
  std::vector<WhatIfVector> vectors;
  for (size_t v = 0; v < count; ++v) {
    WhatIfVector w;
    for (size_t s = 0; s < arity; ++s) {
      w.scale.push_back(rng.Uniform(0.5, 2.0));
    }
    vectors.push_back(std::move(w));
  }
  return vectors;
}

}  // namespace

BENCH(query) {
  const auto sizes = ctx.flags().GetSizeList("sizes", "16,32");
  const size_t vector_count =
      static_cast<size_t>(ctx.flags().GetInt("vectors", 8));
  for (const size_t n : sizes) {
    const std::string suffix = "/n=" + std::to_string(n);
    const MolqQuery query = MakeQuery({n, n, n}, ctx.seed());

    Movd movd;
    {
      BenchCase& c = ctx.Case(std::string("overlay") + suffix)
                         .Param("shape", "overlay")
                         .Param("n", n);
      ctx.Measure(c, [&] { movd = BuildOverlay(query, ctx.threads()); });
      c.Metric("ovrs", static_cast<double>(movd.ovrs.size()));
    }

    CandidateOptions opts;
    opts.exec = ctx.MakeExec();

    {
      BenchCase& c = ctx.Case(std::string("skyline") + suffix)
                         .Param("shape", "skyline")
                         .Param("n", n);
      SkylineResult r;
      ctx.Measure(c, [&] { r = SkylineFromMovd(query, movd, opts); });
      c.Metric("candidates", static_cast<double>(r.candidates));
      c.Metric("skyline_size", static_cast<double>(r.skyline.size()));
      c.Metric("dominance_tests", static_cast<double>(r.dominance_tests));
    }

    {
      const size_t k = 8;
      const double min_dist = (kWorld.max_x - kWorld.min_x) / 50.0;
      BenchCase& c = ctx.Case(std::string("diverse") + suffix)
                         .Param("shape", "diverse")
                         .Param("n", n)
                         .Param("k", k);
      DiverseTopKResult r;
      ctx.Measure(c, [&] {
        r = DiverseTopKFromMovd(query, movd, k, min_dist, opts);
      });
      c.Metric("selected", static_cast<double>(r.selected.size()));
      c.Metric("skipped", static_cast<double>(r.skipped));
    }

    {
      const QueryConstraint constraint = MakeConstraint();
      BenchCase& c = ctx.Case(std::string("constrained") + suffix)
                         .Param("shape", "constrained")
                         .Param("n", n);
      ConstrainedMolqResult r;
      ctx.Measure(c, [&] {
        r = ConstrainedMolqFromMovd(query, movd, constraint, kWorld, opts);
      });
      c.Metric("feasible", r.feasible ? 1.0 : 0.0);
      c.Metric("clipped_ovrs", static_cast<double>(r.clipped_ovrs));
      c.Metric("boundary_solves", static_cast<double>(r.boundary_solves));
    }

    {
      const auto vectors =
          MakeVectors(vector_count, query.sets.size(), ctx.seed());
      WhatIfOptions wopts;
      wopts.topk = 2;
      wopts.exec = ctx.MakeExec();
      BenchCase& c = ctx.Case(std::string("whatif") + suffix)
                         .Param("shape", "whatif")
                         .Param("n", n)
                         .Param("vectors", vector_count);
      WhatIfSweepResult r;
      ctx.Measure(c, [&] {
        r = WhatIfSweepFromMovd(query, movd, vectors, wopts);
      });
      size_t answers = 0;
      for (const auto& ranking : r.per_vector) answers += ranking.size();
      c.Metric("answers", static_cast<double>(answers));
      // Per-vector amortised cost vs one full evaluation is the number the
      // sweep exists to improve; observability only, never gated.
      c.Derived("answers_per_vector",
                static_cast<double>(answers) /
                    static_cast<double>(vector_count));
    }
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("query")
