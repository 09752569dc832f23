// Reproduces Fig. 11: execution time of overlapping two ordinary Voronoi
// diagrams (random STM and CH samples) under RRB vs MBRB, across a grid of
// data-set sizes. The paper sweeps 10K-160K on a 24 GB server; the default
// here is scaled to laptop size — raise --sizes to reproduce the original
// scale.
//
// Harnessed (DESIGN.md §10): diagram construction is unmeasured setup; the
// Measure body is the overlap alone. The harness's default --warmup=1 runs
// each overlap once untimed first, which is what makes these numbers stable
// run-to-run (first-touch page faults and allocator growth land in the
// warmup — see EXPERIMENTS.md). Extra flags: --sizes=1000,2000,4000,8000.

#include "bench/bench_common.h"

namespace movd::bench {

BENCH(fig11_overlap_time) {
  const auto sizes = ctx.flags().GetSizeList("sizes", "1000,2000,4000,8000");
  for (const size_t n : sizes) {
    for (const size_t m : sizes) {
      const auto basic = MakeBasicMovds({n, m}, ctx.seed(), ctx.threads());
      const std::string suffix =
          "/n=" + std::to_string(n) + "/m=" + std::to_string(m);

      BenchCase& rrb = ctx.Case("rrb" + suffix)
                           .Param("mode", "rrb")
                           .Param("n", n)
                           .Param("m", m);
      size_t rrb_ovrs = 0;
      const Summary& rrb_wall = ctx.Measure(rrb, [&] {
        const Movd out = Overlap(basic[0], basic[1],
                                 BoundaryMode::kRealRegion, nullptr, nullptr,
                                 ctx.threads());
        rrb_ovrs = out.ovrs.size();
        Keep(rrb_ovrs);
      });
      rrb.Metric("ovrs", static_cast<double>(rrb_ovrs));

      BenchCase& mbrb = ctx.Case("mbrb" + suffix)
                            .Param("mode", "mbrb")
                            .Param("n", n)
                            .Param("m", m);
      size_t mbrb_ovrs = 0;
      const Summary& mbrb_wall = ctx.Measure(mbrb, [&] {
        const Movd out = Overlap(basic[0], basic[1], BoundaryMode::kMbr,
                                 nullptr, nullptr, ctx.threads());
        mbrb_ovrs = out.ovrs.size();
        Keep(mbrb_ovrs);
      });
      mbrb.Metric("ovrs", static_cast<double>(mbrb_ovrs));
      mbrb.Derived("speedup_vs_rrb", rrb_wall.median / mbrb_wall.median);
    }
  }
  // Build phase with per-object weights: the VD Generator routes to the
  // weighted constructions instead of exact ordinary Voronoi
  // (--wres controls the diagram resolution).
  const int wres = static_cast<int>(ctx.flags().GetInt("wres", 256));
  for (const size_t n : sizes) WeightedBuildCases(ctx, 2, n, wres);
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("fig11_overlap_time")
