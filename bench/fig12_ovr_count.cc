// Reproduces Fig. 12: the number of OVRs produced when overlapping two
// ordinary Voronoi diagrams under RRB vs MBRB. The paper reports MBRB
// producing ~150% more OVRs on average (MBR hits that are not real region
// overlaps).
//
// Harnessed (DESIGN.md §10): the OVR counts are deterministic Metrics that
// bench_diff gates exactly — this bench is primarily a correctness tripwire
// over the overlap machinery. Extra flags: --sizes=1000,2000,4000,8000.

#include "bench/bench_common.h"

namespace movd::bench {

BENCH(fig12_ovr_count) {
  const auto sizes = ctx.flags().GetSizeList("sizes", "1000,2000,4000,8000");
  for (const size_t n : sizes) {
    for (const size_t m : sizes) {
      const auto basic = MakeBasicMovds({n, m}, ctx.seed(), ctx.threads());
      const std::string suffix =
          "/n=" + std::to_string(n) + "/m=" + std::to_string(m);
      size_t rrb_ovrs = 0;
      for (const auto& [mode, name] :
           {std::pair{BoundaryMode::kRealRegion, "rrb"},
            std::pair{BoundaryMode::kMbr, "mbrb"}}) {
        BenchCase& c = ctx.Case(std::string(name) + suffix)
                           .Param("mode", name)
                           .Param("n", n)
                           .Param("m", m);
        size_t ovrs = 0;
        ctx.Measure(c, [&] {
          const Movd out = Overlap(basic[0], basic[1], mode, nullptr,
                                   nullptr, ctx.threads());
          ovrs = out.ovrs.size();
          Keep(ovrs);
        });
        c.Metric("ovrs", static_cast<double>(ovrs));
        if (mode == BoundaryMode::kRealRegion) {
          rrb_ovrs = ovrs;
        } else {
          c.Derived("ovr_ratio_vs_rrb",
                    static_cast<double>(ovrs) /
                        static_cast<double>(std::max<size_t>(1, rrb_ovrs)));
        }
      }
    }
  }
  // Weighted build phase (see fig11): OVR counts double as a correctness
  // tripwire over the adaptive construction's non-empty-cell set.
  const int wres = static_cast<int>(ctx.flags().GetInt("wres", 256));
  for (const size_t n : sizes) WeightedBuildCases(ctx, 2, n, wres);
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("fig12_ovr_count")
