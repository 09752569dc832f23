// Reproduces Fig. 13: memory consumption of the MOVD produced by
// overlapping two Voronoi diagrams, RRB vs MBRB. The paper's finding: even
// though MBRB holds more OVRs (Fig. 12), each is just two points, so MBRB
// consumes 26-29% less memory at two object types. Memory is measured by
// byte-accurate structure accounting (see Movd::MemoryBytes), so the byte
// counts are deterministic Metrics gated exactly by bench_diff.
//
// Harnessed (DESIGN.md §10). Extra flags: --sizes=1000,2000,4000,8000.

#include "bench/bench_common.h"

namespace movd::bench {

BENCH(fig13_overlap_memory) {
  const auto sizes = ctx.flags().GetSizeList("sizes", "1000,2000,4000,8000");
  for (const size_t n : sizes) {
    for (const size_t m : sizes) {
      const auto basic = MakeBasicMovds({n, m}, ctx.seed(), ctx.threads());
      const std::string suffix =
          "/n=" + std::to_string(n) + "/m=" + std::to_string(m);
      size_t rrb_bytes = 0;
      for (const auto& [mode, name] :
           {std::pair{BoundaryMode::kRealRegion, "rrb"},
            std::pair{BoundaryMode::kMbr, "mbrb"}}) {
        BenchCase& c = ctx.Case(std::string(name) + suffix)
                           .Param("mode", name)
                           .Param("n", n)
                           .Param("m", m);
        size_t bytes = 0;
        size_t points = 0;
        ctx.Measure(c, [&] {
          const Movd out = Overlap(basic[0], basic[1], mode, nullptr,
                                   nullptr, ctx.threads());
          bytes = out.MemoryBytes(mode);
          points = mode == BoundaryMode::kRealRegion
                       ? out.VertexCount()
                       : 2 * out.ovrs.size();
          Keep(bytes);
        });
        c.Metric("bytes", static_cast<double>(bytes));
        c.Metric("points", static_cast<double>(points));
        if (mode == BoundaryMode::kRealRegion) {
          rrb_bytes = bytes;
        } else {
          c.Derived("bytes_ratio_vs_rrb",
                    static_cast<double>(bytes) /
                        static_cast<double>(std::max<size_t>(1, rrb_bytes)));
        }
      }
    }
  }
  // Weighted build phase (see fig11).
  const int wres = static_cast<int>(ctx.flags().GetInt("wres", 256));
  for (const size_t n : sizes) WeightedBuildCases(ctx, 2, n, wres);
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("fig13_overlap_memory")
