// Microbenchmark of the weighted-Voronoi constructions (paper §5.3,
// DESIGN.md §11): the adaptive quadtree builder vs the dense-grid
// reference, across site counts and weight regimes (multiplicative-only
// and affine). The non-empty-cell and cover-ring counts are deterministic
// Metrics gated exactly by bench_diff — both constructions derive
// ownership from the shared BestWeightedSite tie rule and are
// bit-identical for every thread count — while the adaptive speedup is a
// Derived (never gated) observability number.
//
// Extra flags: --sizes=64,256  --resolution=256

#include "bench/bench_common.h"
#include "util/rng.h"
#include "voronoi/weighted.h"

namespace movd::bench {
namespace {

std::vector<WeightedSite> MakeSites(size_t n, bool affine, uint64_t seed) {
  Rng rng(seed + (affine ? 1 : 0));
  std::vector<WeightedSite> sites;
  sites.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point p{rng.Uniform(kWorld.min_x, kWorld.max_x),
                  rng.Uniform(kWorld.min_y, kWorld.max_y)};
    const double mult = rng.Uniform(0.5, 3.0);
    const double off = affine ? rng.Uniform(0.0, 2000.0) : 0.0;
    sites.push_back({p, mult, off});
  }
  return sites;
}

}  // namespace

BENCH(micro_weighted) {
  const auto sizes = ctx.flags().GetSizeList("sizes", "64,256");
  const int resolution =
      static_cast<int>(ctx.flags().GetInt("resolution", 256));
  for (const size_t n : sizes) {
    for (const bool affine : {false, true}) {
      const char* regime = affine ? "affine" : "mult";
      const auto sites = MakeSites(n, affine, ctx.seed());
      const std::string suffix =
          std::string("/") + regime + "/n=" + std::to_string(n);

      WeightedOptions opts;
      opts.resolution = resolution;
      opts.threads = ctx.threads();

      const Summary* walls[2] = {nullptr, nullptr};
      for (const auto& [method, name] :
           {std::pair{WeightedMethod::kDenseGrid, "dense"},
            std::pair{WeightedMethod::kAdaptive, "adaptive"}}) {
        opts.method = method;
        BenchCase& c = ctx.Case(std::string(name) + suffix)
                           .Param("method", name)
                           .Param("regime", regime)
                           .Param("n", n)
                           .Param("resolution", static_cast<int64_t>(resolution));
        size_t nonempty = 0;
        size_t rings = 0;
        const Summary& wall = ctx.Measure(c, [&] {
          const auto cells = BuildWeightedCells(sites, kWorld, opts);
          nonempty = 0;
          rings = 0;
          for (const auto& cell : cells) {
            if (!cell.empty) ++nonempty;
            rings += cell.cover.size();
          }
          Keep(rings);
        });
        c.Metric("nonempty_cells", static_cast<double>(nonempty));
        c.Metric("cover_rings", static_cast<double>(rings));
        if (method == WeightedMethod::kDenseGrid) {
          walls[0] = &wall;
        } else {
          walls[1] = &wall;
          c.Derived("speedup_vs_dense", walls[0]->median / wall.median);
        }
      }
    }
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("micro_weighted")
