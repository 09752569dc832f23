// Micro-benchmarks of the Fermat–Weber solvers.
//
// Harnessed (DESIGN.md §10): each case runs a fixed internal batch of ops
// per repetition (bench::Keep defeats dead-code elimination) and reports
// ns_per_op as a Derived value — timing-derived, so never gated across
// machines by bench_diff. The solver outputs recorded as Metrics (costs,
// iteration counts) ARE gated: they must be bit-stable for a fixed seed.

#include "bench/bench_common.h"
#include "fermat/fermat_weber.h"

namespace movd::bench {
namespace {

std::vector<WeightedPoint> MakeProblem(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedPoint> pts;
  for (int64_t i = 0; i < n; ++i) {
    pts.push_back(
        {{rng.Uniform(0, 10), rng.Uniform(0, 10)}, rng.Uniform(0.1, 10)});
  }
  return pts;
}

}  // namespace

BENCH(micro_weiszfeld) {
  for (const int64_t n : {4, 5, 8, 32, 128}) {
    BenchCase& c = ctx.Case("solve/n=" + std::to_string(n)).Param("n", n);
    const auto pts = MakeProblem(n, 7);
    FermatWeberOptions opts;
    opts.epsilon = 1e-3;
    constexpr int kOps = 2000;
    double cost = 0.0;
    const Summary& wall = ctx.Measure(c, [&] {
      for (int i = 0; i < kOps; ++i) {
        const FermatWeberResult r = SolveFermatWeber(pts, opts);
        cost = r.cost;
        Keep(cost);
      }
    });
    c.Metric("cost", cost);
    c.Derived("ns_per_op", wall.median / kOps * 1e9);
  }

  {
    BenchCase& c = ctx.Case("solve_tight_epsilon/n=5");
    const auto pts = MakeProblem(5, 8);
    FermatWeberOptions opts;
    opts.epsilon = 1e-6;
    constexpr int kOps = 2000;
    double cost = 0.0;
    const Summary& wall = ctx.Measure(c, [&] {
      for (int i = 0; i < kOps; ++i) {
        cost = SolveFermatWeber(pts, opts).cost;
        Keep(cost);
      }
    });
    c.Metric("cost", cost);
    c.Derived("ns_per_op", wall.median / kOps * 1e9);
  }

  {
    // Over-relaxed iteration (Ostresh step 1.8): same optimum, fewer steps.
    BenchCase& c = ctx.Case("solve_relaxed/n=8");
    const auto pts = MakeProblem(8, 7);
    FermatWeberOptions opts;
    opts.epsilon = 1e-6;
    opts.relaxation = 1.8;
    constexpr int kOps = 2000;
    double cost = 0.0;
    const Summary& wall = ctx.Measure(c, [&] {
      for (int i = 0; i < kOps; ++i) {
        cost = SolveFermatWeber(pts, opts).cost;
        Keep(cost);
      }
    });
    c.Metric("cost", cost);
    c.Derived("ns_per_op", wall.median / kOps * 1e9);
  }
}

BENCH(micro_fermat_kernels) {
  for (const int64_t n : {5, 32, 128}) {
    BenchCase& c = ctx.Case("lower_bound/n=" + std::to_string(n))
                       .Param("n", n);
    const auto pts = MakeProblem(n, 9);
    const Point at{5, 5};
    constexpr int kOps = 100000;
    double bound = 0.0;
    const Summary& wall = ctx.Measure(c, [&] {
      for (int i = 0; i < kOps; ++i) {
        bound = FermatWeberLowerBound(pts, at);
        Keep(bound);
      }
    });
    c.Metric("bound", bound);
    c.Derived("ns_per_op", wall.median / kOps * 1e9);
  }

  {
    BenchCase& c = ctx.Case("exact_triangle");
    const std::vector<WeightedPoint> pts = {
        {{0, 0}, 1.0}, {{10, 1}, 1.0}, {{4, 8}, 1.0}};
    constexpr int kOps = 100000;
    Point at{0, 0};
    const Summary& wall = ctx.Measure(c, [&] {
      for (int i = 0; i < kOps; ++i) {
        at = SolveTriangle(pts).location;
        Keep(at);
      }
    });
    c.Metric("x", at.x);
    c.Metric("y", at.y);
    c.Derived("ns_per_op", wall.median / kOps * 1e9);
  }

  {
    // Unequal weights with an interior optimum: the closed-form
    // construction plus its Newton polish.
    BenchCase& c = ctx.Case("weighted_triangle");
    const std::vector<WeightedPoint> pts = {
        {{0, 0}, 2.0}, {{10, 1}, 3.0}, {{4, 8}, 4.0}};
    constexpr int kOps = 100000;
    Point at{0, 0};
    const Summary& wall = ctx.Measure(c, [&] {
      for (int i = 0; i < kOps; ++i) {
        at = SolveTriangle(pts).location;
        Keep(at);
      }
    });
    c.Metric("x", at.x);
    c.Metric("y", at.y);
    c.Derived("ns_per_op", wall.median / kOps * 1e9);
  }

  {
    BenchCase& c = ctx.Case("collinear_median/n=64");
    std::vector<WeightedPoint> pts;
    Rng rng(10);
    for (int i = 0; i < 64; ++i) {
      const double t = rng.Uniform(0, 100);
      pts.push_back({{t, 2.0 * t}, rng.Uniform(0.1, 10)});
    }
    constexpr int kOps = 20000;
    Point at{0, 0};
    const Summary& wall = ctx.Measure(c, [&] {
      for (int i = 0; i < kOps; ++i) {
        const auto median = SolveCollinear(pts);
        if (median.has_value()) at = *median;
        Keep(at);
      }
    });
    c.Metric("x", at.x);
    c.Metric("y", at.y);
    c.Derived("ns_per_op", wall.median / kOps * 1e9);
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("micro_fermat")
