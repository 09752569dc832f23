#include <atomic>
#include <cfloat>
#include <cmath>

#include <gtest/gtest.h>

#include "fermat/batch.h"
#include "fermat/fermat_weber.h"
#include "geom/predicates.h"
#include "geom/rect.h"
#include "util/rng.h"

namespace movd {
namespace {

std::vector<WeightedPoint> RandomProblem(size_t n, Rng* rng) {
  std::vector<WeightedPoint> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({{rng->Uniform(0, 10), rng->Uniform(0, 10)},
                   rng->Uniform(0.1, 10.0)});
  }
  return pts;
}

// Reference: coarse-to-fine grid minimisation of the cost function.
Point GridMinimize(const std::vector<WeightedPoint>& pts) {
  Rect box;
  for (const auto& p : pts) box.Expand(p.location);
  box = Rect(box.min_x - 1, box.min_y - 1, box.max_x + 1, box.max_y + 1);
  Point best = box.Center();
  double best_cost = FermatWeberCost(pts, best);
  double span = std::max(box.Width(), box.Height());
  for (int round = 0; round < 12; ++round) {
    for (int gx = -10; gx <= 10; ++gx) {
      for (int gy = -10; gy <= 10; ++gy) {
        const Point q{best.x + gx * span / 20.0, best.y + gy * span / 20.0};
        const double c = FermatWeberCost(pts, q);
        if (c < best_cost) {
          best_cost = c;
          best = q;
        }
      }
    }
    span /= 8.0;
  }
  return best;
}

TEST(FermatWeberCostTest, SinglePoint) {
  const std::vector<WeightedPoint> pts = {{{3, 4}, 2.0}};
  EXPECT_DOUBLE_EQ(FermatWeberCost(pts, {0, 0}), 10.0);
  EXPECT_DOUBLE_EQ(FermatWeberCost(pts, {3, 4}), 0.0);
}

TEST(LowerBoundTest, NeverExceedsOptimalCost) {
  Rng rng(61);
  for (int trial = 0; trial < 50; ++trial) {
    const auto pts = RandomProblem(3 + rng.NextBelow(6), &rng);
    const Point opt = GridMinimize(pts);
    const double opt_cost = FermatWeberCost(pts, opt);
    for (int probe = 0; probe < 10; ++probe) {
      const Point at{rng.Uniform(-2, 12), rng.Uniform(-2, 12)};
      EXPECT_LE(FermatWeberLowerBound(pts, at), opt_cost * (1.0 + 1e-9));
    }
  }
}

TEST(LowerBoundTest, TightAtTheOptimum) {
  Rng rng(62);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = RandomProblem(5, &rng);
    FermatWeberOptions opts;
    opts.epsilon = 1e-12;
    const auto r = SolveFermatWeber(pts, opts);
    const double lb = FermatWeberLowerBound(pts, r.location);
    // Eq. 10 is asymptotically tight: at the optimum the per-axis weighted
    // medians reproduce the full cost.
    EXPECT_NEAR(lb, r.cost, 1e-6 * r.cost);
  }
}

TEST(CollinearTest, WeightedMedianOnALine) {
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 1.0}, {{1, 1}, 1.0}, {{2, 2}, 5.0}, {{3, 3}, 1.0}};
  const auto r = SolveCollinear(pts);
  ASSERT_TRUE(r.has_value());
  // The heavy point dominates: optimum at (2, 2).
  EXPECT_NEAR(r->x, 2.0, 1e-12);
  EXPECT_NEAR(r->y, 2.0, 1e-12);
}

TEST(CollinearTest, VerticalLine) {
  const std::vector<WeightedPoint> pts = {
      {{5, 0}, 1.0}, {{5, 4}, 1.0}, {{5, 10}, 1.0}};
  const auto r = SolveCollinear(pts);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->x, 5.0, 1e-12);
  EXPECT_NEAR(r->y, 4.0, 1e-12);  // median of three
}

TEST(CollinearTest, RejectsNonCollinear) {
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 1.0}, {{1, 0}, 1.0}, {{0, 1}, 1.0}};
  EXPECT_FALSE(SolveCollinear(pts).has_value());
}

TEST(CollinearTest, AllPointsIdentical) {
  const std::vector<WeightedPoint> pts = {{{2, 3}, 1.0}, {{2, 3}, 7.0}};
  const auto r = SolveCollinear(pts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, Point(2, 3));
}

// The Torricelli point is SolveTriangle's equal-weight (120-degree) case.
std::vector<WeightedPoint> Unweighted(const Point& a, const Point& b,
                                      const Point& c) {
  return {{a, 1.0}, {b, 1.0}, {c, 1.0}};
}

TEST(TorricelliTest, EquilateralTriangleCentroid) {
  const Point a{0, 0}, b{1, 0}, c{0.5, std::sqrt(3.0) / 2.0};
  const Point t = SolveTriangle(Unweighted(a, b, c)).location;
  EXPECT_NEAR(t.x, 0.5, 1e-12);
  EXPECT_NEAR(t.y, std::sqrt(3.0) / 6.0, 1e-12);
}

TEST(TorricelliTest, MatchesIterativeSolution) {
  Rng rng(63);
  for (int trial = 0; trial < 50; ++trial) {
    // Sample triangles, skipping those with an angle >= 120 degrees (the
    // optimum must be interior).
    const Point a{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    const Point b{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    const Point c{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    const std::vector<WeightedPoint> pts = Unweighted(a, b, c);
    bool vertex_optimal = false;
    for (int j = 0; j < 3; ++j) {
      Point pull{0, 0};
      for (int i = 0; i < 3; ++i) {
        if (i == j) continue;
        const Point diff = pts[i].location - pts[j].location;
        const double d = diff.Norm();
        if (d < 1e-9) vertex_optimal = true;
        if (d > 0) pull = pull + diff * (1.0 / d);
      }
      if (pull.Norm() <= 1.0 + 1e-9) vertex_optimal = true;
    }
    if (vertex_optimal) continue;
    const Point t = SolveTriangle(pts).location;
    FermatWeberOptions opts;
    opts.epsilon = 1e-12;
    opts.use_exact_special_cases = false;
    const auto r = SolveFermatWeber(pts, opts);
    EXPECT_NEAR(FermatWeberCost(pts, t), FermatWeberCost(pts, r.location),
                1e-7 * FermatWeberCost(pts, t));
  }
}

TEST(TorricelliTest, SliverTriangleFallsBackToIterative) {
  // c sits a denormal above the segment ab: the triple fails the exact
  // collinearity test, yet no construction resolves it (the old
  // equilateral-apex lines were numerically antiparallel and aborted).
  // The result must be a finite point on the segment.
  const Point a{0, 0}, b{1, 0}, c{0.5, 1e-30};
  ASSERT_NE(Orient2D(a, b, c), 0.0);  // not exactly collinear
  const Point t = SolveTriangle(Unweighted(a, b, c)).location;
  ASSERT_TRUE(std::isfinite(t.x));
  ASSERT_TRUE(std::isfinite(t.y));
  // Any point on the segment is optimal with cost d(a, b) = 1.
  const std::vector<WeightedPoint> pts = Unweighted(a, b, c);
  EXPECT_NEAR(FermatWeberCost(pts, t), 1.0, 1e-9);
  EXPECT_NEAR(t.y, 0.0, 1e-9);
}

TEST(TorricelliTest, SliverSweepStaysFiniteAndNearOptimal) {
  // Sliver triangles across heights and apex positions: every result must
  // be finite with cost within rounding of the degenerate optimum d(a, b)
  // (the apex is essentially on the segment).
  for (const double height : {1e-18, 1e-22, 1e-26, 1e-30}) {
    for (const double x : {0.2, 0.5, 0.8}) {
      const Point a{0, 0}, b{1, 0}, c{x, height};
      const Point t = SolveTriangle(Unweighted(a, b, c)).location;
      ASSERT_TRUE(std::isfinite(t.x)) << "h=" << height << " x=" << x;
      ASSERT_TRUE(std::isfinite(t.y)) << "h=" << height << " x=" << x;
      const std::vector<WeightedPoint> pts = Unweighted(a, b, c);
      EXPECT_NEAR(FermatWeberCost(pts, t), 1.0, 1e-9)
          << "h=" << height << " x=" << x;
    }
  }
}

TEST(SolveTriangleTest, ObtuseVertexWins) {
  // Angle at a is far beyond 120 degrees: the optimum is the vertex a.
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 1.0}, {{10, 0.5}, 1.0}, {{-10, 0.5}, 1.0}};
  EXPECT_EQ(SolveTriangle(pts).location, Point(0, 0));
}

TEST(SolveTriangleTest, HeavyVertexWins) {
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 10.0}, {{1, 0}, 1.0}, {{0, 1}, 1.0}};
  EXPECT_EQ(SolveTriangle(pts).location, Point(0, 0));
}

TEST(SolveTriangleTest, CollinearInputGoesToTheWeightedMedian) {
  // Two coincident points fail the vertex test (each ignores the other),
  // so only the collinear route finds their combined weight's median.
  const std::vector<WeightedPoint> pts = {
      {{3, 4}, 1.0}, {{3, 4}, 1.0}, {{9, 4}, 1.5}};
  const FermatWeberResult r = SolveTriangle(pts);
  EXPECT_EQ(r.location, Point(3, 4));
  EXPECT_EQ(r.iterations, 0);
  EXPECT_TRUE(r.converged);
}

// The reference: SolveFermatWeber's plain iteration run to epsilon = 1e-12.
FermatWeberResult IterativeReference(const std::vector<WeightedPoint>& pts) {
  FermatWeberOptions opts;
  opts.epsilon = 1e-12;
  opts.use_exact_special_cases = false;
  return SolveFermatWeber(pts, opts);
}

TEST(SolveTriangleTest, BeatsTheIterationWhereItHitsItsCap) {
  // Weighted interior optima on which the 1e-12 iteration stops at its
  // 100,000-iteration cap without converging.
  const std::vector<std::vector<WeightedPoint>> cases = {
      {{{466.30660431489105, 7900.0850019693407}, 8.07856122367442},
       {{27.326917494660847, 7591.987897192219}, 3.475341509708759},
       {{488.30956178629168, 8367.7637536432176}, 9.7250086975964081}},
      {{{2773.4708198968351, 7284.2501212627049}, 8.7965544757050864},
       {{2818.1188066665727, 7267.4953013000659}, 9.5619188893437812},
       {{2808.0407671323583, 7242.6868201364505}, 3.5196495226577311}},
      {{{1165.0561997000937, 9259.2443639091362}, 1.6814947401470999},
       {{1090.1294119068034, 9296.0269770250452}, 9.3821185220180716},
       {{870.91616515405326, 8994.0682001012865}, 9.5218026645936664}}};
  for (const auto& pts : cases) {
    const FermatWeberResult reference = IterativeReference(pts);
    EXPECT_EQ(reference.iterations, FermatWeberOptions().max_iterations);
    const FermatWeberResult r = SolveTriangle(pts);
    EXPECT_LT(r.cost, reference.cost);
    EXPECT_TRUE(r.converged);
  }
}

// The weighted vertex-optimality test, written out independently of the
// solver: some p_j with |sum_{i != j} w_i u_ij| <= w_j.
bool VertexOptimal(const std::vector<WeightedPoint>& pts) {
  for (size_t j = 0; j < pts.size(); ++j) {
    Point pull{0, 0};
    for (size_t i = 0; i < pts.size(); ++i) {
      const Point diff = pts[i].location - pts[j].location;
      if (i != j && diff.Norm() > 0) {
        pull = pull + diff * (pts[i].weight / diff.Norm());
      }
    }
    if (pull.Norm() <= pts[j].weight) return true;
  }
  return false;
}

TEST(SolveTriangleTest, SeededSweepIsNoWorseThanTheIteration) {
  // Interior optima of four kinds: log-uniform weights on random
  // triangles, equal weights, and two planted kinds whose weights are
  // chosen (Lami's theorem: w_i proportional to |u_j x u_k|) so a chosen
  // point q is the optimum — q within 1e-5..1e-1 (barycentric) of a
  // vertex, and q inside a sliver of relative height 1e-5..1e-1. Scales
  // span 1e-2..1e4 at offsets up to 1e4, as in map coordinates.
  Rng rng(75);
  int interior = 0, near_vertex = 0, sliver = 0;
  for (int trial = 0; interior < 10000; ++trial) {
    const int kind = trial % 200 == 0 ? 2 : trial % 200 == 1 ? 3 : trial % 2;
    const double scale = std::pow(10.0, rng.Uniform(-2, 4));
    const Point origin{rng.Uniform(0, 1e4), rng.Uniform(0, 1e4)};
    std::vector<WeightedPoint> pts(3);
    for (WeightedPoint& p : pts) {
      p.location =
          origin + Point{rng.Uniform(0, 1), rng.Uniform(0, 1)} * scale;
      p.weight = kind == 1 ? 1.0 : std::exp(rng.Uniform(-2.0, 2.0));
    }
    if (kind >= 2) {
      const double t = std::pow(10.0, rng.Uniform(-5, -1));
      double bary[3] = {rng.Uniform(0.05, 1), rng.Uniform(0.05, 1),
                        rng.Uniform(0.05, 1)};
      if (kind == 2) {
        const double s = rng.Uniform(0.05, 0.95);
        bary[0] = 1 - t;
        bary[1] = t * s;
        bary[2] = t * (1 - s);
      } else {
        const Point ab = pts[1].location - pts[0].location;
        pts[2].location = pts[0].location + ab * rng.Uniform(0.05, 0.95) +
                          Point{-ab.y, ab.x} * t;
      }
      const double sum = bary[0] + bary[1] + bary[2];
      Point q{0, 0};
      for (int i = 0; i < 3; ++i) q = q + pts[i].location * (bary[i] / sum);
      Point u[3];
      for (int i = 0; i < 3; ++i) {
        const Point d = pts[i].location - q;
        u[i] = d / d.Norm();
      }
      const double w = std::exp(rng.Uniform(-4.0, 4.0));
      for (int i = 0; i < 3; ++i) {
        pts[i].weight = w * std::fabs(u[(i + 1) % 3].Cross(u[(i + 2) % 3]));
      }
    }
    if (VertexOptimal(pts)) continue;
    const FermatWeberResult r = SolveTriangle(pts);
    ++interior;
    near_vertex += kind == 2;
    sliver += kind == 3;
    EXPECT_LE(r.iterations, 8) << "trial " << trial;
    const double reference = IterativeReference(pts).cost;
    ASSERT_LE(r.cost, reference * (1.0 + 4.0 * DBL_EPSILON))
        << "trial " << trial << " kind " << kind;
  }
  EXPECT_GE(near_vertex, 100);
  EXPECT_GE(sliver, 100);
}

class WeiszfeldConvergenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(WeiszfeldConvergenceTest, ConvergesToGridOptimum) {
  const auto [n, epsilon] = GetParam();
  Rng rng(64 + n);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pts = RandomProblem(n, &rng);
    FermatWeberOptions opts;
    opts.epsilon = epsilon;
    const auto r = SolveFermatWeber(pts, opts);
    EXPECT_TRUE(r.converged);
    const double reference = FermatWeberCost(pts, GridMinimize(pts));
    // The stopping rule guarantees cost <= (1 + eps) * optimum.
    EXPECT_LE(r.cost, (1.0 + epsilon) * reference + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndEpsilons, WeiszfeldConvergenceTest,
    ::testing::Combine(::testing::Values<size_t>(4, 5, 8, 16),
                       ::testing::Values(1e-2, 1e-3, 1e-5)));

TEST(WeiszfeldTest, IterateLandingOnDemandPointEscapes) {
  // Centroid of this configuration coincides with a (non-optimal) demand
  // point; the Vardi–Zhang step must escape it.
  const std::vector<WeightedPoint> pts = {{{0, 0}, 1.0},
                                          {{4, 0}, 1.0},
                                          {{-4, 0}, 1.0},
                                          {{0, 4}, 1.0},
                                          {{0, -4}, 1.0}};
  FermatWeberOptions opts;
  opts.epsilon = 1e-10;
  const auto r = SolveFermatWeber(pts, opts);
  // (0, 0) is actually optimal here (symmetric); verify the vertex case.
  EXPECT_NEAR(r.location.x, 0.0, 1e-9);
  EXPECT_NEAR(r.location.y, 0.0, 1e-9);
  // Now make it non-optimal by moving weight off-center.
  const std::vector<WeightedPoint> pts2 = {{{0, 0}, 0.1},
                                           {{4, 0}, 5.0},
                                           {{-4, 0}, 1.0},
                                           {{0, 4}, 1.0},
                                           {{0, -4}, 1.0}};
  const auto r2 = SolveFermatWeber(pts2, opts);
  EXPECT_GT(r2.location.x, 0.5);  // dragged toward the heavy point
}

TEST(RelaxationTest, AcceleratedSolveFindsSameOptimum) {
  Rng rng(69);
  for (int trial = 0; trial < 30; ++trial) {
    const auto pts = RandomProblem(6, &rng);
    FermatWeberOptions plain;
    plain.epsilon = 1e-8;
    FermatWeberOptions fast = plain;
    fast.relaxation = 1.8;
    const auto a = SolveFermatWeber(pts, plain);
    const auto b = SolveFermatWeber(pts, fast);
    EXPECT_NEAR(a.cost, b.cost, 1e-6 * a.cost);
  }
}

TEST(RelaxationTest, AcceleratedSolveUsesFewerIterationsOnAverage) {
  Rng rng(70);
  uint64_t plain_iters = 0, fast_iters = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto pts = RandomProblem(8, &rng);
    FermatWeberOptions plain;
    plain.epsilon = 1e-9;
    FermatWeberOptions fast = plain;
    fast.relaxation = 1.8;
    plain_iters += SolveFermatWeber(pts, plain).iterations;
    fast_iters += SolveFermatWeber(pts, fast).iterations;
  }
  EXPECT_LT(fast_iters, plain_iters);
}

TEST(CostBoundTest, PrunesWhenBoundUnbeatable) {
  Rng rng(65);
  const auto pts = RandomProblem(6, &rng);
  FermatWeberOptions opts;
  opts.cost_bound = 0.0;  // nothing can beat a zero bound
  const auto r = SolveFermatWeber(pts, opts);
  EXPECT_TRUE(r.pruned);
  EXPECT_LE(r.iterations, 2);
}

TEST(CostBoundTest, DoesNotPruneTheActualWinner) {
  Rng rng(66);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = RandomProblem(5, &rng);
    FermatWeberOptions no_bound;
    no_bound.epsilon = 1e-6;
    const auto base = SolveFermatWeber(pts, no_bound);
    FermatWeberOptions with_bound = no_bound;
    with_bound.cost_bound = base.cost * 1.001;  // barely above the optimum
    const auto r = SolveFermatWeber(pts, with_bound);
    EXPECT_FALSE(r.pruned);
    EXPECT_NEAR(r.cost, base.cost, 1e-3 * base.cost);
  }
}

TEST(SharedBoundTest, BoundBelowOptimumPrunes) {
  Rng rng(71);
  const auto pts = RandomProblem(6, &rng);
  std::atomic<double> bound{0.0};  // nothing can beat a zero bound
  FermatWeberOptions opts;
  opts.shared_cost_bound = &bound;
  const auto r = SolveFermatWeber(pts, opts);
  EXPECT_TRUE(r.pruned);
  EXPECT_LE(r.iterations, 2);
}

TEST(SharedBoundTest, TiedBoundDoesNotPruneAndIsBitIdentical) {
  // The determinism linchpin: a shared bound exactly equal to the solution
  // cost must never fire (strict comparison), because the Eq. 10 lower
  // bound never exceeds the optimum, which never exceeds the achieved
  // cost. The iterate path is then identical to the unbounded run.
  Rng rng(72);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = RandomProblem(5, &rng);
    FermatWeberOptions base;
    base.epsilon = 1e-3;
    const auto unbounded = SolveFermatWeber(pts, base);
    std::atomic<double> bound{unbounded.cost};
    FermatWeberOptions tied = base;
    tied.shared_cost_bound = &bound;
    const auto r = SolveFermatWeber(pts, tied);
    EXPECT_FALSE(r.pruned);
    EXPECT_EQ(r.cost, unbounded.cost);
    EXPECT_EQ(r.location.x, unbounded.location.x);
    EXPECT_EQ(r.location.y, unbounded.location.y);
    EXPECT_EQ(r.iterations, unbounded.iterations);
  }
}

TEST(SharedBoundTest, OffsetShiftsTheComparison) {
  // The bound lives in total-cost space; the solver sees raw Fermat–Weber
  // costs plus a constant offset. A bound tied at (cost + offset) must not
  // prune; a bound strictly below it must.
  Rng rng(73);
  const auto pts = RandomProblem(5, &rng);
  FermatWeberOptions base;
  base.epsilon = 1e-3;
  const auto plain = SolveFermatWeber(pts, base);
  const double offset = 7.25;
  std::atomic<double> tied_bound{plain.cost + offset};
  FermatWeberOptions opts = base;
  opts.shared_cost_bound = &tied_bound;
  opts.shared_bound_offset = offset;
  const auto kept = SolveFermatWeber(pts, opts);
  EXPECT_FALSE(kept.pruned);
  EXPECT_EQ(kept.cost, plain.cost);
  std::atomic<double> low_bound{offset};  // lb + offset > offset immediately
  opts.shared_cost_bound = &low_bound;
  const auto cut = SolveFermatWeber(pts, opts);
  EXPECT_TRUE(cut.pruned);
}

TEST(BatchTest, ParallelMatchesSerialBitwise) {
  // The winner triple (location, cost, index) must be invariant under the
  // thread count: tied minima always complete (strict shared bound) and
  // the reduction picks the lowest index among exact-cost ties.
  Rng rng(74);
  std::vector<std::vector<WeightedPoint>> problems;
  for (int i = 0; i < 200; ++i) problems.push_back(RandomProblem(5, &rng));
  BatchOptions serial;
  serial.epsilon = 1e-4;
  const auto base = SolveFermatWeberBatch(problems, serial);
  for (const int threads : {2, 4, 8}) {
    BatchOptions par = serial;
    par.exec.threads = threads;
    const auto r = SolveFermatWeberBatch(problems, par);
    EXPECT_EQ(r.winner, base.winner) << "threads=" << threads;
    EXPECT_EQ(r.cost, base.cost) << "threads=" << threads;
    EXPECT_EQ(r.location.x, base.location.x) << "threads=" << threads;
    EXPECT_EQ(r.location.y, base.location.y) << "threads=" << threads;
  }
}

TEST(BatchTest, CostBoundMatchesOriginalWinner) {
  Rng rng(67);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<WeightedPoint>> problems;
    for (int i = 0; i < 50; ++i) problems.push_back(RandomProblem(5, &rng));
    BatchOptions original;
    original.use_cost_bound = false;
    original.use_two_point_prefilter = false;
    original.epsilon = 1e-4;
    const auto base = SolveFermatWeberBatch(problems, original);
    BatchOptions cb;
    cb.epsilon = 1e-4;
    const auto fast = SolveFermatWeberBatch(problems, cb);
    // Same winner cost within stopping-rule slack.
    EXPECT_NEAR(fast.cost, base.cost, 2e-4 * base.cost + 1e-9);
    // And strictly less work.
    EXPECT_LE(fast.total_iterations, base.total_iterations);
  }
}

TEST(BatchTest, PrefilterOnlySkipsLosers) {
  Rng rng(68);
  std::vector<std::vector<WeightedPoint>> problems;
  for (int i = 0; i < 100; ++i) problems.push_back(RandomProblem(6, &rng));
  BatchOptions opts;
  const auto r = SolveFermatWeberBatch(problems, opts);
  BatchOptions no_filter = opts;
  no_filter.use_two_point_prefilter = false;
  const auto r2 = SolveFermatWeberBatch(problems, no_filter);
  EXPECT_EQ(r.winner, r2.winner);
  EXPECT_NEAR(r.cost, r2.cost, 1e-12);
}

TEST(BatchTest, SingleProblemBatch) {
  const std::vector<std::vector<WeightedPoint>> problems = {
      {{{0, 0}, 1.0}, {{2, 0}, 1.0}, {{1, 2}, 1.0}}};
  const auto r = SolveFermatWeberBatch(problems);
  EXPECT_EQ(r.winner, 0u);
  EXPECT_GT(r.cost, 0.0);
}

}  // namespace
}  // namespace movd
