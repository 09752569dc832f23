#include "fermat/fermat_weber.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "geom/predicates.h"
#include "util/check.h"

namespace movd {
namespace {

// Weighted median of (position, weight) pairs: the first position, in
// sorted order, at which the running weight reaches half the total.
double WeightedMedian(std::vector<std::pair<double, double>>* items) {
  std::sort(items->begin(), items->end());
  double total = 0.0;
  for (const auto& [x, w] : *items) total += w;
  double acc = 0.0;
  for (const auto& [x, w] : *items) {
    acc += w;
    if (acc >= 0.5 * total) return x;
  }
  return items->back().first;
}

// Weighted-median objective: returns min_y sum_i w_i |y - x_i| given
// (position, weight) pairs. Exact via sorting.
double WeightedMedianCost(std::vector<std::pair<double, double>>* items) {
  if (items->empty()) return 0.0;
  const double median = WeightedMedian(items);
  double cost = 0.0;
  for (const auto& [x, w] : *items) cost += w * std::fabs(median - x);
  return cost;
}

// One Weiszfeld step (paper Eq. 8/9), with the Vardi–Zhang correction when
// q coincides with a demand point. Returns q unchanged when q is optimal.
Point WeiszfeldStep(const std::vector<WeightedPoint>& points, const Point& q) {
  // Detect coincidence with a demand point.
  int at = -1;
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].location == q) {
      at = static_cast<int>(i);
      break;
    }
  }
  if (at >= 0) {
    // Vertex optimality test: q == p_at is optimal iff the pull of the
    // remaining points (their weighted unit vectors from q; points on q
    // are ignored) does not exceed w_at.
    Point pull{0.0, 0.0};
    double denom = 0.0;
    for (const WeightedPoint& p : points) {
      const Point diff = p.location - q;
      const double d = diff.Norm();
      if (d == 0.0) continue;
      pull = pull + diff * (p.weight / d);
      denom += p.weight / d;
    }
    const double r = pull.Norm();
    const double w = points[at].weight;
    if (r <= w) return q;
    // Vardi–Zhang: move along the pull direction by the damped step.
    MOVD_DCHECK(denom > 0.0);
    const double step = (r - w) / denom;
    return q + pull * (step / r);
  }
  // Standard step: convex combination with coefficients w_i / d_i.
  double denom = 0.0;
  Point num{0.0, 0.0};
  for (const WeightedPoint& p : points) {
    const double d = Distance(p.location, q);
    MOVD_DCHECK(d > 0.0);
    const double g = p.weight / d;
    num = num + p.location * g;
    denom += g;
  }
  return num / denom;
}

Point Centroid(const std::vector<WeightedPoint>& points) {
  Point c{0.0, 0.0};
  double w = 0.0;
  for (const WeightedPoint& p : points) {
    c = c + p.location * p.weight;
    w += p.weight;
  }
  return w > 0.0 ? c / w : points.front().location;
}

// The converged result of an exactly known optimum q.
FermatWeberResult ExactAt(const std::vector<WeightedPoint>& points,
                          const Point& q) {
  FermatWeberResult result;
  result.location = q;
  result.cost = FermatWeberCost(points, q);
  result.converged = true;
  return result;
}

// Cap on SolveTriangle's polish steps (a few at most from a construction;
// the cap bounds Weiszfeld crawls on near-degenerate input).
constexpr int kMaxPolishSteps = 200;

// Newton step -H^-1 g of the cost at q: g = sum w_i u_i, H = sum (w_i /
// d_i)(I - u_i u_i^T), u_i the unit vector p_i -> q. kNone at a demand
// point or singular H; kResolved within sqrt(DBL_EPSILON) of the nearest
// distance, where the cost change is below its rounding (and so is the
// Weiszfeld step's, -g / sum(w_i / d_i), as H <= sum(w_i / d_i) I).
enum class Newton { kStep, kResolved, kNone };
Newton NewtonStep(const std::vector<WeightedPoint>& points, const Point& q,
                  Point* step) {
  double gx = 0.0, gy = 0.0, hxx = 0.0, hxy = 0.0, hyy = 0.0;
  double nearest = std::numeric_limits<double>::infinity();
  for (const WeightedPoint& p : points) {
    const Point u = q - p.location;
    const double d = u.Norm();
    if (!(d > 0.0)) return Newton::kNone;
    nearest = std::min(nearest, d);
    const double inv = 1.0 / d;
    const double ux = u.x * inv, uy = u.y * inv, s = p.weight * inv;
    gx += p.weight * ux;
    gy += p.weight * uy;
    hxx += s * uy * uy;
    hyy += s * ux * ux;
    hxy -= s * ux * uy;
  }
  const double det = hxx * hyy - hxy * hxy;
  if (!(det > 0.0)) return Newton::kNone;
  *step = Point{hxy * gy - hyy * gx, hxy * gx - hxx * gy} * (1.0 / det);
  return step->Norm2() <= DBL_EPSILON * nearest * nearest ? Newton::kResolved
                                                           : Newton::kStep;
}

// Closed-form interior optimum of a weighted triangle. There the weighted
// unit vectors toward the points sum to zero, so q sees edge p_i p_j under
// the angle theta_ij with cos theta_ij = (w_k^2 - w_i^2 - w_j^2) /
// (2 w_i w_j), i.e. cot theta_ij = (w_k^2 - w_i^2 - w_j^2) / sqrt(P) for
// P the Heron product of the weights. By the inscribed-angle theorem that
// locus is a circle through p_i and p_j; the two circles through a shared
// vertex a meet again at q, the reflection of a across the line through
// their centres. Non-finite when rounding leaves no such angle (P <= 0).
Point InscribedAngleIntersection(const std::vector<WeightedPoint>& points) {
  // Share the lightest vertex: the optimum lies farthest from it, away
  // from the tangency where the two circles meet only at a.
  const int s = points[1].weight < points[0].weight
                    ? (points[2].weight < points[1].weight ? 2 : 1)
                    : (points[2].weight < points[0].weight ? 2 : 0);
  const WeightedPoint& a = points[s];
  const WeightedPoint& b = points[(s + 1) % 3];
  const WeightedPoint& c = points[(s + 2) % 3];
  const double wa = a.weight, wb = b.weight, wc = c.weight;
  const double root = std::sqrt((wa + wb + wc) * (wb + wc - wa) *
                                (wa + wc - wb) * (wa + wb - wc));
  // Relative to a: the centre of the circle through 0 and e seeing e under
  // theta from the side `toward` (+1 left of 0->e) is the chord midpoint
  // moved cot(theta) / 2 chord lengths along the normal.
  const double half_inv_root = 0.5 / root;
  const auto centre = [&](const Point& e, double cos_num, double toward) {
    return e * 0.5 + Point{-e.y, e.x} * (cos_num * half_inv_root * toward);
  };
  const Point ab = b.location - a.location;
  const Point ac = c.location - a.location;
  const double side = ab.Cross(ac) > 0.0 ? 1.0 : -1.0;
  const Point c1 = centre(ab, wc * wc - wa * wa - wb * wb, side);
  const Point c2 = centre(ac, wb * wb - wa * wa - wc * wc, -side);
  const Point d = c2 - c1;
  return a.location + (c1 - d * (c1.Dot(d) / d.Norm2())) * 2.0;
}

}  // namespace

double FermatWeberCost(const std::vector<WeightedPoint>& points,
                       const Point& q) {
  double cost = 0.0;
  for (const WeightedPoint& p : points) {
    cost += p.weight * Distance(q, p.location);
  }
  return cost;
}

double FermatWeberLowerBound(const std::vector<WeightedPoint>& points,
                             const Point& at) {
  // d(q, p) >= |q.x - p.x| * cx + |q.y - p.y| * cy for any (cx, cy) with
  // cx^2 + cy^2 <= 1 (Cauchy–Schwarz); pick c from the unit vector at->p.
  std::vector<std::pair<double, double>> xs, ys;
  xs.reserve(points.size());
  ys.reserve(points.size());
  for (const WeightedPoint& p : points) {
    const double d = Distance(at, p.location);
    if (d == 0.0) continue;  // contributes a zero lower-bound term
    const double cx = std::fabs(at.x - p.location.x) / d;
    const double cy = std::fabs(at.y - p.location.y) / d;
    xs.emplace_back(p.location.x, p.weight * cx);
    ys.emplace_back(p.location.y, p.weight * cy);
  }
  return WeightedMedianCost(&xs) + WeightedMedianCost(&ys);
}

std::optional<Point> SolveCollinear(const std::vector<WeightedPoint>& points) {
  MOVD_CHECK(!points.empty());
  // Find two distinct anchor points.
  const Point& a = points.front().location;
  int second = -1;
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].location != a) {
      second = static_cast<int>(i);
      break;
    }
  }
  if (second < 0) return a;  // all points identical
  const Point& b = points[second].location;
  for (const WeightedPoint& p : points) {
    if (Orient2D(a, b, p.location) != 0.0) return std::nullopt;
  }
  // Project on the line direction and take the weighted median.
  const Point dir = b - a;
  std::vector<std::pair<double, double>> ts;  // (parameter, weight)
  ts.reserve(points.size());
  for (const WeightedPoint& p : points) {
    ts.emplace_back((p.location - a).Dot(dir), p.weight);
  }
  return a + dir * (WeightedMedian(&ts) / dir.Norm2());
}

FermatWeberResult SolveTriangle(const std::vector<WeightedPoint>& points) {
  MOVD_CHECK(points.size() == 3);
  // edge[i] is the side opposite p_i; vertex j's neighbours are k and l.
  const double edge[3] = {Distance(points[1].location, points[2].location),
                          Distance(points[0].location, points[2].location),
                          Distance(points[0].location, points[1].location)};
  double vertex_cost[3];
  for (int j = 0; j < 3; ++j) {
    const int k = (j + 1) % 3, l = (j + 2) % 3;
    const auto pull = [&](int i, double d) {
      const Point diff = points[i].location - points[j].location;
      return d > 0.0 ? diff * (points[i].weight / d) : Point{};
    };
    // Vertex optimality (generalises the 120-degree rule to weights).
    if ((pull(k, edge[l]) + pull(l, edge[k])).Norm() <= points[j].weight) {
      return ExactAt(points, points[j].location);
    }
    vertex_cost[j] = points[k].weight * edge[l] + points[l].weight * edge[k];
  }
  if (Collinear(points[0].location, points[1].location, points[2].location)) {
    return ExactAt(points, *SolveCollinear(points));
  }
  FermatWeberResult result =
      ExactAt(points, InscribedAngleIntersection(points));
  Point& q = result.location;
  double& cost = result.cost;
  // Weights that barely fail the vertex test leave no (or a wild)
  // construction, and the optimum hugs a vertex: start from the cheapest.
  for (int j = 0; j < 3; ++j) {
    if (!(cost <= vertex_cost[j])) result = ExactAt(points, points[j].location);
  }
  // Polish: a Newton step (halved at most 3 times), else a Weiszfeld/
  // Vardi–Zhang step; stop at the first that does not lower the cost, or
  // once the Newton step is below the cost's resolution.
  while (result.iterations < kMaxPolishSteps) {
    Point step;
    const Newton newton = NewtonStep(points, q, &step);
    if (newton == Newton::kResolved) break;
    Point next = q;
    double next_cost = cost;
    for (int halvings = 0; newton == Newton::kStep && halvings <= 3 &&
                           !(next_cost < cost);
         ++halvings, step = step * 0.5) {
      next = q + step;
      next_cost = FermatWeberCost(points, next);
    }
    if (!(next_cost < cost)) {
      next = WeiszfeldStep(points, q);
      next_cost = FermatWeberCost(points, next);
    }
    if (!(next_cost < cost)) break;
    q = next;
    cost = next_cost;
    ++result.iterations;
  }
  return result;
}

FermatWeberResult SolveFermatWeber(const std::vector<WeightedPoint>& points,
                                   const FermatWeberOptions& options) {
  MOVD_CHECK_MSG(!points.empty(),
                 "a Fermat-Weber problem needs at least one point");
  if (options.use_exact_special_cases) {
    if (points.size() == 1) return ExactAt(points, points.front().location);
    if (points.size() == 2) {
      // Optimum at the heavier endpoint (anywhere on the segment for ties).
      const bool first = points[0].weight >= points[1].weight;
      return ExactAt(points, (first ? points[0] : points[1]).location);
    }
    if (const auto collinear = SolveCollinear(points)) {
      return ExactAt(points, *collinear);
    }
    if (points.size() == 3) return SolveTriangle(points);
  }

  FermatWeberResult result;
  MOVD_CHECK(options.relaxation > 0.0 && options.relaxation <= 2.0);
  Point q = Centroid(points);
  double cost = FermatWeberCost(points, q);
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    Point next = WeiszfeldStep(points, q);
    result.iterations = iter;
    double next_cost = FermatWeberCost(points, next);
    if (options.relaxation != 1.0) {
      // Over-relaxed trial step; keep it only when it beats the plain one.
      const Point trial = q + (next - q) * options.relaxation;
      const double trial_cost = FermatWeberCost(points, trial);
      if (trial_cost < next_cost) {
        next = trial;
        next_cost = trial_cost;
      }
    }
    const bool moved = next != q;
    const bool improved = next_cost < cost;
    // Weiszfeld decreases the cost monotonically (in exact arithmetic);
    // reject steps that do not, which only happens at float-noise level.
    if (improved) {
      q = next;
      cost = next_cost;
    }
    const double lb = FermatWeberLowerBound(points, q);
    // Cost-bound pruning (Algorithm 5, lines 15-16): once even the lower
    // bound cannot beat the global bound, further iterations are wasted.
    // The shared bound is compared strictly (ties survive) so concurrent
    // solvers stay deterministic; see FermatWeberOptions.
    const bool bound_hit =
        options.shared_cost_bound != nullptr
            ? lb + options.shared_bound_offset >
                  options.shared_cost_bound->load(std::memory_order_relaxed)
            : lb >= options.cost_bound;
    if (bound_hit) {
      result.pruned = true;
      break;
    }
    // Paper stopping rule: relative deviation from the (bounded) optimum,
    // with the optimum approximated from below by Eq. 10.
    if ((lb > 0.0 && (cost - lb) / lb <= options.epsilon) || cost == 0.0) {
      result.converged = true;
      break;
    }
    // Numerical fixed point: the iteration cannot make further progress in
    // double precision (this includes optimal demand-point vertices, which
    // WeiszfeldStep returns unchanged).
    if (!moved || !improved) {
      result.converged = true;
      break;
    }
  }
  result.location = q;
  result.cost = cost;
  return result;
}

}  // namespace movd
