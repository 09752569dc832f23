#ifndef MOVD_FERMAT_FERMAT_WEBER_H_
#define MOVD_FERMAT_FERMAT_WEBER_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "geom/point.h"

namespace movd {

/// A Fermat–Weber demand point: a location and a positive weight. In the
/// MOLQ pipeline the weight is the (type-)weighted coefficient the paper's
/// cost function (Eq. 7) attaches to each object.
struct WeightedPoint {
  Point location;
  double weight = 1.0;
};

/// The Fermat–Weber cost c(q, G) = sum_i w_i * d(q, p_i)   (paper Eq. 7).
double FermatWeberCost(const std::vector<WeightedPoint>& points,
                       const Point& q);

/// Lower bound on the optimal cost, evaluated at iterate `at` (paper
/// Eq. 10): per coordinate axis, the exact optimum of a 1-D weighted median
/// problem whose weights are the projections of the unit vectors from `at`
/// to the demand points. Always <= min_q c(q, G).
double FermatWeberLowerBound(const std::vector<WeightedPoint>& points,
                             const Point& at);

/// If all demand points are collinear, returns the exact optimum (weighted
/// median along the line, linear-time after sort); otherwise nullopt.
std::optional<Point> SolveCollinear(const std::vector<WeightedPoint>& points);

/// Options for the iterative (Weiszfeld) solver.
struct FermatWeberOptions {
  /// Relative error bound epsilon: stop when (cost - lb) / lb <= epsilon,
  /// the paper's stopping rule with the optimum approximated by Eq. 10.
  double epsilon = 1e-3;

  /// Hard iteration cap (safety net; the stopping rule fires first).
  int max_iterations = 100000;

  /// Global cost bound (Algorithm 5): iteration aborts as soon as the
  /// lower bound proves this problem cannot beat `cost_bound`.
  double cost_bound = std::numeric_limits<double>::infinity();

  /// Live shared cost bound for concurrent batch solving (§5.4 across
  /// threads). When set, it supersedes `cost_bound`: every iteration
  /// reloads the current global bound and prunes when
  ///   lower_bound + shared_bound_offset > *shared_cost_bound
  /// (strictly greater, unlike the `>=` of the scalar bound, so a problem
  /// whose optimum exactly ties the bound still completes — ties are then
  /// resolved deterministically by the caller's (cost, index) reduction,
  /// independent of thread arrival order). `shared_bound_offset` is the
  /// constant term of the caller's weighted-distance decomposition, which
  /// the bound tracks but this solver does not see.
  const std::atomic<double>* shared_cost_bound = nullptr;
  double shared_bound_offset = 0.0;

  /// When true (default), problems of size 3 / collinear problems are
  /// routed to the exact solvers, as the paper prescribes (§5.4).
  bool use_exact_special_cases = true;

  /// Over-relaxation factor for the Weiszfeld step (Ostresh 1978 proves
  /// convergence for factors in (0, 2]): the iterate moves
  /// q + relaxation * (T(q) - q). 1.0 is the paper's plain iteration;
  /// ~1.8 roughly halves the iteration count. Steps that fail to decrease
  /// the cost fall back to the plain step, preserving monotonicity.
  double relaxation = 1.0;
};

/// Result of one Fermat–Weber solve.
struct FermatWeberResult {
  Point location;
  double cost = 0.0;
  /// Iterations executed: Weiszfeld steps, or for three points the polish
  /// steps after SolveTriangle's construction (0 for vertex, collinear and
  /// one- or two-point optima).
  int iterations = 0;
  /// True when the epsilon stopping rule was satisfied.
  bool converged = false;
  /// True when iteration stopped early because the lower bound crossed
  /// options.cost_bound; `location`/`cost` hold the last iterate.
  bool pruned = false;
};

/// Exact solution of the three-point problem (any positive weights).
/// Vertex optima are detected by the weighted optimality test
/// |sum_{i != j} w_i u_i| <= w_j and collinear input goes to
/// SolveCollinear. An interior optimum is constructed in closed form (the
/// second intersection of two inscribed-angle circles; the Torricelli point
/// when weights are equal), without allocating, and polished by
/// cost-safeguarded Newton steps on the 2x2 Hessian until no step lowers
/// the cost. `iterations` counts the polish steps (usually 0); `converged`
/// is always true.
FermatWeberResult SolveTriangle(const std::vector<WeightedPoint>& points);

/// Solves one Fermat–Weber problem with the modified Weiszfeld iteration
/// (Eq. 8/9; Vardi–Zhang step when an iterate coincides with a demand
/// point). Requires at least one point; equal points are handled.
FermatWeberResult SolveFermatWeber(const std::vector<WeightedPoint>& points,
                                   const FermatWeberOptions& options = {});

}  // namespace movd

#endif  // MOVD_FERMAT_FERMAT_WEBER_H_
