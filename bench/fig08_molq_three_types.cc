// Reproduces Fig. 8: MOLQ with three object types (Ē = {STM, CH, SCH}),
// execution time of SSC vs RRB vs MBRB as the per-type object count grows.
// The cost-bound approach is enabled in all three solvers, as in the paper.
//
// Harnessed (DESIGN.md §10): bench::RunMain owns warmup/repetitions/seeding
// and emits BENCH_fig08_molq_three_types.json. Extra flags beyond the
// shared set: --sizes=16,32,64,128,256  --epsilon=1e-3.
// With --threads=N > 1 the fig08_parallel bench adds serial-vs-parallel
// cases and asserts bit-identical answers across thread counts.

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "util/check.h"

namespace movd::bench {
namespace {

// Solves once with the harness's ExecOptions (threads/audit/trace); with
// --audit the invariant auditors (DESIGN.md §7) run inside the measured
// solve and the first violation aborts, so audit runs are for validation,
// not for figures.
double SolveOnce(const BenchContext& ctx, const MolqQuery& query,
                 MolqAlgorithm algorithm, double epsilon, int threads) {
  MolqOptions opts;
  opts.algorithm = algorithm;
  opts.epsilon = epsilon;
  opts.exec = ctx.MakeExec();
  opts.exec.threads = threads;
  const MolqResult r = SolveMolq(query, kWorld, opts);
  if (opts.exec.audit && !r.audit.ok()) {
    for (const std::string& v : r.audit.Messages()) {
      std::fprintf(stderr, "audit violation: %s\n", v.c_str());
    }
    MOVD_CHECK_MSG(false, "--audit found invariant violations");
  }
  return r.cost;
}

constexpr struct {
  MolqAlgorithm algo;
  const char* name;
} kAlgos[] = {{MolqAlgorithm::kSsc, "ssc"},
              {MolqAlgorithm::kRrb, "rrb"},
              {MolqAlgorithm::kMbrb, "mbrb"}};

}  // namespace

BENCH(fig08_three_types) {
  const auto sizes = ctx.flags().GetSizeList("sizes", "16,32,64,128,256");
  const double epsilon = ctx.flags().GetDouble("epsilon", 1e-3);
  for (const size_t n : sizes) {
    const MolqQuery query = MakeQuery({n, n, n}, ctx.seed());
    double ssc_median = 0.0;
    double ssc_cost = 0.0;
    for (const auto& [algo, name] : kAlgos) {
      BenchCase& c = ctx.Case(std::string(name) + "/n=" + std::to_string(n))
                         .Param("algo", name)
                         .Param("n", n)
                         .Param("epsilon", epsilon);
      double cost = 0.0;
      const Summary& wall = ctx.Measure(c, [&] {
        cost = SolveOnce(ctx, query, algo, epsilon, ctx.threads());
      });
      c.Metric("cost", cost);
      if (algo == MolqAlgorithm::kSsc) {
        ssc_median = wall.median;
        ssc_cost = cost;
      } else {
        c.Derived("speedup_vs_ssc", ssc_median / wall.median);
        c.Derived("cost_dev_pct",
                  100.0 * std::abs(cost - ssc_cost) / ssc_cost);
      }
    }
  }
}

// Serial vs --threads=N pipeline on the same queries. Registered always,
// populated only when --threads > 1 (single-threaded runs have nothing to
// compare).
BENCH(fig08_parallel) {
  const int threads = ctx.threads();
  if (threads <= 1) return;
  const auto sizes = ctx.flags().GetSizeList("sizes", "16,32,64,128,256");
  const double epsilon = ctx.flags().GetDouble("epsilon", 1e-3);
  for (const size_t n : sizes) {
    const MolqQuery query = MakeQuery({n, n, n}, ctx.seed());
    for (const auto& [algo, name] : kAlgos) {
      if (algo == MolqAlgorithm::kSsc) continue;
      BenchCase& serial =
          ctx.Case(std::string(name) + "/1thr/n=" + std::to_string(n))
              .Param("algo", name)
              .Param("n", n)
              .Param("threads", static_cast<int64_t>(1));
      double c1 = 0.0;
      const Summary& w1 =
          ctx.Measure(serial, [&] { c1 = SolveOnce(ctx, query, algo,
                                                   epsilon, 1); });
      serial.Metric("cost", c1);

      BenchCase& par = ctx.Case(std::string(name) + "/" +
                                std::to_string(threads) + "thr/n=" +
                                std::to_string(n))
                           .Param("algo", name)
                           .Param("n", n)
                           .Param("threads", static_cast<int64_t>(threads));
      double cn = 0.0;
      const Summary& wn = ctx.Measure(
          par, [&] { cn = SolveOnce(ctx, query, algo, epsilon, threads); });
      MOVD_CHECK(c1 == cn);  // determinism across thread counts
      par.Metric("cost", cn);
      par.Derived("speedup_vs_serial", w1.median / wn.median);
    }
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("fig08_molq_three_types")
