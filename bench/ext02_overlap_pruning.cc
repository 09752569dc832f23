// Extension experiment 2 (paper §8 future work: filtering impossible POI
// combinations during MOVD overlapping): the combination-pruning overlap
// vs the plain pipeline, for RRB and MBRB at 3 and 4 object types.
//
// Harnessed (DESIGN.md §10). Extra flags: --sizes=16,32,64 --epsilon=1e-3.

#include "bench/bench_common.h"

namespace movd::bench {

BENCH(ext02_overlap_pruning) {
  const auto sizes = ctx.flags().GetSizeList("sizes", "16,32,64");
  const double epsilon = ctx.flags().GetDouble("epsilon", 1e-3);
  for (const size_t types : {3u, 4u}) {
    for (const size_t n : sizes) {
      const MolqQuery query =
          MakeQuery(std::vector<size_t>(types, n), ctx.seed());
      for (const auto& [algo, name] :
           {std::pair{MolqAlgorithm::kRrb, "rrb"},
            std::pair{MolqAlgorithm::kMbrb, "mbrb"}}) {
        const std::string suffix = std::string("/") + name + "/types=" +
                                   std::to_string(types) + "/n=" +
                                   std::to_string(n);
        MolqOptions opts;
        opts.algorithm = algo;
        opts.epsilon = epsilon;
        opts.exec = ctx.MakeExec();

        BenchCase& plain = ctx.Case("plain" + suffix)
                               .Param("algo", name)
                               .Param("types", types)
                               .Param("n", n);
        MolqResult plain_r;
        const Summary& plain_wall = ctx.Measure(
            plain, [&] { plain_r = SolveMolq(query, kWorld, opts); });
        plain.Metric("cost", plain_r.cost);
        plain.Metric("final_ovrs",
                     static_cast<double>(plain_r.stats.final_ovrs));

        opts.use_overlap_pruning = true;
        BenchCase& pruned = ctx.Case("pruned" + suffix)
                                .Param("algo", name)
                                .Param("types", types)
                                .Param("n", n);
        MolqResult pruned_r;
        const Summary& pruned_wall = ctx.Measure(
            pruned, [&] { pruned_r = SolveMolq(query, kWorld, opts); });
        pruned.Metric("cost", pruned_r.cost);
        pruned.Metric("final_ovrs",
                      static_cast<double>(pruned_r.stats.final_ovrs));
        const double cut =
            plain_r.stats.final_ovrs == 0
                ? 0.0
                : 100.0 * (1.0 -
                           static_cast<double>(pruned_r.stats.final_ovrs) /
                               static_cast<double>(plain_r.stats.final_ovrs));
        pruned.Derived("ovr_cut_pct", cut);
        pruned.Derived("speedup_vs_plain",
                       plain_wall.median / pruned_wall.median);
      }
    }
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("ext02_overlap_pruning")
