// Reproduces Fig. 14: overlapping multiple Voronoi diagrams (2-5 object
// types drawn in the paper's sequence STM, CH, SCH, PPL, BLDG).
//
//  part (a): availability — the largest per-type object count whose final
//            MOVD fits a memory budget, per approach (the paper exhausts a
//            24 GB server; we model a configurable budget with the same
//            byte-accurate accounting used in Fig. 13). The search is
//            unmeasured setup; its result is the max_n Metric.
//  parts (b)/(c)/(d): execution time / #OVRs / memory along the
//            availability line, including RRB* (RRB run at MBRB's sizes
//            for a fair comparison, as in the paper) — one measured case
//            per (#types, approach).
//
// Harnessed (DESIGN.md §10). Extra flags:
//   --budget_mb=8  --max_n=16384  --types=2,3,4,5

#include "bench/bench_common.h"

namespace movd::bench {
namespace {

struct Probe {
  size_t ovrs = 0;
  size_t bytes = 0;
};

Probe ProbeOverlap(size_t types, size_t n, BoundaryMode mode, uint64_t seed,
                   int threads) {
  const std::vector<size_t> sizes(types, n);
  const auto basic = MakeBasicMovds(sizes, seed, threads);
  const Movd out = OverlapAll(basic, mode, nullptr, nullptr, threads);
  return {out.ovrs.size(), out.MemoryBytes(mode)};
}

// Largest n (doubling + binary search) whose final MOVD memory fits the
// budget. Capped by max_n to keep the search laptop-friendly.
size_t MaxSizeUnderBudget(size_t types, BoundaryMode mode, size_t budget,
                          size_t max_n, uint64_t seed, int threads) {
  size_t lo = 16;
  if (ProbeOverlap(types, lo, mode, seed, threads).bytes > budget) return 0;
  size_t hi = lo;
  while (hi < max_n) {
    const size_t next = std::min(max_n, hi * 2);
    if (ProbeOverlap(types, next, mode, seed, threads).bytes > budget) {
      hi = next;
      break;
    }
    lo = hi = next;
  }
  while (hi - lo > std::max<size_t>(1, lo / 16)) {  // ~6% resolution
    const size_t mid = lo + (hi - lo) / 2;
    if (ProbeOverlap(types, mid, mode, seed, threads).bytes > budget) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

void MeasureAt(BenchContext& ctx, const char* approach, size_t types,
               size_t n, BoundaryMode mode) {
  BenchCase& c = ctx.Case(std::string(approach) + "/types=" +
                          std::to_string(types))
                     .Param("approach", approach)
                     .Param("types", types)
                     .Param("n", n);
  const std::vector<size_t> sizes(types, n);
  const auto basic = MakeBasicMovds(sizes, ctx.seed(), ctx.threads());
  size_t ovrs = 0;
  size_t bytes = 0;
  ctx.Measure(c, [&] {
    const Movd out = OverlapAll(basic, mode, nullptr, nullptr, ctx.threads());
    ovrs = out.ovrs.size();
    bytes = out.MemoryBytes(mode);
    Keep(bytes);
  });
  c.Metric("max_n", static_cast<double>(n));
  c.Metric("ovrs", static_cast<double>(ovrs));
  c.Metric("bytes", static_cast<double>(bytes));
}

}  // namespace

BENCH(fig14_multi_overlap) {
  const size_t budget =
      static_cast<size_t>(ctx.flags().GetInt("budget_mb", 8)) << 20;
  const size_t max_n =
      static_cast<size_t>(ctx.flags().GetInt("max_n", 16384));
  const auto types_list = ctx.flags().GetSizeList("types", "2,3,4,5");
  for (const size_t t : types_list) {
    const size_t rrb_max = MaxSizeUnderBudget(
        t, BoundaryMode::kRealRegion, budget, max_n, ctx.seed(),
        ctx.threads());
    const size_t mbrb_max = MaxSizeUnderBudget(
        t, BoundaryMode::kMbr, budget, max_n, ctx.seed(), ctx.threads());
    if (rrb_max == 0 || mbrb_max == 0) continue;
    MeasureAt(ctx, "rrb", t, rrb_max, BoundaryMode::kRealRegion);
    MeasureAt(ctx, "mbrb", t, mbrb_max, BoundaryMode::kMbr);
    // RRB* = RRB at MBRB's availability line.
    MeasureAt(ctx, "rrb_star", t, mbrb_max, BoundaryMode::kRealRegion);
  }
  // Weighted build phase across type counts (see fig11): fixed per-set
  // size, so the case sweep isolates how the number of diagrams scales.
  const int wres = static_cast<int>(ctx.flags().GetInt("wres", 256));
  const size_t wbuild_n =
      static_cast<size_t>(ctx.flags().GetInt("wbuild_n", 128));
  for (const size_t t : types_list) {
    WeightedBuildCases(ctx, t, wbuild_n, wres);
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("fig14_multi_overlap")
