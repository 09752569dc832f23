// Extension experiment 1 (paper §8 future work: disk-based processing):
// the streaming (external-memory) overlap vs the in-memory sweep. Reports
// wall time and the peak number of resident OVRs — the streaming pipeline
// holds only the sweep-active OVRs regardless of input size.
//
// Harnessed (DESIGN.md §10): per size there are three measured cases —
// the in-memory sweep, the external sort, and the streaming sweep over the
// sorted runs (save/cleanup of the scratch files is unmeasured setup).
// Extra flags: --sizes=1000,4000,16000  --budget_kb=256  --tmpdir=/tmp.

#include <cstdio>

#include "bench/bench_common.h"
#include "storage/external_sort.h"
#include "storage/movd_file.h"
#include "storage/streaming_overlap.h"
#include "util/check.h"

namespace movd::bench {

BENCH(ext01_streaming_overlap) {
  const auto sizes = ctx.flags().GetSizeList("sizes", "1000,4000,16000");
  const size_t budget =
      static_cast<size_t>(ctx.flags().GetInt("budget_kb", 256)) << 10;
  const std::string dir = ctx.flags().GetString("tmpdir", "/tmp");
  for (const size_t n : sizes) {
    const auto basic = MakeBasicMovds({n, n}, ctx.seed(), ctx.threads());
    const std::string suffix = "/n=" + std::to_string(n);

    BenchCase& mem = ctx.Case("inmem" + suffix).Param("n", n);
    size_t mem_ovrs = 0;
    ctx.Measure(mem, [&] {
      const Movd out = Overlap(basic[0], basic[1],
                               BoundaryMode::kRealRegion);
      mem_ovrs = out.ovrs.size();
      Keep(mem_ovrs);
    });
    mem.Metric("ovrs", static_cast<double>(mem_ovrs));

    const std::string pa = dir + "/movd_a.bin", pb = dir + "/movd_b.bin";
    const std::string sa = dir + "/movd_a_sorted.bin";
    const std::string sb = dir + "/movd_b_sorted.bin";
    const std::string out = dir + "/movd_out.bin";
    MOVD_CHECK(SaveMovd(pa, basic[0]).ok());
    MOVD_CHECK(SaveMovd(pb, basic[1]).ok());

    BenchCase& sort = ctx.Case("sort" + suffix)
                          .Param("n", n)
                          .Param("budget_bytes", budget);
    ctx.Measure(sort, [&] {
      ExternalSortMovdFile(pa, sa, budget);
      ExternalSortMovdFile(pb, sb, budget);
    });

    BenchCase& sweep = ctx.Case("sweep" + suffix)
                           .Param("n", n)
                           .Param("budget_bytes", budget);
    StreamingOverlapStats stats;
    ctx.Measure(sweep, [&] {
      stats = StreamingOverlapStats();
      StreamingOverlap(sa, sb, BoundaryMode::kRealRegion, out, &stats);
    });
    sweep.Metric("input_ovrs", static_cast<double>(basic[0].ovrs.size() +
                                                   basic[1].ovrs.size()));
    sweep.Metric("peak_active_ovrs",
                 static_cast<double>(stats.peak_active_ovrs));
    sweep.Metric("peak_active_bytes",
                 static_cast<double>(stats.peak_active_bytes));
    sweep.Derived("stream_over_inmem",
                  (sort.wall().median + sweep.wall().median) /
                      mem.wall().median);

    for (const auto& p : {pa, pb, sa, sb, out}) std::remove(p.c_str());
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("ext01_streaming_overlap")
