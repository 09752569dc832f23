#ifndef MOVD_CORE_OVERLAP_H_
#define MOVD_CORE_OVERLAP_H_

#include <cstdint>

#include "model/movd_model.h"
#include "util/cancel.h"

namespace movd {

/// Counters exposed by the overlap operation, matching the quantities the
/// paper's Figs. 11-14 report.
struct OverlapStats {
  uint64_t events = 0;               ///< start/end events processed
  uint64_t candidate_pairs = 0;      ///< x-range hits tested (Alg. 3 line 4)
  uint64_t region_intersections = 0; ///< real region ∩ computed (RRB only)
  uint64_t output_ovrs = 0;          ///< OVRs appended to the result
};

/// The overlap operation ⊕ (paper Eq. 22, Algorithms 2-4): plane-sweeps the
/// two MOVDs top-to-bottom, pairing OVRs whose y-spans are simultaneously
/// active and whose x-ranges overlap, then intersecting each pair with the
/// selected boundary handler:
///  - BoundaryMode::kRealRegion (RRB, Algorithm 3): real region
///    intersection; empty intersections are discarded.
///  - BoundaryMode::kMbr (MBRB, Algorithm 4): MBR intersection only; every
///    x/y-range hit is emitted (false positives possible).
/// Both operands must themselves carry the fields the mode needs.
///
/// Each operand's active set is a max-tree of mbr.max_x over static ranks
/// (min_x, then start-event order), so the sweep costs O((n + k) log n)
/// for n input OVRs and k candidate pairs. The sweep runs serially on the
/// calling thread and emits candidate pairs in a fixed order into bounded
/// windows. With `threads` > 1 (0 = one per hardware thread), `threads` − 1
/// pool workers intersect one window while the sweep fills the next; each
/// claimed block of pairs clips into its own flat table, and the blocks are
/// concatenated in pair order. The result and `stats` are identical for
/// every `threads`.
///
/// `cancel` (serving deadlines): polled once per block of 1024 sweep events
/// and once per intersection window. A fired token aborts the sweep and
/// returns a truncated MOVD — callers that pass a token MUST re-check it
/// afterwards and discard the result when it fired, as SolveMolq does.
Movd Overlap(const Movd& a, const Movd& b, BoundaryMode mode,
             OverlapStats* stats = nullptr,
             const CancelToken* cancel = nullptr, int threads = 1);

/// Sequential overlap Σ⊕ (paper Eq. 27): folds `inputs` left-to-right,
/// starting with inputs[0] ⊕ inputs[1] (MOVD(∅) is the identity of ⊕, so
/// no identity operand is needed); a single input is returned as a copy.
/// Stats accumulate across all steps. `cancel` and `threads` as in
/// Overlap: a fired token yields a truncated result the caller must
/// discard.
Movd OverlapAll(const std::vector<Movd>& inputs, BoundaryMode mode,
                OverlapStats* stats = nullptr,
                const CancelToken* cancel = nullptr, int threads = 1);

/// Reference implementation: the nested-loop O(n*m) overlap with the same
/// semantics. Used by tests to validate the sweep.
Movd OverlapBruteForce(const Movd& a, const Movd& b, BoundaryMode mode);

/// The per-pair boundary handler shared by the in-memory sweep, the brute
/// force, and the disk-based streaming overlap: intersects one candidate
/// pair under `mode` (Algorithm 3 line 5 vs Algorithm 4 line 5), merges
/// the poi lists and appends the result to `out`, writing the clipped
/// pieces straight into its vertex pool. Returns false, appending nothing,
/// when the RRB intersection is empty. `out` must not hold x or y.
bool IntersectOvrPair(const OvrView& x, const OvrView& y, BoundaryMode mode,
                      OvrTable* out);

}  // namespace movd

#endif  // MOVD_CORE_OVERLAP_H_
