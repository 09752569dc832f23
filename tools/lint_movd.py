#!/usr/bin/env python3
"""Repo-specific lint pass for the MOVD codebase.

Enforces determinism and robustness conventions that generic linters can't
know about (see DESIGN.md section 7):

  float-eq          No floating-point ==/!= comparisons in src/ outside the
                    exact-predicate kernels (src/geom/predicates.*,
                    src/geom/expansion.*). Exact predicate RESULTS may be
                    sign-tested (lines calling Orient2D/InCircle are
                    exempt); everything else must use explicit tolerances
                    or integer arithmetic.
  unordered-iter    No iteration over std::unordered_map/unordered_set:
                    hash order is unspecified, so anything folded out of it
                    is nondeterministic. Use a vector, a std::map, or sort
                    before folding.
  float-sort        Every std::sort/std::stable_sort call site must be
                    vetted: sorting by a floating-point key needs a
                    deterministic tie-breaker or a proof ties are
                    impossible. Vetted sites are recorded in the allowlist.
  naked-abort       abort()/exit() calls belong behind the MOVD_CHECK
                    macros (src/util/check.h), never inline.
  untracked-todo    TODO/FIXME/XXX/HACK markers must reference a tracked
                    design note ("DESIGN.md") or be resolved; drive-by
                    markers rot.
  entry-check-msg   Listed public pipeline entry points must validate their
                    arguments with MOVD_CHECK_MSG (message-carrying checks)
                    near the top of the definition.
  raw-chrono        No raw std::chrono clock reads (steady_clock::now() and
                    friends) in src/: all timing flows through
                    util/stopwatch.h (one monotonic time base shared by
                    stats, trace spans, and serve latency histograms) or
                    util/cancel.h (deadline arithmetic). A second ad-hoc
                    clock drifts against trace timestamps and cannot be
                    faked in tests.
  bench-printf      No stdout printing (printf/std::cout/puts) in bench/:
                    every bench reports through the shared harness
                    (src/bench_lib), which owns the result tables and the
                    BENCH_<suite>.json emitter. Hand-rolled tables drift
                    from the JSON and defeat bench_diff. stderr diagnostics
                    remain legal.
  weighted-direct   No direct calls to the weighted-Voronoi construction
                    backends (ApproximateWeightedVoronoi /
                    AdaptiveWeightedVoronoi) outside the WeightedOptions
                    dispatch in src/voronoi/weighted.{h,cc} and
                    weighted_adaptive.cc. Callers go through
                    BuildWeightedCells so the method knob, its validation,
                    and future backends stay in one place.
  ovr-vector        No std::vector<Ovr> under src/. A MOVD stores its OVRs
                    in one OvrTable (a few flat arrays); a vector of Ovr
                    records costs three heap blocks per OVR, which at paper
                    scale is hundreds of MB of allocator overhead.

False positives are suppressed through tools/lint_allowlist.txt; each entry
is `rule|path-suffix|line-substring` plus a mandatory trailing comment
explaining why the site is safe. Entries that no longer match any finding
are reported as stale and fail the run, so suppressions cannot outlive the
code they covered.

The rule engine lives in tools/analysis/lint_rules.py (shared with the
fixture-driven unit tests); this script is the stable CLI entry point. The
sibling checkers — include-layering (tools/analysis/check_includes.py) and
header self-containment (tools/analysis/check_headers.py) — have their own
entry points and run in the CI `analysis` job.

Usage: python3 tools/lint_movd.py [--root=REPO_ROOT] [--allowlist-only]
Exits 1 when any unsuppressed finding or stale allowlist entry remains.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "analysis"))
import lint_rules  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--allowlist-only", action="store_true",
                        help="report only stale allowlist entries (the "
                             "dedicated CI step that makes stale "
                             "suppressions a hard failure on their own)")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    kept, stale, suppressed = lint_rules.run_lint(root)
    if not args.allowlist_only:
        for finding in kept:
            print(finding)
    else:
        kept = []
    # A suppression that no longer matches anything covers code that has
    # changed or vanished: force the entry to be deleted so stale holes
    # cannot accumulate.
    for rule, path_suffix, substring in stale:
        print("lint_allowlist.txt: stale entry (matches nothing): %s|%s|%s"
              % (rule, path_suffix, substring))
    if kept or stale:
        print("\nlint_movd: %d finding(s), %d stale allowlist entrie(s); "
              "fix them or allowlist with a justification in "
              "tools/lint_allowlist.txt" % (len(kept), len(stale)))
        return 1
    print("lint_movd: clean (%d finding(s) suppressed by allowlist)"
          % suppressed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
