#include "audit/audit_update.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "model/update_model.h"

namespace movd {
namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool PointSameBits(const Point& a, const Point& b) {
  return DoubleBits(a.x) == DoubleBits(b.x) &&
         DoubleBits(a.y) == DoubleBits(b.y);
}

std::string PoisString(std::span<const PoiRef> pois) {
  std::string out = "[";
  for (size_t i = 0; i < pois.size(); ++i) {
    if (i > 0) out += " ";
    out += AuditStrFormat("%d:%d", pois[i].set, pois[i].object);
  }
  out += "]";
  return out;
}

/// Names the first facet where the two OVRs diverge, filling `witness`
/// with the diverging coordinates when the diff is geometric. Called only
/// when !OvrBitIdentical(a, b).
std::string DescribeOvrDiff(const OvrView& a, const OvrView& b,
                            std::vector<Point>* witness) {
  if (!std::equal(a.pois.begin(), a.pois.end(), b.pois.begin(),
                  b.pois.end())) {
    return "pois " + PoisString(a.pois) + " vs " + PoisString(b.pois);
  }
  if (!PointSameBits({a.mbr.min_x, a.mbr.min_y}, {b.mbr.min_x, b.mbr.min_y}) ||
      !PointSameBits({a.mbr.max_x, a.mbr.max_y}, {b.mbr.max_x, b.mbr.max_y})) {
    witness->push_back({a.mbr.min_x, a.mbr.min_y});
    witness->push_back({b.mbr.min_x, b.mbr.min_y});
    return AuditStrFormat("mbr [%g,%g]x[%g,%g] vs [%g,%g]x[%g,%g]",
                          a.mbr.min_x, a.mbr.max_x, a.mbr.min_y, a.mbr.max_y,
                          b.mbr.min_x, b.mbr.max_x, b.mbr.min_y, b.mbr.max_y);
  }
  const PieceRange ap = a.region.pieces();
  const PieceRange bp = b.region.pieces();
  if (ap.size() != bp.size()) {
    return AuditStrFormat("region piece count %zu vs %zu", ap.size(),
                          bp.size());
  }
  for (size_t i = 0; i < ap.size(); ++i) {
    const std::span<const Point> av = ap[i].vertices();
    const std::span<const Point> bv = bp[i].vertices();
    if (av.size() != bv.size()) {
      return AuditStrFormat("piece %zu vertex count %zu vs %zu", i,
                            av.size(), bv.size());
    }
    for (size_t j = 0; j < av.size(); ++j) {
      if (!PointSameBits(av[j], bv[j])) {
        witness->push_back(av[j]);
        witness->push_back(bv[j]);
        return AuditStrFormat(
            "piece %zu vertex %zu (%.17g, %.17g) vs (%.17g, %.17g)", i, j,
            av[j].x, av[j].y, bv[j].x, bv[j].y);
      }
    }
  }
  return "no diff found (internal)";
}

}  // namespace

AuditReport AuditPatchedMovd(const Movd& patched, const Movd& rebuilt) {
  AuditReport report;
  report.NoteChecks(1);
  if (patched.ovrs.size() != rebuilt.ovrs.size()) {
    report.Add(AuditKind::kPatchedOvrCount,
               AuditStrFormat(
                   "patched artifact has %zu OVRs, rebuild has %zu",
                   patched.ovrs.size(), rebuilt.ovrs.size()),
               {static_cast<int64_t>(patched.ovrs.size()),
                static_cast<int64_t>(rebuilt.ovrs.size())});
  }
  const size_t n = std::min(patched.ovrs.size(), rebuilt.ovrs.size());
  for (size_t i = 0; i < n; ++i) {
    const OvrView a = patched.ovrs[i];
    const OvrView b = rebuilt.ovrs[i];
    report.NoteChecks(1);
    if (OvrBitIdentical(a, b)) continue;
    std::vector<Point> witness;
    const std::string diff = DescribeOvrDiff(a, b, &witness);
    report.Add(AuditKind::kPatchedOvrMismatch,
               AuditStrFormat("OVR %zu %s differs from rebuild: %s", i,
                              PoisString(a.pois).c_str(), diff.c_str()),
               {static_cast<int64_t>(i)}, std::move(witness));
  }
  return report;
}

}  // namespace movd
