// Tests for the algebraic structure of the MOVD overlap operation ⊕
// (paper §4.3): idempotency, commutativity, associativity, identity, and
// closure/absorption (Property 14), plus the structural MOVD properties
// (Properties 2, 3, 6, 7).

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "model/movd_model.h"
#include "core/overlap.h"
#include "util/rng.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

Movd BasicMovd(size_t sites, int32_t set, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < sites; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  const auto vd = VoronoiDiagram::Build(pts, kBounds);
  std::vector<int32_t> ids(vd.sites().size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  return MovdFromVoronoi(vd, set, ids);
}

// Compares two MOVDs as poi-combination -> total-area maps: the algebra's
// equalities are stated on the decomposition of the search space, and the
// decomposition is determined by which combination owns which area.
std::vector<std::pair<std::string, double>> AreaByCombination(
    const Movd& movd) {
  std::vector<std::pair<std::string, double>> items;
  for (const OvrView ovr : movd.ovrs) {
    std::string key;
    for (const PoiRef& p : ovr.pois) {
      key += std::to_string(p.set) + ":" + std::to_string(p.object) + ";";
    }
    items.emplace_back(std::move(key), ovr.region.Area());
  }
  std::sort(items.begin(), items.end());
  // Merge duplicate combinations (an OVR may be split into several pieces).
  std::vector<std::pair<std::string, double>> merged;
  for (const auto& [key, area] : items) {
    if (!merged.empty() && merged.back().first == key) {
      merged.back().second += area;
    } else {
      merged.emplace_back(key, area);
    }
  }
  return merged;
}

void ExpectSameDecomposition(const Movd& a, const Movd& b) {
  const auto da = AreaByCombination(a);
  const auto db = AreaByCombination(b);
  ASSERT_EQ(da.size(), db.size());
  for (size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].first, db[i].first);
    EXPECT_NEAR(da[i].second, db[i].second,
                1e-6 * std::max(1.0, da[i].second));
  }
}

TEST(MovdAlgebraTest, IdempotentLaw) {
  // Property 9: M ⊕ M = M.
  const Movd m = BasicMovd(12, 0, 91);
  const Movd mm = Overlap(m, m, BoundaryMode::kRealRegion);
  ExpectSameDecomposition(m, mm);
}

TEST(MovdAlgebraTest, CommutativeLaw) {
  // Property 10: A ⊕ B = B ⊕ A.
  const Movd a = BasicMovd(10, 0, 92);
  const Movd b = BasicMovd(14, 1, 93);
  ExpectSameDecomposition(Overlap(a, b, BoundaryMode::kRealRegion),
                          Overlap(b, a, BoundaryMode::kRealRegion));
}

TEST(MovdAlgebraTest, AssociativeLaw) {
  // Property 11: (A ⊕ B) ⊕ C = A ⊕ (B ⊕ C).
  const Movd a = BasicMovd(6, 0, 94);
  const Movd b = BasicMovd(7, 1, 95);
  const Movd c = BasicMovd(8, 2, 96);
  const Movd left = Overlap(Overlap(a, b, BoundaryMode::kRealRegion), c,
                            BoundaryMode::kRealRegion);
  const Movd right = Overlap(a, Overlap(b, c, BoundaryMode::kRealRegion),
                             BoundaryMode::kRealRegion);
  ExpectSameDecomposition(left, right);
}

TEST(MovdAlgebraTest, IdentityElement) {
  // Property 12: M ⊕ MOVD(∅) = M.
  const Movd m = BasicMovd(15, 0, 97);
  const Movd id = IdentityMovd(kBounds);
  ExpectSameDecomposition(m, Overlap(m, id, BoundaryMode::kRealRegion));
  ExpectSameDecomposition(m, Overlap(id, m, BoundaryMode::kRealRegion));
}

TEST(MovdAlgebraTest, AbsorptionOfContainedOperand) {
  // Property 14: if M_i = M_j ⊕ M_k then M_i ⊕ M_j = M_i.
  const Movd mj = BasicMovd(8, 0, 98);
  const Movd mk = BasicMovd(9, 1, 99);
  const Movd mi = Overlap(mj, mk, BoundaryMode::kRealRegion);
  const Movd again = Overlap(mi, mj, BoundaryMode::kRealRegion);
  ExpectSameDecomposition(mi, again);
}

TEST(MovdPropertyTest, SizeBoundedByProductOfInputs) {
  // Property 2: |MOVD(Ē)| <= prod |P_i|.
  const Movd a = BasicMovd(9, 0, 100);
  const Movd b = BasicMovd(11, 1, 101);
  const Movd out = Overlap(a, b, BoundaryMode::kRealRegion);
  EXPECT_LE(out.ovrs.size(), a.ovrs.size() * b.ovrs.size());
}

TEST(MovdPropertyTest, CoversSearchSpace) {
  // Property 3: the MOVD covers R (areas sum to |R|, no gaps at samples).
  const Movd a = BasicMovd(10, 0, 102);
  const Movd b = BasicMovd(10, 1, 103);
  const Movd out = Overlap(a, b, BoundaryMode::kRealRegion);
  double area = 0.0;
  for (const OvrView ovr : out.ovrs) area += ovr.region.Area();
  EXPECT_NEAR(area, kBounds.Area(), 1e-5 * kBounds.Area());
  Rng rng(104);
  for (int i = 0; i < 100; ++i) {
    const Point q{rng.Uniform(1, 99), rng.Uniform(1, 99)};
    bool covered = false;
    for (const OvrView ovr : out.ovrs) {
      if (ovr.region.Contains(q)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "(" << q.x << "," << q.y << ")";
  }
}

TEST(MovdPropertyTest, AtLeastAsManyRegionsAsEitherInput) {
  // Property 6: |MOVD(Ē)| >= |VD(P_i)|.
  const Movd a = BasicMovd(13, 0, 105);
  const Movd b = BasicMovd(17, 1, 106);
  const Movd out = Overlap(a, b, BoundaryMode::kRealRegion);
  EXPECT_GE(out.ovrs.size(), a.ovrs.size());
  EXPECT_GE(out.ovrs.size(), b.ovrs.size());
}

TEST(MovdPropertyTest, SingleSetMovdIsTheVoronoiDiagram) {
  // Property 7: MOVD({P}) = VD(P).
  Rng rng(107);
  std::vector<Point> pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  const auto vd = VoronoiDiagram::Build(pts, kBounds);
  std::vector<int32_t> ids(vd.sites().size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  const Movd m = MovdFromVoronoi(vd, 0, ids);
  ASSERT_EQ(m.ovrs.size(), vd.cells().size());
  for (size_t i = 0; i < m.ovrs.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.ovrs[i].region.Area(), vd.cells()[i].region.Area());
    EXPECT_EQ(m.ovrs[i].pois.size(), 1u);
  }
}

TEST(MovdPropertyTest, OverlapsOnlyOnBoundaries) {
  // Property 4: distinct OVR interiors are disjoint — sampled check.
  const Movd a = BasicMovd(8, 0, 108);
  const Movd b = BasicMovd(8, 1, 109);
  const Movd out = Overlap(a, b, BoundaryMode::kRealRegion);
  Rng rng(110);
  for (int i = 0; i < 200; ++i) {
    const Point q{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    int owners = 0;
    for (const OvrView ovr : out.ovrs) {
      if (ovr.region.Contains(q)) ++owners;
    }
    // Random points hit boundaries with probability zero.
    EXPECT_LE(owners, 1);
  }
}

}  // namespace
}  // namespace movd
