// Focused tests of the weighted-diagram pipeline: tight contour covers vs
// MBR covers, and end-to-end behaviour with per-object weights.

#include <gtest/gtest.h>

#include "core/grid_scan.h"
#include "core/molq.h"
#include "core/overlap.h"
#include "core/weighted_distance.h"
#include "util/rng.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

MolqQuery WeightedQuery(uint64_t seed) {
  Rng rng(seed);
  MolqQuery query;
  for (int s = 0; s < 2; ++s) {
    ObjectSet set;
    set.name = std::string("t") += std::to_string(s);
    for (int i = 0; i < 6; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(10, 90), rng.Uniform(10, 90)};
      obj.object_weight = rng.Uniform(0.5, 2.0);  // forces weighted path
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

TEST(WeightedPipelineTest, ContourCoversAreTighterThanMbrs) {
  const MolqQuery q = WeightedQuery(1101);
  const Movd a = BuildBasicMovd(q, 0, kBounds, 96);
  const Movd b = BuildBasicMovd(q, 1, kBounds, 96);
  // Every weighted OVR's region is inside its MBR and no larger.
  double region_area = 0.0, mbr_area = 0.0;
  for (const Movd* m : {&a, &b}) {
    for (const OvrView ovr : m->ovrs) {
      EXPECT_FALSE(ovr.region.Empty());
      EXPECT_LE(ovr.region.Area(), ovr.mbr.Area() + 1e-9);
      region_area += ovr.region.Area();
      mbr_area += ovr.mbr.Area();
    }
  }
  EXPECT_LT(region_area, mbr_area);
  // RRB on the tight covers produces no more OVRs than MBRB.
  const Movd rrb = Overlap(a, b, BoundaryMode::kRealRegion);
  const Movd mbrb = Overlap(a, b, BoundaryMode::kMbr);
  EXPECT_LE(rrb.ovrs.size(), mbrb.ovrs.size());
  EXPECT_GT(rrb.ovrs.size(), 0u);
}

TEST(WeightedPipelineTest, CoversRemainConservative) {
  // Conservativeness is what guarantees correctness: every location's
  // true per-type winner must appear in some OVR covering that location.
  const MolqQuery q = WeightedQuery(1102);
  const Movd basic = BuildBasicMovd(q, 0, kBounds, 96);
  Rng rng(1103);
  for (int trial = 0; trial < 200; ++trial) {
    const Point probe{rng.Uniform(1, 99), rng.Uniform(1, 99)};
    // True winner by direct weighted-distance evaluation.
    const auto group = ArgMinGroup(q, probe);
    bool covered = false;
    for (const OvrView ovr : basic.ovrs) {
      if (ovr.pois[0].object == group[0] && ovr.region.Contains(probe)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "probe (" << probe.x << "," << probe.y << ")";
  }
}

class WeightedAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeightedAgreementTest, RrbOnWeightedDiagramsMatchesSscAndGrid) {
  const MolqQuery q = WeightedQuery(GetParam());
  MolqOptions opts;
  opts.epsilon = 1e-6;
  opts.exec.weighted_grid_resolution = 96;
  opts.algorithm = MolqAlgorithm::kSsc;
  const auto ssc = SolveMolq(q, kBounds, opts);
  opts.algorithm = MolqAlgorithm::kRrb;
  const auto rrb = SolveMolq(q, kBounds, opts);
  opts.algorithm = MolqAlgorithm::kMbrb;
  const auto mbrb = SolveMolq(q, kBounds, opts);
  const double tol = 1e-5 * ssc.cost + 1e-9;
  EXPECT_NEAR(rrb.cost, ssc.cost, tol);
  EXPECT_NEAR(mbrb.cost, ssc.cost, tol);
  EXPECT_LE(rrb.cost, GridScanMolq(q, kBounds, 50).cost + tol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedAgreementTest,
                         ::testing::Values(1111, 1112, 1113, 1114, 1115));

}  // namespace
}  // namespace movd
