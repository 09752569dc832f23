#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/molq.h"
#include "model/movd_model.h"
#include "core/optimizer.h"
#include "core/overlap.h"
#include "core/weighted_distance.h"
#include "util/rng.h"
#include "voronoi/voronoi.h"
#include "voronoi/weighted.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

TEST(MovdModelTest, IdentityMovdCoversSearchSpace) {
  const Movd id = IdentityMovd(kBounds);
  ASSERT_EQ(id.ovrs.size(), 1u);
  EXPECT_TRUE(id.ovrs[0].pois.empty());
  EXPECT_EQ(id.ovrs[0].mbr, kBounds);
  EXPECT_DOUBLE_EQ(id.ovrs[0].region.Area(), kBounds.Area());
}

TEST(MovdModelTest, MemoryBytesCountsVerticesInRrbMode) {
  Movd movd;
  Ovr ovr;
  ovr.mbr = Rect(0, 0, 10, 10);
  ovr.region = Region::FromRect(ovr.mbr);  // 4 vertices
  ovr.pois = {{0, 1}, {1, 2}};
  movd.ovrs.push_back(ovr);
  EXPECT_EQ(movd.MemoryBytes(BoundaryMode::kRealRegion),
            4 * sizeof(Point) + 2 * sizeof(PoiRef));
  EXPECT_EQ(movd.MemoryBytes(BoundaryMode::kMbr),
            2 * sizeof(Point) + 2 * sizeof(PoiRef));
  EXPECT_EQ(movd.VertexCount(), 4u);
}

TEST(MovdModelTest, FromVoronoiTagsPoisWithSetAndObject) {
  const auto vd = VoronoiDiagram::Build({{20, 20}, {80, 80}}, kBounds);
  // Map the diagram's (sorted) sites back to synthetic object ids 7 and 9.
  std::vector<int32_t> object_of_site = {7, 9};
  const Movd movd = MovdFromVoronoi(vd, /*set=*/3, object_of_site);
  ASSERT_EQ(movd.ovrs.size(), 2u);
  for (const OvrView ovr : movd.ovrs) {
    ASSERT_EQ(ovr.pois.size(), 1u);
    EXPECT_EQ(ovr.pois[0].set, 3);
    EXPECT_TRUE(ovr.pois[0].object == 7 || ovr.pois[0].object == 9);
    EXPECT_EQ(ovr.mbr, ovr.region.Bbox());
  }
}

TEST(MovdModelTest, FromWeightedApproxDropsEmptyCells) {
  const std::vector<WeightedSite> sites = {
      MultiplicativeSite({50, 50}, 1.0),
      MultiplicativeSite({50.5, 50}, 100.0)};  // dominated -> empty
  WeightedOptions wopts;
  wopts.method = WeightedMethod::kDenseGrid;
  wopts.resolution = 64;
  const auto cells = BuildWeightedCells(sites, kBounds, wopts);
  EXPECT_TRUE(cells[1].mbr.Empty());  // the sentinel invalid Rect
  std::vector<int32_t> ids = {0, 1};
  const Movd movd = MovdFromWeightedApprox(cells, 0, ids);
  ASSERT_EQ(movd.ovrs.size(), 1u);  // the empty cell is not an OVR
  EXPECT_EQ(movd.ovrs[0].pois[0].object, 0);
  // The region is the conservative MBR cover.
  EXPECT_DOUBLE_EQ(movd.ovrs[0].region.Area(), movd.ovrs[0].mbr.Area());
}

// OVR records from three sources independent of the table: the identity,
// single-piece Voronoi cells, and multi-piece (triangulated) weighted
// covers.
std::vector<Ovr> MixedRecords() {
  std::vector<Ovr> out;
  Ovr identity;
  identity.region = Region::FromRect(kBounds);
  identity.mbr = kBounds;
  out.push_back(identity);

  Rng rng(611);
  std::vector<Point> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  const auto vd = VoronoiDiagram::Build(pts, kBounds);
  for (const VoronoiCell& cell : vd.cells()) {
    Ovr ovr;
    ovr.region = Region::FromConvex(cell.region);
    ovr.mbr = cell.region.Bbox();
    ovr.pois = {{0, cell.site}};
    out.push_back(ovr);
  }

  std::vector<WeightedSite> sites;
  for (int i = 0; i < 12; ++i) {
    sites.push_back(MultiplicativeSite(
        {rng.Uniform(5, 95), rng.Uniform(5, 95)}, rng.Uniform(0.5, 2.5)));
  }
  WeightedOptions wopts;
  wopts.resolution = 64;
  const auto cells = BuildWeightedCells(sites, kBounds, wopts);
  for (const WeightedCellApprox& cell : cells) {
    if (cell.empty) continue;
    std::vector<ConvexPolygon> pieces;
    for (const Polygon& ring : cell.cover) {
      for (ConvexPolygon& t : ring.Triangulate()) pieces.push_back(t);
    }
    Ovr ovr;
    ovr.region = Region::FromPieces(pieces);
    ovr.mbr = cell.mbr;
    ovr.pois = {{1, cell.site}, {2, 7}};
    out.push_back(ovr);
  }
  return out;
}

bool SameBits(const Point& a, const Point& b) {
  return std::memcmp(&a, &b, sizeof(Point)) == 0;
}

// Field-by-field bit identity of a stored OVR and a record.
::testing::AssertionResult SameOvr(const OvrView& got, const Ovr& want) {
  if (std::memcmp(&got.mbr, &want.mbr, sizeof(Rect)) != 0) {
    return ::testing::AssertionFailure() << "mbr differs";
  }
  if (!std::equal(got.pois.begin(), got.pois.end(), want.pois.begin(),
                  want.pois.end())) {
    return ::testing::AssertionFailure() << "pois differ";
  }
  const PieceRange gp = got.region.pieces();
  const PieceRange wp = want.region.pieces();
  if (gp.size() != wp.size()) {
    return ::testing::AssertionFailure()
           << "piece count " << gp.size() << " vs " << wp.size();
  }
  for (size_t k = 0; k < gp.size(); ++k) {
    const std::span<const Point> gv = gp[k].vertices();
    const std::span<const Point> wv = wp[k].vertices();
    if (!std::equal(gv.begin(), gv.end(), wv.begin(), wv.end(), SameBits)) {
      return ::testing::AssertionFailure() << "piece " << k << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(OvrTableTest, RoundTripsRecordsThroughViews) {
  const std::vector<Ovr> records = MixedRecords();
  size_t multi_piece = 0;
  Movd movd;
  for (const Ovr& r : records) {
    multi_piece += r.region.pieces().size() > 1;
    movd.ovrs.push_back(r);
  }
  ASSERT_GT(multi_piece, 0u);
  ASSERT_EQ(movd.ovrs.size(), records.size());
  size_t i = 0;
  for (const OvrView ovr : movd.ovrs) {
    SCOPED_TRACE("ovr " + std::to_string(i));
    EXPECT_TRUE(SameOvr(ovr, records[i]));
    EXPECT_TRUE(SameOvr(movd.ovrs[i], Ovr(ovr)));  // view -> record
    ++i;
  }
  EXPECT_EQ(i, records.size());

  // Concatenation rebases every offset; a gather reorders.
  Movd twice = movd;
  twice.ovrs.Append(movd.ovrs);
  ASSERT_EQ(twice.ovrs.size(), 2 * records.size());
  std::vector<uint32_t> reversed;
  for (size_t k = twice.ovrs.size(); k-- > 0;) {
    reversed.push_back(static_cast<uint32_t>(k));
  }
  const OvrTable gathered = twice.ovrs.Gather(reversed);
  for (size_t k = 0; k < twice.ovrs.size(); ++k) {
    SCOPED_TRACE("ovr " + std::to_string(k));
    EXPECT_TRUE(SameOvr(twice.ovrs[k], records[k % records.size()]));
    EXPECT_TRUE(SameOvr(gathered[twice.ovrs.size() - 1 - k],
                        records[k % records.size()]));
  }

  // The table's own Voronoi builder stores the same bytes.
  Rng rng(611);
  std::vector<Point> pts;
  for (int k = 0; k < 40; ++k) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  const auto vd = VoronoiDiagram::Build(pts, kBounds);
  std::vector<int32_t> ids(vd.sites().size());
  for (size_t k = 0; k < ids.size(); ++k) ids[k] = static_cast<int32_t>(k);
  const Movd built = MovdFromVoronoi(vd, 0, ids);
  ASSERT_EQ(built.ovrs.size(), vd.cells().size());
  for (size_t k = 0; k < built.ovrs.size(); ++k) {
    EXPECT_TRUE(SameOvr(built.ovrs[k], records[1 + k]));
  }
}

TEST(OvrTableTest, MemoryBytesAndVertexCountMatchPerOvrSums) {
  // The paper's memory metric, recomputed OVR by OVR under its definition:
  // RRB pays sizeof(Point) per stored vertex, MBRB two points per OVR,
  // both sizeof(PoiRef) per poi.
  Movd records;
  for (const Ovr& r : MixedRecords()) records.ovrs.push_back(r);
  const Movd& mixed = records;
  const Movd a = MovdFromVoronoi(
      VoronoiDiagram::Build({{20, 20}, {80, 30}, {40, 70}}, kBounds), 0,
      {0, 1, 2});
  const Movd b = MovdFromVoronoi(
      VoronoiDiagram::Build({{60, 60}, {10, 90}}, kBounds), 1, {0, 1});
  for (const Movd* movd : {&mixed, &a}) {
    for (const BoundaryMode mode :
         {BoundaryMode::kRealRegion, BoundaryMode::kMbr}) {
      const Movd overlay = Overlap(*movd, b, mode);
      for (const Movd* m : {movd, &overlay}) {
        size_t rrb = 0, mbrb = 0, vertices = 0;
        for (const OvrView ovr : m->ovrs) {
          rrb += ovr.region.VertexCount() * sizeof(Point) +
                 ovr.pois.size() * sizeof(PoiRef);
          mbrb += 2 * sizeof(Point) + ovr.pois.size() * sizeof(PoiRef);
          vertices += ovr.region.VertexCount();
        }
        EXPECT_EQ(m->MemoryBytes(BoundaryMode::kRealRegion), rrb);
        EXPECT_EQ(m->MemoryBytes(BoundaryMode::kMbr), mbrb);
        EXPECT_EQ(m->VertexCount(), vertices);
      }
    }
  }
}

TEST(OvrTableTest, OffsetOverflowGuardAborts) {
  EXPECT_EQ(CheckedOffset(0), 0u);
  EXPECT_EQ(CheckedOffset(UINT32_MAX), UINT32_MAX);
  EXPECT_DEATH(CheckedOffset(size_t{UINT32_MAX} + 1), "32-bit offsets");
}

TEST(OptimizerStatsTest, CountersAddUp) {
  Rng rng(901);
  MolqQuery query;
  for (int s = 0; s < 4; ++s) {
    ObjectSet set;
    set.name = std::string("t") += std::to_string(s);
    for (int i = 0; i < 4; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  std::vector<Movd> basic;
  for (int32_t s = 0; s < 4; ++s) {
    basic.push_back(BuildBasicMovd(query, s, kBounds, 64));
  }
  const Movd movd = OverlapAll(basic, BoundaryMode::kMbr);
  OptimizerOptions opts;
  opts.dedup_combinations = true;
  const OptimizerResult r = OptimizeMovd(query, movd, opts);
  // Examined + deduped covers every OVR.
  EXPECT_EQ(r.stats.problems + r.stats.deduped, movd.ovrs.size());
  // Skips and prunes cannot exceed problems examined.
  EXPECT_LE(r.stats.skipped_prefilter + r.stats.pruned_by_bound,
            r.stats.problems);
  // The winner is a real combination whose WGD at the location matches.
  EXPECT_NEAR(WeightedGroupDistance(query, r.location, r.group), r.cost,
              1e-9);
}

TEST(MovdModelTest, OverlapPreservesPoiSortOrder) {
  Rng rng(902);
  MolqQuery query;
  for (int s = 0; s < 3; ++s) {
    ObjectSet set;
    set.name = std::string("t") += std::to_string(s);
    for (int i = 0; i < 5; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  std::vector<Movd> basic;
  for (int32_t s = 0; s < 3; ++s) {
    basic.push_back(BuildBasicMovd(query, s, kBounds, 64));
  }
  // Fold in a scrambled order; poi lists must still come out sorted.
  const Movd out =
      OverlapAll({basic[2], basic[0], basic[1]}, BoundaryMode::kRealRegion);
  for (const OvrView ovr : out.ovrs) {
    ASSERT_EQ(ovr.pois.size(), 3u);
    EXPECT_TRUE(std::is_sorted(ovr.pois.begin(), ovr.pois.end()));
  }
}

}  // namespace
}  // namespace movd
