#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>

#include <gtest/gtest.h>

#include "model/movd_model.h"
#include "core/overlap.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

Movd RandomBasicMovd(size_t sites, int32_t set, uint64_t seed) {
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

// Canonical form for comparing MOVDs: (sorted pois, rounded mbr) pairs.
std::vector<std::string> Canonicalize(const Movd& movd) {
  std::vector<std::string> keys;
  for (const OvrView ovr : movd.ovrs) {
    std::string k;
    for (const PoiRef& p : ovr.pois) {
      k += std::to_string(p.set) + ":" + std::to_string(p.object) + ";";
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "|%.6f,%.6f,%.6f,%.6f", ovr.mbr.min_x,
                  ovr.mbr.min_y, ovr.mbr.max_x, ovr.mbr.max_y);
    k += buf;
    keys.push_back(std::move(k));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(OverlapTest, IdentityLeavesMovdUnchanged) {
  const Movd m = RandomBasicMovd(10, 0, 71);
  const Movd id = IdentityMovd(kBounds);
  const Movd out = Overlap(m, id, BoundaryMode::kRealRegion);
  EXPECT_EQ(out.ovrs.size(), m.ovrs.size());
  double area = 0.0;
  for (const OvrView ovr : out.ovrs) area += ovr.region.Area();
  EXPECT_NEAR(area, kBounds.Area(), 1e-6 * kBounds.Area());
}

TEST(OverlapTest, TwoBisectedHalvesGiveFourQuadrants) {
  // MOVD A: left/right halves; MOVD B: bottom/top halves.
  const auto va = VoronoiDiagram::Build({{25, 50}, {75, 50}}, kBounds);
  const auto vb = VoronoiDiagram::Build({{50, 25}, {50, 75}}, kBounds);
  const Movd a = MovdFromVoronoi(va, 0, {0, 1});
  const Movd b = MovdFromVoronoi(vb, 1, {0, 1});
  OverlapStats stats;
  const Movd out = Overlap(a, b, BoundaryMode::kRealRegion, &stats);
  EXPECT_EQ(out.ovrs.size(), 4u);
  EXPECT_EQ(stats.output_ovrs, 4u);
  for (const OvrView ovr : out.ovrs) {
    EXPECT_NEAR(ovr.region.Area(), 2500.0, 1e-9);
    EXPECT_EQ(ovr.pois.size(), 2u);
    EXPECT_EQ(ovr.pois[0].set, 0);
    EXPECT_EQ(ovr.pois[1].set, 1);
  }
}

class SweepVsBruteTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SweepVsBruteTest, RealRegionModeMatches) {
  const Movd a = RandomBasicMovd(GetParam(), 0, 72 + GetParam());
  const Movd b = RandomBasicMovd(GetParam() + 3, 1, 73 + GetParam());
  const Movd sweep = Overlap(a, b, BoundaryMode::kRealRegion);
  const Movd brute = OverlapBruteForce(a, b, BoundaryMode::kRealRegion);
  EXPECT_EQ(Canonicalize(sweep), Canonicalize(brute));
}

TEST_P(SweepVsBruteTest, MbrModeMatches) {
  const Movd a = RandomBasicMovd(GetParam(), 0, 74 + GetParam());
  const Movd b = RandomBasicMovd(GetParam() + 5, 1, 75 + GetParam());
  const Movd sweep = Overlap(a, b, BoundaryMode::kMbr);
  const Movd brute = OverlapBruteForce(a, b, BoundaryMode::kMbr);
  EXPECT_EQ(Canonicalize(sweep), Canonicalize(brute));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SweepVsBruteTest,
                         ::testing::Values(2, 5, 10, 40, 120));

TEST(OverlapTest, RrbOutputTilesTheBounds) {
  const Movd a = RandomBasicMovd(20, 0, 76);
  const Movd b = RandomBasicMovd(30, 1, 77);
  const Movd out = Overlap(a, b, BoundaryMode::kRealRegion);
  double area = 0.0;
  for (const OvrView ovr : out.ovrs) area += ovr.region.Area();
  EXPECT_NEAR(area, kBounds.Area(), 1e-4 * kBounds.Area());
}

TEST(OverlapTest, MbrbProducesAtLeastAsManyOvrsAsRrb) {
  const Movd a = RandomBasicMovd(25, 0, 78);
  const Movd b = RandomBasicMovd(25, 1, 79);
  const Movd rrb = Overlap(a, b, BoundaryMode::kRealRegion);
  const Movd mbrb = Overlap(a, b, BoundaryMode::kMbr);
  // MBR hits are a superset of real-region hits (false positives).
  EXPECT_GE(mbrb.ovrs.size(), rrb.ovrs.size());
}

TEST(OverlapTest, MbrbMemorySmallerPerOvrThanRrb) {
  const Movd a = RandomBasicMovd(40, 0, 80);
  const Movd b = RandomBasicMovd(40, 1, 81);
  const Movd rrb = Overlap(a, b, BoundaryMode::kRealRegion);
  const Movd mbrb = Overlap(a, b, BoundaryMode::kMbr);
  const double rrb_per =
      static_cast<double>(rrb.MemoryBytes(BoundaryMode::kRealRegion)) /
      rrb.ovrs.size();
  const double mbrb_per =
      static_cast<double>(mbrb.MemoryBytes(BoundaryMode::kMbr)) /
      mbrb.ovrs.size();
  // Fig. 13: an MBR is two points; real regions average > 4 vertices.
  EXPECT_LT(mbrb_per, rrb_per);
}

TEST(OverlapTest, StatsCountersAreConsistent) {
  const Movd a = RandomBasicMovd(15, 0, 82);
  const Movd b = RandomBasicMovd(15, 1, 83);
  OverlapStats stats;
  const Movd out = Overlap(a, b, BoundaryMode::kRealRegion, &stats);
  EXPECT_EQ(stats.events, 2 * (a.ovrs.size() + b.ovrs.size()));
  EXPECT_EQ(stats.output_ovrs, out.ovrs.size());
  EXPECT_GE(stats.candidate_pairs, stats.output_ovrs);
  EXPECT_EQ(stats.region_intersections, stats.candidate_pairs);
}

TEST(OverlapTest, OverlapAllFoldsThreeDiagrams) {
  const std::vector<Movd> inputs = {RandomBasicMovd(6, 0, 84),
                                    RandomBasicMovd(6, 1, 85),
                                    RandomBasicMovd(6, 2, 86)};
  const Movd out = OverlapAll(inputs, BoundaryMode::kRealRegion);
  for (const OvrView ovr : out.ovrs) {
    ASSERT_EQ(ovr.pois.size(), 3u);
    EXPECT_EQ(ovr.pois[0].set, 0);
    EXPECT_EQ(ovr.pois[1].set, 1);
    EXPECT_EQ(ovr.pois[2].set, 2);
  }
  double area = 0.0;
  for (const OvrView ovr : out.ovrs) area += ovr.region.Area();
  EXPECT_NEAR(area, kBounds.Area(), 1e-4 * kBounds.Area());
}

TEST(OverlapTest, TouchingMbrsPairInMbrMode) {
  // Two OVRs sharing only a horizontal boundary line must still pair in
  // MBR mode (closed-rectangle semantics).
  Movd a, b;
  Ovr oa;
  oa.mbr = Rect(0, 0, 10, 5);
  oa.region = Region::FromRect(oa.mbr);
  oa.pois = {{0, 0}};
  a.ovrs.push_back(oa);
  Ovr ob;
  ob.mbr = Rect(0, 5, 10, 10);  // touches a at y = 5
  ob.region = Region::FromRect(ob.mbr);
  ob.pois = {{1, 0}};
  b.ovrs.push_back(ob);
  const Movd out = Overlap(a, b, BoundaryMode::kMbr);
  ASSERT_EQ(out.ovrs.size(), 1u);
  EXPECT_DOUBLE_EQ(out.ovrs[0].mbr.Area(), 0.0);
  // In real-region mode the sliver is dropped.
  const Movd out_rrb = Overlap(a, b, BoundaryMode::kRealRegion);
  EXPECT_TRUE(out_rrb.ovrs.empty());
}

// ---------------------------------------------------------------------------
// Indexed sweep vs the multimap sweep it replaced, across thread counts.

// Frozen copy of the overlap sweep as it was before the active-set index:
// status structures are std::multimaps keyed by mbr.min_x and scanned from
// begin() on every start event. It is the order oracle: the indexed,
// windowed sweep must reproduce its OVR order, bytes and counters exactly.
Movd MultimapSweepOverlap(const Movd& a, const Movd& b, BoundaryMode mode,
                          OverlapStats* stats) {
  struct Event {
    double y;
    bool is_start;
    bool from_a;
    uint32_t index;
  };
  std::vector<Event> events;
  for (uint32_t i = 0; i < a.ovrs.size(); ++i) {
    events.push_back({a.ovrs[i].mbr.max_y, true, true, i});
    events.push_back({a.ovrs[i].mbr.min_y, false, true, i});
  }
  for (uint32_t i = 0; i < b.ovrs.size(); ++i) {
    events.push_back({b.ovrs[i].mbr.max_y, true, false, i});
    events.push_back({b.ovrs[i].mbr.min_y, false, false, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) {
                     if (x.y != y.y) return x.y > y.y;
                     return x.is_start && !y.is_start;
                   });
  using Status = std::multimap<double, uint32_t>;
  Status status_a, status_b;
  Movd result;
  const auto handle = [&](const Event& e, const Movd& self,
                          const Movd& other, Status* current, Status* others) {
    const OvrView ovr = self.ovrs[e.index];
    if (!e.is_start) {
      auto [lo, hi] = current->equal_range(ovr.mbr.min_x);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == e.index) {
          current->erase(it);
          break;
        }
      }
      return;
    }
    current->emplace(ovr.mbr.min_x, e.index);
    const auto end = others->upper_bound(ovr.mbr.max_x);
    for (auto it = others->begin(); it != end; ++it) {
      const OvrView cand = other.ovrs[it->second];
      if (cand.mbr.max_x < ovr.mbr.min_x) continue;
      ++stats->candidate_pairs;
      if (mode == BoundaryMode::kRealRegion) ++stats->region_intersections;
      if (IntersectOvrPair(ovr, cand, mode, &result.ovrs)) {
        ++stats->output_ovrs;
      }
    }
  };
  for (const Event& e : events) {
    ++stats->events;
    if (e.from_a) {
      handle(e, a, b, &status_a, &status_b);
    } else {
      handle(e, b, a, &status_b, &status_a);
    }
  }
  return result;
}

Movd MultimapSweepOverlapAll(const std::vector<Movd>& inputs,
                             BoundaryMode mode, OverlapStats* stats) {
  Movd acc = inputs.front();
  for (size_t i = 1; i < inputs.size(); ++i) {
    acc = MultimapSweepOverlap(acc, inputs[i], mode, stats);
  }
  return acc;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

bool SameRect(const Rect& x, const Rect& y) {
  return SameBits(x.min_x, y.min_x) && SameBits(x.min_y, y.min_y) &&
         SameBits(x.max_x, y.max_x) && SameBits(x.max_y, y.max_y);
}

// Byte identity of two MOVDs: OVR order, MBRs, poi lists and every vertex
// of every region piece, compared bit for bit.
::testing::AssertionResult SameMovdBytes(const Movd& x, const Movd& y) {
  if (x.ovrs.size() != y.ovrs.size()) {
    return ::testing::AssertionFailure()
           << "OVR counts differ: " << x.ovrs.size() << " vs "
           << y.ovrs.size();
  }
  for (size_t i = 0; i < x.ovrs.size(); ++i) {
    const OvrView p = x.ovrs[i];
    const OvrView q = y.ovrs[i];
    bool same = SameRect(p.mbr, q.mbr) &&
                std::equal(p.pois.begin(), p.pois.end(), q.pois.begin(),
                           q.pois.end()) &&
                p.region.pieces().size() == q.region.pieces().size();
    for (size_t k = 0; same && k < p.region.pieces().size(); ++k) {
      const auto& pv = p.region.pieces()[k].vertices();
      const auto& qv = q.region.pieces()[k].vertices();
      same = pv.size() == qv.size();
      for (size_t v = 0; same && v < pv.size(); ++v) {
        same = SameBits(pv[v].x, qv[v].x) && SameBits(pv[v].y, qv[v].y);
      }
    }
    if (!same) {
      return ::testing::AssertionFailure() << "OVR " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

void ExpectSameStats(const OverlapStats& x, const OverlapStats& y) {
  EXPECT_EQ(x.events, y.events);
  EXPECT_EQ(x.candidate_pairs, y.candidate_pairs);
  EXPECT_EQ(x.region_intersections, y.region_intersections);
  EXPECT_EQ(x.output_ovrs, y.output_ovrs);
}

constexpr int kThreadCounts[] = {1, 2, 3, 4, 7};

// Checks Overlap(a, b) against the oracle at every thread count.
void ExpectMatchesOracle(const Movd& a, const Movd& b, BoundaryMode mode) {
  OverlapStats want_stats;
  const Movd want = MultimapSweepOverlap(a, b, mode, &want_stats);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    OverlapStats stats;
    const Movd got = Overlap(a, b, mode, &stats, nullptr, threads);
    EXPECT_TRUE(SameMovdBytes(got, want));
    ExpectSameStats(stats, want_stats);
  }
}

Ovr RectOvr(const Rect& r, int32_t set, int32_t object) {
  Ovr ovr;
  ovr.mbr = r;
  ovr.region = Region::FromRect(r);
  ovr.pois = {{set, object}};
  return ovr;
}

// `count` full-height vertical strips tiling kBounds: every strip starts
// at the same sweep event y.
Movd VerticalStrips(size_t count, int32_t set) {
  Movd m;
  const double w = kBounds.Width() / static_cast<double>(count);
  for (size_t i = 0; i < count; ++i) {
    const double x0 = kBounds.min_x + w * static_cast<double>(i);
    const double x1 = i + 1 == count ? kBounds.max_x : x0 + w;
    m.ovrs.push_back(RectOvr(Rect(x0, kBounds.min_y, x1, kBounds.max_y), set,
                             static_cast<int32_t>(i)));
  }
  return m;
}

// A cols x rows grid of rectangles over kBounds, shifted by (dx, dy) and
// clipped to the bounds.
Movd RectGrid(size_t cols, size_t rows, double dx, double dy, int32_t set) {
  Movd m;
  const double w = kBounds.Width() / static_cast<double>(cols);
  const double h = kBounds.Height() / static_cast<double>(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const Rect cell(std::max(kBounds.min_x, dx + w * static_cast<double>(c)),
                      std::max(kBounds.min_y, dy + h * static_cast<double>(r)),
                      std::min(kBounds.max_x,
                               dx + w * static_cast<double>(c + 1)),
                      std::min(kBounds.max_y,
                               dy + h * static_cast<double>(r + 1)));
      m.ovrs.push_back(
          RectOvr(cell, set, static_cast<int32_t>(r * cols + c)));
    }
  }
  return m;
}

TEST(OverlapParallelTest, ThreeSetFoldsMatchOracleAtEveryThreadCount) {
  for (const BoundaryMode mode :
       {BoundaryMode::kRealRegion, BoundaryMode::kMbr}) {
    for (const uint64_t seed : {101u, 202u, 303u}) {
      SCOPED_TRACE("mode=" +
                   std::string(mode == BoundaryMode::kMbr ? "mbrb" : "rrb") +
                   " seed=" + std::to_string(seed));
      const std::vector<Movd> inputs = {RandomBasicMovd(400, 0, seed),
                                        RandomBasicMovd(500, 1, seed + 1),
                                        RandomBasicMovd(300, 2, seed + 2)};
      OverlapStats want_stats;
      const Movd want = MultimapSweepOverlapAll(inputs, mode, &want_stats);
      ASSERT_FALSE(want.ovrs.empty());
      for (const int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        OverlapStats stats;
        const Movd got = OverlapAll(inputs, mode, &stats, nullptr, threads);
        EXPECT_TRUE(SameMovdBytes(got, want));
        ExpectSameStats(stats, want_stats);
      }
    }
  }
}

// FNV-1a over every MBR, poi and vertex of an overlay, in OVR order, with
// the piece and vertex counts mixed in.
uint64_t OverlayHash(const Movd& movd) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const OvrView ovr : movd.ovrs) {
    mix(&ovr.mbr, sizeof(Rect));
    for (const PoiRef& p : ovr.pois) mix(&p, sizeof(PoiRef));
    const uint64_t pieces = ovr.region.pieces().size();
    mix(&pieces, sizeof(pieces));
    for (const PieceView piece : ovr.region.pieces()) {
      const uint64_t n = piece.VertexCount();
      mix(&n, sizeof(n));
      for (const Point& v : piece.vertices()) mix(&v, sizeof(Point));
    }
  }
  return h;
}

TEST(OverlapParallelTest, FoldHashesMatchFrozenReference) {
  // Hashes recorded from the overlap as it stood before OVRs moved into a
  // flat table (one heap-allocated record per OVR): the table, its
  // in-place clip and the per-claim hit tables must reproduce those bytes
  // at every thread count. Each fold spans several intersection windows.
  const std::vector<Movd> inputs = {RandomBasicMovd(2000, 0, 404),
                                    RandomBasicMovd(2500, 1, 405),
                                    RandomBasicMovd(1500, 2, 406)};
  struct Frozen {
    BoundaryMode mode;
    size_t ovrs;
    uint64_t pairs;
    uint64_t hash;
  };
  for (const Frozen& want :
       {Frozen{BoundaryMode::kRealRegion, 20533, 45417, 0x67b73c86f4843f95ULL},
        Frozen{BoundaryMode::kMbr, 47415, 61804, 0x34320be55e4ce43cULL}}) {
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("mode=" +
                   std::string(want.mode == BoundaryMode::kMbr ? "mbrb"
                                                               : "rrb") +
                   " threads=" + std::to_string(threads));
      OverlapStats stats;
      const Movd out = OverlapAll(inputs, want.mode, &stats, nullptr, threads);
      EXPECT_EQ(out.ovrs.size(), want.ovrs);
      EXPECT_EQ(stats.candidate_pairs, want.pairs);
      EXPECT_EQ(OverlayHash(out), want.hash);
    }
  }
}

TEST(OverlapParallelTest, ManyWindowsMatchOracle) {
  // Enough candidate pairs to fill several 32K-pair intersection windows,
  // so both alternating windows are reused.
  const Movd a = RectGrid(160, 160, 0.0, 0.0, 0);
  const Movd b = RectGrid(150, 150, 0.13, 0.07, 1);
  OverlapStats stats;
  Overlap(a, b, BoundaryMode::kMbr, &stats);
  EXPECT_GT(stats.candidate_pairs, 2u * 32768u);  // three windows or more
  ExpectMatchesOracle(a, b, BoundaryMode::kRealRegion);
  ExpectMatchesOracle(a, b, BoundaryMode::kMbr);
}

TEST(OverlapParallelTest, IdentityEventEmitsMoreThanOneWindow) {
  // Every strip starts before the identity OVR (same y, first operand), so
  // the identity's single start event pairs with all 36,000 strips — more
  // pairs than one intersection window (32K pairs) holds.
  const Movd strips = VerticalStrips(36000, 0);
  const Movd id = IdentityMovd(kBounds);
  OverlapStats stats;
  const Movd out =
      Overlap(strips, id, BoundaryMode::kRealRegion, &stats, nullptr, 4);
  EXPECT_EQ(out.ovrs.size(), strips.ovrs.size());
  EXPECT_EQ(stats.candidate_pairs, strips.ovrs.size());
  ExpectMatchesOracle(strips, id, BoundaryMode::kRealRegion);
  ExpectMatchesOracle(id, strips, BoundaryMode::kMbr);
}

TEST(OverlapParallelTest, MinXTiesKeepStartEventOrder) {
  // Many OVRs share min_x, including −0.0 and 0.0, which order as equal
  // keys: candidates must come out in start-event order among the ties.
  // Rows are listed bottom-up, so start-event order is not index order.
  Movd a, b;
  int32_t next = 0;
  for (int row = 5; row >= 0; --row) {
    const double y1 = 100.0 - 10.0 * row;
    for (const double x0 : {-0.0, 0.0, 0.0, -0.0, 5.0, 5.0}) {
      a.ovrs.push_back(
          RectOvr(Rect(x0, y1 - 15.0, x0 + 7.0, y1), 0, next++));
    }
  }
  next = 0;
  for (int row = 4; row >= 0; --row) {
    const double y1 = 95.0 - 12.0 * row;
    for (const double x0 : {0.0, -0.0, 3.0, 0.0}) {
      b.ovrs.push_back(
          RectOvr(Rect(x0, y1 - 20.0, x0 + 4.0, y1), 1, next++));
    }
  }
  ExpectMatchesOracle(a, b, BoundaryMode::kRealRegion);
  ExpectMatchesOracle(a, b, BoundaryMode::kMbr);
  ExpectMatchesOracle(b, a, BoundaryMode::kMbr);
}

TEST(OverlapParallelTest, HorizontalTouchPairsUnderClosedBoundaries) {
  // Rows of cells touching the other operand's rows only along horizontal
  // lines: the start-before-end rule still pairs them.
  const Movd a = RectGrid(4, 5, 0.0, 0.0, 0);
  const Movd b = RectGrid(3, 5, 0.0, 0.0, 1);
  Movd shifted;
  for (const OvrView ovr : b.ovrs) {
    // Keep only every other row of b so rows touch a's rows edge to edge.
    if (static_cast<int>(ovr.mbr.min_y) % 40 == 0) shifted.ovrs.push_back(ovr);
  }
  ExpectMatchesOracle(a, shifted, BoundaryMode::kRealRegion);
  ExpectMatchesOracle(a, shifted, BoundaryMode::kMbr);
  OverlapStats stats;
  Overlap(a, shifted, BoundaryMode::kMbr, &stats, nullptr, 3);
  // Touching rows pair (zero-height MBR hits) on top of the overlaps.
  OverlapStats rrb;
  Overlap(a, shifted, BoundaryMode::kRealRegion, &rrb, nullptr, 3);
  EXPECT_GT(stats.output_ovrs, rrb.output_ovrs);
}

TEST(OverlapParallelTest, ZeroWidthMbrs) {
  // Degenerate vertical-segment MBRs (min_x == max_x) in MBRB mode, some
  // sitting exactly on the other operand's cell edges.
  Movd a = RectGrid(5, 5, 0.0, 0.0, 0);
  Movd b;
  for (int i = 0; i <= 10; ++i) {
    Ovr ovr;
    const double x = 10.0 * i;
    ovr.mbr = Rect(x, 5.0 * (i % 3), x, 100.0 - 7.0 * (i % 4));
    ovr.pois = {{1, i}};
    b.ovrs.push_back(ovr);
  }
  ExpectMatchesOracle(a, b, BoundaryMode::kMbr);
  ExpectMatchesOracle(b, a, BoundaryMode::kMbr);
}

TEST(OverlapParallelTest, TokenFiredMidStepTruncatesToAPrefix) {
  const Movd a = RectGrid(180, 180, 0.0, 0.0, 0);
  const Movd b = RectGrid(170, 170, 0.11, 0.05, 1);
  Stopwatch sw;
  const Movd full = Overlap(a, b, BoundaryMode::kRealRegion, nullptr,
                            nullptr, 2);
  const double full_s = sw.ElapsedSeconds();
  // Deadlines spread across (and past) the step's run time, so some fire
  // mid-step even when the machine slows down: a fired token returns a
  // truncated result (some prefix of the full output, since hits are
  // appended in pair order) instead of crashing.
  bool saw_truncated = false;
  for (double frac = 1.0 / 64; frac < 4.0; frac *= 2) {
    const CancelToken token = CancelToken::After(
        std::chrono::nanoseconds(static_cast<int64_t>(full_s * frac * 1e9)));
    const Movd part =
        Overlap(a, b, BoundaryMode::kRealRegion, nullptr, &token, 2);
    ASSERT_LE(part.ovrs.size(), full.ovrs.size());
    Movd prefix;
    for (size_t i = 0; i < part.ovrs.size(); ++i) {
      prefix.ovrs.push_back(full.ovrs[i]);
    }
    EXPECT_TRUE(SameMovdBytes(part, prefix));
    if (token.Expired() && !part.ovrs.empty() &&
        part.ovrs.size() < full.ovrs.size()) {
      saw_truncated = true;
    }
  }
  EXPECT_TRUE(saw_truncated);
  // A token that fired before the call yields an empty result.
  CancelToken fired;
  fired.Cancel();
  EXPECT_TRUE(Overlap(a, b, BoundaryMode::kRealRegion, nullptr, &fired, 2)
                  .ovrs.empty());
}

TEST(OverlapTest, OverlapAllOfOneInputIsACopy) {
  const std::vector<Movd> inputs = {RandomBasicMovd(12, 0, 87)};
  OverlapStats stats;
  const Movd out = OverlapAll(inputs, BoundaryMode::kRealRegion, &stats);
  EXPECT_TRUE(SameMovdBytes(out, inputs.front()));
  EXPECT_EQ(stats.events, 0u);
}

}  // namespace
}  // namespace movd
