#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/overlap.h"
#include "core/ssc.h"
#include "core/topk.h"
#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "util/rng.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

MolqQuery RandomQuery(const std::vector<size_t>& sizes, uint64_t seed) {
  Rng rng(seed);
  MolqQuery query;
  for (size_t s = 0; s < sizes.size(); ++s) {
    ObjectSet set;
    set.name = std::string("type") += std::to_string(s);
    const double type_weight = rng.Uniform(0.5, 5.0);
    for (size_t i = 0; i < sizes[s]; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      obj.type_weight = type_weight;
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

// Reference: per-combination optimal costs via SSC-style enumeration.
std::vector<double> AllCombinationCosts(const MolqQuery& q, double epsilon) {
  std::vector<double> costs;
  std::vector<int32_t> combo(q.sets.size(), 0);
  bool done = false;
  while (!done) {
    std::vector<PoiRef> group;
    for (size_t s = 0; s < combo.size(); ++s) {
      group.push_back({static_cast<int32_t>(s), combo[s]});
    }
    // Optimum of this combination via the single-problem path: reuse SSC
    // on a query restricted to the chosen objects.
    MolqQuery sub;
    for (size_t s = 0; s < q.sets.size(); ++s) {
      ObjectSet set;
      set.name = q.sets[s].name;
      set.objects = {q.sets[s].objects[combo[s]]};
      sub.sets.push_back(std::move(set));
    }
    SscOptions opts;
    opts.epsilon = epsilon;
    costs.push_back(SolveSsc(sub, opts).cost);
    size_t i = 0;
    while (i < combo.size()) {
      if (++combo[i] <
          static_cast<int32_t>(q.sets[i].objects.size())) {
        break;
      }
      combo[i] = 0;
      ++i;
    }
    done = i == combo.size();
  }
  std::sort(costs.begin(), costs.end());
  return costs;
}

// Brute-force reference for TopKFromMovd: every distinct group of the
// overlay solved without a bound, sorted by (cost, group), first k.
std::vector<RankedLocation> BruteForceTopK(const MolqQuery& q,
                                           const Movd& movd, size_t k,
                                           double epsilon) {
  std::set<std::vector<PoiRef>> groups;
  for (const Ovr& ovr : movd.ovrs) groups.insert(ovr.pois);
  std::vector<RankedLocation> all;
  std::vector<WeightedPoint> points;
  for (const std::vector<PoiRef>& group : groups) {
    const double offset = BuildFermatWeberProblem(q, group, &points);
    FermatWeberOptions fw;
    fw.epsilon = epsilon;
    const FermatWeberResult r = SolveFermatWeber(points, fw);
    all.push_back({r.location, r.cost + offset, group});
  }
  std::sort(all.begin(), all.end(),
            [](const RankedLocation& a, const RankedLocation& b) {
              return a.cost < b.cost ||
                     (!(b.cost < a.cost) && a.group < b.group);
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameRanking(const std::vector<RankedLocation>& got,
                       const std::vector<RankedLocation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].cost, want[i].cost) << "rank " << i;
    EXPECT_EQ(got[i].location, want[i].location) << "rank " << i;
    EXPECT_EQ(got[i].group, want[i].group) << "rank " << i;
  }
}

TEST(TopKTest, MatchesBruteForceRankingBitForBit) {
  // Three sets (closed-form triangles) and four (bounded Weiszfeld),
  // ordinary and object-weighted sets, RRB and MBRB overlays, and k from 1
  // to beyond the number of groups. The MBRB overlay is scanned twice, the
  // second time in reverse, so groups repeat after they have been ranked,
  // evicted or pruned — the MBRB false-positive pattern, made certain.
  for (const std::vector<size_t>& sizes :
       {std::vector<size_t>{4, 4, 3}, std::vector<size_t>{3, 3, 2, 2}}) {
    for (const uint64_t seed : {431u, 432u}) {
      MolqQuery q = RandomQuery(sizes, seed);
      if (seed == 432u) {
        Rng rng(seed);
        for (ObjectSet& set : q.sets) {
          for (SpatialObject& obj : set.objects) {
            obj.object_weight = rng.Uniform(0.5, 2.5);
          }
        }
      }
      for (const BoundaryMode mode :
           {BoundaryMode::kRealRegion, BoundaryMode::kMbr}) {
        std::vector<Movd> basic;
        for (int32_t s = 0; s < static_cast<int32_t>(sizes.size()); ++s) {
          basic.push_back(BuildBasicMovd(q, s, kBounds, 64));
        }
        Movd movd = OverlapAll(basic, mode);
        if (mode == BoundaryMode::kMbr) {
          const std::vector<Ovr> reversed(movd.ovrs.rbegin(),
                                          movd.ovrs.rend());
          movd.ovrs.insert(movd.ovrs.end(), reversed.begin(), reversed.end());
        }
        MolqOptions opts;
        opts.epsilon = 1e-6;
        for (const size_t k : {1u, 2u, 5u, 17u, 100u}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " sets " +
                       std::to_string(sizes.size()) + " k " +
                       std::to_string(k));
          ExpectSameRanking(TopKFromMovd(q, movd, k, opts).ranked,
                            BruteForceTopK(q, movd, k, opts.epsilon));
        }
      }
    }
  }
}

TEST(TopKTest, TopOneMatchesSolveMolq) {
  const MolqQuery q = RandomQuery({4, 4, 4}, 401);
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 1, opts).ranked;
  ASSERT_EQ(top.size(), 1u);
  const auto single = SolveMolq(q, kBounds, opts);
  EXPECT_NEAR(top[0].cost, single.cost, 1e-9);
}

TEST(TopKTest, ResultsAscendAndAreDistinctCombinations) {
  const MolqQuery q = RandomQuery({5, 5}, 402);
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 5, opts).ranked;
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i - 1].cost, top[i].cost);
    EXPECT_NE(top[i - 1].group, top[i].group);
  }
}

TEST(TopKTest, MatchesExhaustiveRankingOnCoveredCombinations) {
  // Every top-k cost must appear in the exhaustive per-combination cost
  // list, and the first one must be the global optimum.
  const MolqQuery q = RandomQuery({3, 3, 3}, 403);
  MolqOptions opts;
  opts.epsilon = 1e-8;
  const auto top = SolveMolqTopK(q, kBounds, 4, opts).ranked;
  const auto all = AllCombinationCosts(q, 1e-8);
  ASSERT_GE(top.size(), 1u);
  EXPECT_NEAR(top[0].cost, all[0], 1e-4 * all[0] + 1e-9);
  for (const RankedLocation& r : top) {
    bool found = false;
    for (const double c : all) {
      if (std::abs(c - r.cost) <= 1e-4 * c + 1e-9) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << r.cost;
  }
}

TEST(TopKTest, KLargerThanCombinationsReturnsAll) {
  const MolqQuery q = RandomQuery({2, 2}, 404);
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 100, opts).ranked;
  // The MOVD only materialises co-occurring combinations, so the count is
  // at most 4 and at least 1.
  EXPECT_GE(top.size(), 1u);
  EXPECT_LE(top.size(), 4u);
}

// Two combinations tie at cost exactly 5: (A, C) and (B, D) both span a
// (3, 4) displacement, solved exactly by the two-point special case.
MolqQuery TiedPairQuery() {
  MolqQuery q;
  q.sets.resize(2);
  q.sets[0].name = "first";
  q.sets[1].name = "second";
  auto add = [](ObjectSet* set, Point at) {
    SpatialObject obj;
    obj.location = at;
    obj.type_weight = 1.0;
    obj.object_weight = 1.0;
    set->objects.push_back(obj);
  };
  add(&q.sets[0], {10, 10});  // A
  add(&q.sets[0], {60, 10});  // B
  add(&q.sets[1], {13, 14});  // C = A + (3, 4)
  add(&q.sets[1], {63, 14});  // D = B + (3, 4)
  return q;
}

TEST(TopKTest, TiedKthPlusOneIsNotPruned) {
  // With k = 1 the runner-up ties the winner exactly. The k-th-best bound
  // must be non-pruning on ties (strict comparison), so the tied candidate
  // is still fully examined and the reported optimum stays exact.
  const MolqQuery q = TiedPairQuery();
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top1 = SolveMolqTopK(q, kBounds, 1, opts).ranked;
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].cost, 5.0);
}

TEST(TopKTest, BothTiedGroupsAreRetained) {
  const MolqQuery q = TiedPairQuery();
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 2, opts).ranked;
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].cost, 5.0);
  EXPECT_EQ(top[1].cost, 5.0);
  EXPECT_NE(top[0].group, top[1].group);
  // Each tied answer genuinely achieves the minimum at its own location.
  EXPECT_EQ(MinWeightedGroupDistance(q, top[0].location), 5.0);
  EXPECT_EQ(MinWeightedGroupDistance(q, top[1].location), 5.0);
}

TEST(TopKTest, RanksBeyondTheTieStayOrdered) {
  const MolqQuery q = TiedPairQuery();
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 4, opts).ranked;
  // (A, D) co-occurs nowhere in the overlap, so at most 3 combinations
  // materialise; the two tied at 5 must lead.
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].cost, 5.0);
  EXPECT_EQ(top[1].cost, 5.0);
  for (size_t i = 2; i < top.size(); ++i) {
    EXPECT_GT(top[i].cost, 5.0);
  }
}

TEST(TopKTest, KLargerThanCombinationCountReturnsEveryCombination) {
  // Documented edge case: an oversized k is not an error — the ranking
  // simply ends when the distinct combinations run out, still ascending.
  const MolqQuery q = RandomQuery({2, 2}, 420);
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 99, opts).ranked;
  EXPECT_LE(top.size(), 4u);  // at most |set0| * |set1| combinations
  ASSERT_GE(top.size(), 1u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i - 1].cost, top[i].cost);
    EXPECT_NE(top[i - 1].group, top[i].group);
  }
  // Asking for even more changes nothing.
  const auto again = SolveMolqTopK(q, kBounds, 1000, opts).ranked;
  ASSERT_EQ(again.size(), top.size());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(again[i].cost, top[i].cost);
    EXPECT_EQ(again[i].group, top[i].group);
  }
}

// A hand-built MOVD whose every OVR pairs two co-located objects: each
// combination's optimum costs exactly 0.0, so ALL candidates tie and the
// ranking must fall back to the documented lexicographic group order.
TEST(TopKTest, AllCandidatesTiedRankInLexicographicGroupOrder) {
  MolqQuery q;
  for (int s = 0; s < 2; ++s) {
    ObjectSet set;
    set.name = std::string("type") += std::to_string(s);
    for (int i = 0; i < 3; ++i) {
      SpatialObject obj;
      obj.location = {10.0 + 30.0 * i, 50.0};
      set.objects.push_back(obj);
    }
    q.sets.push_back(std::move(set));
  }
  Movd movd;
  // Insert in reverse group order to prove the ranking does not depend on
  // OVR scan order when every cost ties.
  for (int i = 2; i >= 0; --i) {
    Ovr ovr;
    const Rect cell(30.0 * i, 0, 30.0 * i + 30.0, 100);
    ovr.region = Region::FromRect(cell);
    ovr.mbr = cell;
    ovr.pois = {{0, i}, {1, i}};
    movd.ovrs.push_back(std::move(ovr));
  }
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = TopKFromMovd(q, movd, 5, opts).ranked;
  ASSERT_EQ(top.size(), 3u);  // oversized k: every combination, once
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top[i].cost, 0.0);
    ASSERT_EQ(top[i].group.size(), 2u);
    EXPECT_EQ(top[i].group[0].object, static_cast<int32_t>(i));
    EXPECT_EQ(top[i].group[1].object, static_cast<int32_t>(i));
  }
}

TEST(TopKTest, AllTiedDuplicatedGroupsMatchBruteForce) {
  // Every group costs exactly 0.0 and every group appears in three OVRs,
  // scanned in reverse group order: the ranking is the group order alone,
  // each group once, for k below, at and above the group count.
  MolqQuery q;
  for (int s = 0; s < 2; ++s) {
    ObjectSet set;
    set.name = std::string("type") += std::to_string(s);
    for (int i = 0; i < 4; ++i) {
      SpatialObject obj;
      obj.location = {10.0 + 20.0 * i, 50.0};
      set.objects.push_back(obj);
    }
    q.sets.push_back(std::move(set));
  }
  Movd movd;
  for (int copy = 0; copy < 3; ++copy) {
    for (int i = 3; i >= 0; --i) {
      Ovr ovr;
      ovr.mbr = Rect(20.0 * i, 0, 20.0 * i + 20.0, 100);
      ovr.region = Region::FromRect(ovr.mbr);
      ovr.pois = {{0, i}, {1, i}};
      movd.ovrs.push_back(std::move(ovr));
    }
  }
  MolqOptions opts;
  opts.epsilon = 1e-6;
  for (const size_t k : {1u, 3u, 4u, 9u}) {
    SCOPED_TRACE("k " + std::to_string(k));
    const auto top = TopKFromMovd(q, movd, k, opts).ranked;
    ExpectSameRanking(top, BruteForceTopK(q, movd, k, opts.epsilon));
    ASSERT_EQ(top.size(), std::min<size_t>(k, 4));
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].cost, 0.0);
      EXPECT_EQ(top[i].group[0].object, static_cast<int32_t>(i));
    }
  }
}

TEST(TopKTest, DuplicateOvrsOfOneCombinationCollapse) {
  // MBRB-style false positives present the same poi combination through
  // several OVRs; the ranking must keep exactly one entry per combination
  // and be unaffected by the duplicates.
  const MolqQuery q = RandomQuery({3, 3}, 421);
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kMbrb;
  opts.epsilon = 1e-6;
  const auto ranked = SolveMolqTopK(q, kBounds, 9, opts).ranked;
  for (size_t i = 0; i < ranked.size(); ++i) {
    for (size_t j = i + 1; j < ranked.size(); ++j) {
      EXPECT_NE(ranked[i].group, ranked[j].group);
    }
  }
}

TEST(TopKTest, MbrbAgreesWithRrbOnTopCosts) {
  const MolqQuery q = RandomQuery({4, 4, 3}, 405);
  MolqOptions rrb;
  rrb.epsilon = 1e-6;
  MolqOptions mbrb = rrb;
  mbrb.algorithm = MolqAlgorithm::kMbrb;
  const auto a = SolveMolqTopK(q, kBounds, 3, rrb).ranked;
  const auto b = SolveMolqTopK(q, kBounds, 3, mbrb).ranked;
  ASSERT_GE(a.size(), 1u);
  ASSERT_GE(b.size(), 1u);
  // The winner must agree; deeper ranks may differ because MBRB's false
  // positives materialise more combinations.
  EXPECT_NEAR(a[0].cost, b[0].cost, 1e-6 * a[0].cost + 1e-9);
  EXPECT_GE(b.size(), a.size() > 3 ? 3u : a.size());
}

}  // namespace
}  // namespace movd
