// Tests of the query-algebra serving surface (src/serve): protocol
// parsing of the SKYLINE / DIVERSE / CONSTRAIN / WHATIF verbs and their
// restrictions, engine dispatch agreeing bit-exactly with the direct
// src/query evaluators, artifact-cache reuse across verbs (a warm what-if
// sweep must not rebuild overlays), and byte-identical response JSON with
// and without tracing.

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/molq.h"
#include "query/constrained.h"
#include "query/diversify.h"
#include "query/skyline.h"
#include "query/whatif.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

MolqQuery TestQuery(const std::vector<size_t>& sizes, uint64_t seed) {
  Rng rng(seed);
  MolqQuery query;
  for (size_t s = 0; s < sizes.size(); ++s) {
    ObjectSet set;
    set.name = std::string("layer") += std::to_string(s);
    for (size_t i = 0; i < sizes[s]; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      obj.type_weight = rng.Uniform(0.1, 10.0);
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

template <typename Spec>
concept HasAlgorithm = requires(Spec spec) { spec.algorithm; };

/// A request for the query shape `op` against `dataset`.
EngineRequest ShapeRequest(const std::string& dataset, EngineOp op) {
  EngineRequest request;
  request.dataset = dataset;
  request.op = std::move(op);
  return request;
}

Movd BuildOverlay(const MolqQuery& query, BoundaryMode mode) {
  std::vector<Movd> basic;
  for (int32_t s = 0; s < static_cast<int32_t>(query.sets.size()); ++s) {
    basic.push_back(BuildBasicMovd(query, s, kBounds, 128));
  }
  return OverlapAll(basic, mode);
}

void ExpectAnswerMatchesCandidate(const ServeAnswer& a,
                                  const SiteCandidate& c) {
  EXPECT_EQ(a.location.x, c.location.x);
  EXPECT_EQ(a.location.y, c.location.y);
  EXPECT_EQ(a.cost, c.cost);
  EXPECT_EQ(a.criteria, c.criteria);
  ASSERT_EQ(a.group.size(), c.group.size());
  for (size_t g = 0; g < a.group.size(); ++g) {
    EXPECT_EQ(a.group[g].set, c.group[g].set);
    EXPECT_EQ(a.group[g].object, c.group[g].object);
  }
}

// ---------------------------------------------------------------------------
// Protocol parsing

TEST(ServeQueryProtocolTest, ParsePolygonSpec) {
  Polygon poly;
  ASSERT_TRUE(ParsePolygonSpec("10,10;90,10;90,90;10,90", &poly).ok());
  ASSERT_EQ(poly.vertices().size(), 4u);
  EXPECT_DOUBLE_EQ(poly.vertices()[0].x, 10.0);
  EXPECT_DOUBLE_EQ(poly.vertices()[2].y, 90.0);
  EXPECT_FALSE(ParsePolygonSpec("", &poly).ok());
  EXPECT_FALSE(ParsePolygonSpec("1,1;2,2", &poly).ok());  // < 3 vertices
  EXPECT_FALSE(ParsePolygonSpec("1,1;2;3,3", &poly).ok());
  EXPECT_FALSE(ParsePolygonSpec("1,1;2,x;3,3", &poly).ok());
}

TEST(ServeQueryProtocolTest, ParseSweepSpec) {
  std::vector<std::vector<double>> sweep;
  ASSERT_TRUE(ParseSweepSpec("1,1|2,0.5|0.25,4", &sweep).ok());
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_EQ(sweep[0], (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(sweep[1], (std::vector<double>{2.0, 0.5}));
  EXPECT_EQ(sweep[2], (std::vector<double>{0.25, 4.0}));
  EXPECT_FALSE(ParseSweepSpec("", &sweep).ok());
  EXPECT_FALSE(ParseSweepSpec("1,1||2,2", &sweep).ok());
  EXPECT_FALSE(ParseSweepSpec("1,x", &sweep).ok());
}

TEST(ServeQueryProtocolTest, ParsesSkylineLine) {
  ServeVerb verb;
  EngineRequest request;
  ASSERT_TRUE(ParseRequest("SKYLINE id=s1 dataset=d layers=0,1 algo=mbrb",
                           &verb, &request)
                  .ok());
  EXPECT_EQ(verb, ServeVerb::kSolve);
  ASSERT_TRUE(std::holds_alternative<SkylineSpec>(request.op));
  EXPECT_EQ(std::get<SkylineSpec>(request.op).algorithm,
            MolqAlgorithm::kMbrb);
  // SKYLINE has no ranking depth; k= must be rejected, as must ssc.
  EXPECT_FALSE(ParseRequest("SKYLINE dataset=d k=3", &verb, &request).ok());
  EXPECT_FALSE(
      ParseRequest("SKYLINE dataset=d algo=ssc", &verb, &request).ok());
}

TEST(ServeQueryProtocolTest, ParsesDiverseLine) {
  ServeVerb verb;
  EngineRequest request;
  ASSERT_TRUE(
      ParseRequest("DIVERSE dataset=d k=4 min_dist=12.5", &verb, &request)
          .ok());
  ASSERT_TRUE(std::holds_alternative<DiverseSpec>(request.op));
  EXPECT_EQ(std::get<DiverseSpec>(request.op).topk, 4u);
  EXPECT_DOUBLE_EQ(std::get<DiverseSpec>(request.op).min_distance, 12.5);
  // Both k and min_dist are required; min_dist must be non-negative.
  EXPECT_FALSE(ParseRequest("DIVERSE dataset=d k=4", &verb, &request).ok());
  EXPECT_FALSE(
      ParseRequest("DIVERSE dataset=d min_dist=5", &verb, &request).ok());
  EXPECT_FALSE(
      ParseRequest("DIVERSE dataset=d k=4 min_dist=-1", &verb, &request)
          .ok());
  // min_dist is DIVERSE-only vocabulary.
  EXPECT_FALSE(
      ParseRequest("SOLVE dataset=d min_dist=5", &verb, &request).ok());
}

TEST(ServeQueryProtocolTest, ParsesConstrainLine) {
  ServeVerb verb;
  EngineRequest request;
  ASSERT_TRUE(ParseRequest(
                  "CONSTRAIN dataset=d boundary=10,10;90,10;90,90;10,90 "
                  "exclude=20,20;40,20;40,40;20,40 "
                  "exclude=60,60;80,60;80,80;60,80",
                  &verb, &request)
                  .ok());
  ASSERT_TRUE(std::holds_alternative<ConstrainSpec>(request.op));
  const QueryConstraint& constraint =
      std::get<ConstrainSpec>(request.op).constraint;
  EXPECT_EQ(constraint.boundary.vertices().size(), 4u);
  ASSERT_EQ(constraint.exclusions.size(), 2u);  // exclude= repeats
  // At least one constraint ring is required; algo and k are rejected
  // (CONSTRAIN is RRB-only and returns the single optimum).
  EXPECT_FALSE(ParseRequest("CONSTRAIN dataset=d", &verb, &request).ok());
  EXPECT_FALSE(ParseRequest(
                   "CONSTRAIN dataset=d algo=rrb boundary=0,0;9,0;9,9", &verb,
                   &request)
                   .ok());
  EXPECT_FALSE(
      ParseRequest("CONSTRAIN dataset=d k=2 boundary=0,0;9,0;9,9", &verb,
                   &request)
          .ok());
  // A second boundary= is ambiguous, not an append.
  EXPECT_FALSE(ParseRequest(
                   "CONSTRAIN dataset=d boundary=0,0;9,0;9,9 "
                   "boundary=1,1;8,1;8,8",
                   &verb, &request)
                   .ok());
}

TEST(ServeQueryProtocolTest, ParsesWhatIfLine) {
  ServeVerb verb;
  EngineRequest request;
  ASSERT_TRUE(
      ParseRequest("WHATIF dataset=d sweep=1,1|2,0.5 k=2", &verb, &request)
          .ok());
  ASSERT_TRUE(std::holds_alternative<WhatIfSpec>(request.op));
  ASSERT_EQ(std::get<WhatIfSpec>(request.op).sweep.size(), 2u);
  EXPECT_EQ(std::get<WhatIfSpec>(request.op).topk, 2u);
  EXPECT_FALSE(ParseRequest("WHATIF dataset=d", &verb, &request).ok());
  EXPECT_FALSE(
      ParseRequest("SOLVE dataset=d sweep=1,1", &verb, &request).ok());
}

// ---------------------------------------------------------------------------
// Engine dispatch vs the direct evaluators

TEST(ServeQueryEngineTest, SkylineMatchesDirectEvaluator) {
  const MolqQuery query = TestQuery({12, 10}, 61);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  const ServeResponse resp = engine.Handle(ShapeRequest("d", SkylineSpec{}));
  ASSERT_EQ(resp.status, StatusCode::kOk) << resp.error;

  const Movd overlay = BuildOverlay(query, BoundaryMode::kRealRegion);
  const SkylineResult direct = SkylineFromMovd(query, overlay);
  ASSERT_EQ(resp.answers.size(), direct.skyline.size());
  for (size_t i = 0; i < direct.skyline.size(); ++i) {
    ExpectAnswerMatchesCandidate(resp.answers[i], direct.skyline[i]);
  }
}

TEST(ServeQueryEngineTest, DiverseMatchesDirectEvaluator) {
  const MolqQuery query = TestQuery({12, 10}, 62);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  const ServeResponse resp = engine.Handle(
      ShapeRequest("d", DiverseSpec{MolqAlgorithm::kRrb, 3, 20.0}));
  ASSERT_EQ(resp.status, StatusCode::kOk) << resp.error;

  const Movd overlay = BuildOverlay(query, BoundaryMode::kRealRegion);
  const DiverseTopKResult direct =
      DiverseTopKFromMovd(query, overlay, 3, 20.0);
  ASSERT_EQ(resp.answers.size(), direct.selected.size());
  for (size_t i = 0; i < direct.selected.size(); ++i) {
    ExpectAnswerMatchesCandidate(resp.answers[i], direct.selected[i]);
  }
}

TEST(ServeQueryEngineTest, ConstrainMatchesDirectEvaluator) {
  const MolqQuery query = TestQuery({12, 10}, 63);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  ConstrainSpec spec;
  spec.constraint.boundary = Polygon({{10, 10}, {80, 10}, {80, 80}, {10, 80}});
  spec.constraint.exclusions.push_back(
      Polygon({{30, 30}, {55, 30}, {55, 55}, {30, 55}}));
  const ServeResponse resp = engine.Handle(ShapeRequest("d", spec));
  ASSERT_EQ(resp.status, StatusCode::kOk) << resp.error;
  ASSERT_EQ(resp.answers.size(), 1u);

  const Movd overlay = BuildOverlay(query, BoundaryMode::kRealRegion);
  const ConstrainedMolqResult direct =
      ConstrainedMolqFromMovd(query, overlay, spec.constraint, kBounds);
  ASSERT_TRUE(direct.feasible);
  ExpectAnswerMatchesCandidate(resp.answers[0], direct.best);

  // An infeasible constraint is an OK response with zero answers, not an
  // error.
  ConstrainSpec infeasible;
  infeasible.constraint.boundary =
      Polygon({{200, 200}, {300, 200}, {300, 300}, {200, 300}});
  const ServeResponse empty = engine.Handle(ShapeRequest("d", infeasible));
  ASSERT_EQ(empty.status, StatusCode::kOk) << empty.error;
  EXPECT_TRUE(empty.answers.empty());
}

TEST(ServeQueryEngineTest, WhatIfMatchesDirectEvaluatorAndReusesOverlay) {
  const MolqQuery query = TestQuery({12, 10}, 64);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);

  // Warm the RRB overlay with a plain solve first: the sweep must then be
  // served from the same artifact without rebuilding anything.
  ASSERT_EQ(engine.Handle(ShapeRequest("d", SolveSpec{})).status,
            StatusCode::kOk);

  const ServeResponse resp = engine.Handle(ShapeRequest(
      "d", WhatIfSpec{MolqAlgorithm::kRrb, 2,
                      {{1.0, 1.0}, {2.0, 0.5}, {0.1, 3.0}}}));
  ASSERT_EQ(resp.status, StatusCode::kOk) << resp.error;
  EXPECT_TRUE(resp.cache_hit);  // the warm what-if rebuilt no artifacts
  EXPECT_TRUE(resp.answers.empty());
  ASSERT_EQ(resp.sweep_answers.size(), 3u);

  const Movd overlay = BuildOverlay(query, BoundaryMode::kRealRegion);
  std::vector<WhatIfVector> vectors(3);
  vectors[0].scale = {1.0, 1.0};
  vectors[1].scale = {2.0, 0.5};
  vectors[2].scale = {0.1, 3.0};
  WhatIfOptions opts;
  opts.topk = 2;
  const WhatIfSweepResult direct =
      WhatIfSweepFromMovd(query, overlay, vectors, opts);
  ASSERT_EQ(direct.per_vector.size(), 3u);
  for (size_t v = 0; v < 3; ++v) {
    ASSERT_EQ(resp.sweep_answers[v].size(), direct.per_vector[v].size());
    for (size_t i = 0; i < direct.per_vector[v].size(); ++i) {
      ExpectAnswerMatchesCandidate(resp.sweep_answers[v][i],
                                   direct.per_vector[v][i]);
    }
  }
}

TEST(ServeQueryEngineTest, ConstraintCacheKeysByConstraintHash) {
  const MolqQuery query = TestQuery({10, 10}, 65);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  ConstrainSpec spec;
  spec.constraint.boundary = Polygon({{10, 10}, {90, 10}, {90, 90}, {10, 90}});
  const EngineRequest request = ShapeRequest("d", spec);
  const ServeResponse cold = engine.Handle(request);
  ASSERT_EQ(cold.status, StatusCode::kOk) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  // Same constraint: the clipped overlay is reused outright.
  const ServeResponse warm = engine.Handle(request);
  ASSERT_EQ(warm.status, StatusCode::kOk);
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_EQ(warm.answers.size(), cold.answers.size());
  for (size_t i = 0; i < cold.answers.size(); ++i) {
    EXPECT_EQ(warm.answers[i].location.x, cold.answers[i].location.x);
    EXPECT_EQ(warm.answers[i].cost, cold.answers[i].cost);
  }
  // A different constraint must NOT reuse the clipped artifact (though it
  // shares the unclipped overlay underneath).
  ConstrainSpec other;
  other.constraint.boundary = Polygon({{20, 20}, {80, 20}, {80, 80}, {20, 80}});
  const ServeResponse different = engine.Handle(ShapeRequest("d", other));
  ASSERT_EQ(different.status, StatusCode::kOk);
  EXPECT_FALSE(different.cache_hit);
}

TEST(ServeQueryEngineTest, KindRestrictionsAreStructuredErrors) {
  const MolqQuery query = TestQuery({8, 8}, 66);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  // ssc has no MOVD artifacts, so no query shape can run on it.
  for (const EngineOp& op :
       {EngineOp(SkylineSpec{MolqAlgorithm::kSsc}),
        EngineOp(DiverseSpec{MolqAlgorithm::kSsc, 1, 0.0}),
        EngineOp(WhatIfSpec{MolqAlgorithm::kSsc, 1, {{1.0, 1.0}}})}) {
    EXPECT_EQ(engine.Handle(ShapeRequest("d", op)).status,
              StatusCode::kInvalidArgument);
  }
  // Constrained clipping needs real regions; MBRB overlays carry none, so
  // the CONSTRAIN payload has no algorithm to set (the engine pins RRB).
  static_assert(!HasAlgorithm<ConstrainSpec>);
  // A zero-area boundary fails constraint validation up front.
  ConstrainSpec degenerate;
  degenerate.constraint.boundary = Polygon({{10, 10}, {50, 50}, {90, 90}});
  EXPECT_EQ(engine.Handle(ShapeRequest("d", degenerate)).status,
            StatusCode::kInvalidArgument);
  // A sweep vector with the wrong arity is rejected against the dataset.
  EXPECT_EQ(engine
                .Handle(ShapeRequest(
                    "d", WhatIfSpec{MolqAlgorithm::kRrb, 1, {{1.0, 1.0, 1.0}}}))
                .status,
            StatusCode::kInvalidArgument);
}

TEST(ServeQueryEngineTest, ResponseJsonIsByteIdenticalWithAndWithoutTrace) {
  const MolqQuery query = TestQuery({10, 10}, 67);
  for (const EngineOp& op :
       {EngineOp(SkylineSpec{}),
        EngineOp(DiverseSpec{MolqAlgorithm::kRrb, 3, 10.0}),
        EngineOp(WhatIfSpec{MolqAlgorithm::kRrb, 2,
                            {{1.0, 1.0}, {0.5, 2.0}}})}) {
    QueryEngine plain_engine;
    plain_engine.RegisterDataset("d", query, kBounds);
    const EngineRequest request = ShapeRequest("d", op);
    const ServeResponse plain = plain_engine.Handle(request);
    ASSERT_EQ(plain.status, StatusCode::kOk) << plain.error;

    QueryEngine traced_engine;
    traced_engine.RegisterDataset("d", query, kBounds);
    Trace trace;
    EngineRequest traced_request = request;
    traced_request.exec.trace = &trace;
    const ServeResponse traced = traced_engine.Handle(traced_request);
    ASSERT_EQ(traced.status, StatusCode::kOk) << traced.error;
    EXPECT_EQ(ResponseJson(query, plain, /*include_timing=*/false),
              ResponseJson(query, traced, /*include_timing=*/false));
  }
}

}  // namespace
}  // namespace movd
