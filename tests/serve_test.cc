// Tests for the resident serving subsystem (src/serve, DESIGN.md §8):
// artifact cache semantics (LRU, byte budget, single-flight), serving
// metrics, the line protocol, and the QueryEngine itself — above all that
// served answers are bit-identical to the cold pipeline for every cache
// state, thread count and batching arrangement, and that a fired deadline
// never yields a partial answer.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/molq.h"
#include "model/movd_model.h"
#include "core/topk.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "storage/movd_file.h"
#include "test_tmp.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

/// A SOLVE request against `dataset`.
EngineRequest SolveRequest(const std::string& dataset, SolveSpec spec = {}) {
  EngineRequest request;
  request.dataset = dataset;
  request.op = spec;
  return request;
}

// A small immutable artifact for cache tests; same seed → same bytes.
std::shared_ptr<const Movd> MakeArtifact(size_t sites, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < sites; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  const auto vd = VoronoiDiagram::Build(pts, kBounds);
  std::vector<int32_t> ids(vd.sites().size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  return std::make_shared<const Movd>(MovdFromVoronoi(vd, 0, ids));
}

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

// Exact (bitwise) answer comparison — the determinism contract is
// bit-identity, not approximate agreement.
void ExpectAnswersEqual(const std::vector<ServeAnswer>& a,
                        const std::vector<ServeAnswer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].location.x, b[i].location.x);
    EXPECT_EQ(a[i].location.y, b[i].location.y);
    EXPECT_EQ(a[i].cost, b[i].cost);
    ASSERT_EQ(a[i].group.size(), b[i].group.size());
    for (size_t g = 0; g < a[i].group.size(); ++g) {
      EXPECT_EQ(a[i].group[g].set, b[i].group[g].set);
      EXPECT_EQ(a[i].group[g].object, b[i].group[g].object);
    }
  }
}

// ---------------------------------------------------------------------------
// ArtifactCache

TEST(ServeCacheTest, ArtifactBytesMatchesOnDiskSize) {
  const auto artifact = MakeArtifact(12, 11);
  size_t records = 0;
  for (const Ovr& ovr : artifact->ovrs) records += SerializedOvrSize(ovr);
  // Cache accounting == file bytes: a cache budget and a warm-start
  // snapshot size mean the same thing.
  EXPECT_EQ(ArtifactBytes(*artifact), records + 16);
}

TEST(ServeCacheTest, HitAvoidsBuilderAndCountsStats) {
  ArtifactCache cache(64 << 20);
  const auto artifact = MakeArtifact(10, 1);
  std::atomic<int> builds{0};
  const auto builder = [&] {
    ++builds;
    return artifact;
  };
  bool hit = true;
  EXPECT_EQ(cache.GetOrBuild("k", builder, &hit), artifact);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.GetOrBuild("k", builder, &hit), artifact);
  EXPECT_TRUE(hit);
  EXPECT_EQ(builds.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, ArtifactBytes(*artifact));
}

TEST(ServeCacheTest, EvictsLeastRecentlyUsed) {
  const auto a = MakeArtifact(10, 1);
  const auto b = MakeArtifact(10, 2);
  const auto c = MakeArtifact(10, 3);
  const size_t each = ArtifactBytes(*a);
  // Room for two artifacts of this size, not three.
  ArtifactCache cache(2 * each + each / 2);
  cache.Insert("a", a);
  cache.Insert("b", b);
  // Touch "a" so "b" is the least recently used entry.
  bool hit = false;
  EXPECT_NE(cache.GetOrBuild("a", [] { return nullptr; }, &hit), nullptr);
  EXPECT_TRUE(hit);
  cache.Insert("c", c);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, stats.capacity);
}

TEST(ServeCacheTest, OversizeArtifactIsNotCached) {
  const auto artifact = MakeArtifact(10, 1);
  ArtifactCache cache(ArtifactBytes(*artifact) - 1);
  cache.Insert("big", artifact);
  EXPECT_EQ(cache.Lookup("big"), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.oversize, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ServeCacheTest, CapacityZeroAlwaysBuilds) {
  ArtifactCache cache(0);
  const auto artifact = MakeArtifact(10, 1);
  std::atomic<int> builds{0};
  const auto builder = [&] {
    ++builds;
    return artifact;
  };
  bool hit = true;
  EXPECT_EQ(cache.GetOrBuild("k", builder, &hit), artifact);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.GetOrBuild("k", builder, &hit), artifact);
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCacheTest, SingleFlightBuildsOnceUnderContention) {
  ArtifactCache cache(64 << 20);
  const auto artifact = MakeArtifact(10, 1);
  std::atomic<int> builds{0};
  const auto builder = [&]() -> std::shared_ptr<const Movd> {
    ++builds;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return artifact;
  };
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Movd>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = cache.GetOrBuild("k", builder); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& g : got) EXPECT_EQ(g, artifact);
}

TEST(ServeCacheTest, NullBuilderResultCachesNothing) {
  ArtifactCache cache(64 << 20);
  EXPECT_EQ(cache.GetOrBuild(
                "k", []() -> std::shared_ptr<const Movd> { return nullptr; }),
            nullptr);
  EXPECT_EQ(cache.stats().inserts, 0u);
  // The key is not poisoned: a later successful build caches normally.
  const auto artifact = MakeArtifact(10, 1);
  EXPECT_EQ(cache.GetOrBuild("k", [&] { return artifact; }), artifact);
  EXPECT_EQ(cache.Lookup("k"), artifact);
}

TEST(ServeCacheTest, SnapshotIsMostRecentlyUsedFirst) {
  ArtifactCache cache(64 << 20);
  cache.Insert("a", MakeArtifact(8, 1));
  cache.Insert("b", MakeArtifact(8, 2));
  cache.Insert("c", MakeArtifact(8, 3));
  bool hit = false;
  cache.GetOrBuild("a", [] { return nullptr; }, &hit);
  ASSERT_TRUE(hit);
  const auto snapshot = cache.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first, "a");
  EXPECT_EQ(snapshot[1].first, "c");
  EXPECT_EQ(snapshot[2].first, "b");
}

// ---------------------------------------------------------------------------
// Metrics

TEST(ServeMetricsTest, HistogramResolvesPercentilesToBucketBounds) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.PercentileSeconds(50), 0.0);
  for (int i = 0; i < 10; ++i) h.Record(3e-6);   // bucket [2us, 4us)
  for (int i = 0; i < 3; ++i) h.Record(1000e-6); // bucket [512us, 1024us)
  EXPECT_EQ(h.Count(), 13u);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(50), 4e-6);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(99), 1024e-6);
}

TEST(ServeMetricsTest, CountersAndJson) {
  ServeMetrics metrics;
  metrics.RecordRequest(StatusCode::kOk, 0.001, /*cache_hit=*/true);
  metrics.RecordRequest(StatusCode::kOk, 0.002, /*cache_hit=*/false);
  metrics.RecordRequest(StatusCode::kDeadlineExceeded, 0.005, false);
  metrics.RecordRequest(StatusCode::kInvalidArgument, 0.0001, false);
  EXPECT_EQ(metrics.requests(), 4u);
  EXPECT_EQ(metrics.ok(), 2u);
  EXPECT_EQ(metrics.deadline_exceeded(), 1u);
  EXPECT_EQ(metrics.invalid(), 1u);
  EXPECT_EQ(metrics.internal_errors(), 0u);
  EXPECT_EQ(metrics.overlay_hits(), 1u);
  EXPECT_EQ(metrics.latency().Count(), 4u);

  const std::string json = metrics.Json(ArtifactCache(1 << 20).stats());
  EXPECT_NE(json.find("\"requests\":4"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":2"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_exceeded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"overlay_cache_hits\":1"), std::string::npos);
  EXPECT_NE(json.find("\"cache_capacity\":1048576"), std::string::npos);
  EXPECT_NE(json.find("\"latency_buckets\":["), std::string::npos);
}

TEST(ServeMetricsTest, StatusNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_REQUEST");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal),
               "INTERNAL_ERROR");
}

// ---------------------------------------------------------------------------
// Line protocol

TEST(ServeProtocolTest, ParsesFullSolveLine) {
  ServeVerb verb;
  EngineRequest request;
  const Status parsed = ParseRequest(
      "SOLVE id=q7 dataset=city layers=2,0 algo=mbrb k=3 epsilon=0.01 "
      "deadline_ms=250 threads=4 cache=0",
      &verb, &request);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(verb, ServeVerb::kSolve);
  EXPECT_EQ(request.id, "q7");
  EXPECT_EQ(request.dataset, "city");
  ASSERT_EQ(request.layers.size(), 2u);
  EXPECT_EQ(request.layers[0], 2);
  EXPECT_EQ(request.layers[1], 0);
  const SolveSpec& spec = std::get<SolveSpec>(request.op);
  EXPECT_EQ(spec.algorithm, MolqAlgorithm::kMbrb);
  EXPECT_EQ(spec.topk, 3u);
  EXPECT_DOUBLE_EQ(request.epsilon, 0.01);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 250.0);
  EXPECT_EQ(request.exec.threads, std::min(4, ResolveThreads(0)));
  EXPECT_FALSE(request.use_cache);
}

TEST(ServeProtocolTest, SolveDefaultsAndRequiredDataset) {
  ServeVerb verb;
  EngineRequest request;
  ASSERT_TRUE(ParseRequest("SOLVE dataset=d", &verb, &request).ok());
  EXPECT_EQ(request.id, "-");
  EXPECT_TRUE(request.layers.empty());
  EXPECT_EQ(std::get<SolveSpec>(request.op).algorithm, MolqAlgorithm::kRrb);
  EXPECT_EQ(std::get<SolveSpec>(request.op).topk, 1u);
  EXPECT_TRUE(request.use_cache);
  const Status missing = ParseRequest("SOLVE id=x k=2", &verb, &request);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing.message().find("dataset"), std::string::npos);
}

TEST(ServeProtocolTest, RejectsUnknownAndMalformedArguments) {
  ServeVerb verb;
  EngineRequest request;
  // A misspelled key must fail loudly, not fall back to a default.
  const Status misspelled =
      ParseRequest("SOLVE dataset=d epsilonn=0.1", &verb, &request);
  EXPECT_FALSE(misspelled.ok());
  EXPECT_NE(misspelled.message().find("epsilonn"), std::string::npos);
  EXPECT_FALSE(ParseRequest("SOLVE dataset=d k=0", &verb, &request).ok());
  EXPECT_FALSE(ParseRequest("SOLVE dataset=d epsilon=0", &verb, &request).ok());
  EXPECT_FALSE(
      ParseRequest("SOLVE dataset=d layers=1,x", &verb, &request).ok());
  EXPECT_FALSE(ParseRequest("SOLVE dataset=d algo=fast", &verb, &request).ok());
  EXPECT_FALSE(ParseRequest("SOLVE dataset=d cache=yes", &verb, &request).ok());
  EXPECT_FALSE(ParseRequest("EXPLODE now", &verb, &request).ok());
  EXPECT_FALSE(ParseRequest("", &verb, &request).ok());
  EXPECT_FALSE(ParseRequest("PING extra", &verb, &request).ok());
  // Integers beyond the range of the field they set are rejected, naming
  // the key, instead of being narrowed (2^32 would wrap to layer 0).
  for (const auto& [line, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"SOLVE dataset=d layers=4294967296,1", "layers"},
           {"SOLVE dataset=d layers=-2147483649", "layers"},
           {"SOLVE dataset=d threads=4294967297", "threads"},
           {"INSERT dataset=d layer=4294967296 x=1 y=2", "layer"},
           {"DELETE dataset=d layer=2147483648 x=1 y=2", "layer"}}) {
    const Status status = ParseRequest(line, &verb, &request);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(status.message().find(key), std::string::npos)
        << line << ": " << status.message();
  }
  // The largest in-range values still parse; threads= is capped at the
  // host's hardware thread count.
  ASSERT_TRUE(ParseRequest("SOLVE dataset=d layers=2147483647,-2147483648 "
                           "threads=2147483647",
                           &verb, &request)
                  .ok());
  EXPECT_EQ(request.layers,
            (std::vector<int32_t>{2147483647, -2147483647 - 1}));
  EXPECT_EQ(request.exec.threads, ResolveThreads(0));
}

TEST(ServeProtocolTest, ThreadsAreCappedAtTheHardwareThreadCount) {
  // Parsing only: no request runs, so no thread is started.
  const int hardware = ResolveThreads(0);
  ServeVerb verb;
  EngineRequest request;
  ASSERT_TRUE(
      ParseRequest("SOLVE dataset=d threads=100000", &verb, &request).ok());
  EXPECT_GE(request.exec.threads, 1);
  EXPECT_LE(request.exec.threads, hardware);
  ASSERT_TRUE(ParseRequest("SOLVE dataset=d threads=1", &verb, &request).ok());
  EXPECT_EQ(request.exec.threads, 1);
  ASSERT_TRUE(ParseRequest("SOLVE dataset=d threads=0", &verb, &request).ok());
  EXPECT_EQ(request.exec.threads, 0);  // 0 still means "resolve at run time"
}

TEST(ServeProtocolTest, RectIsAnUnknownArgument) {
  // rect= was a routing hint for a sharded server that no longer exists:
  // it now gets the registry's ordinary unknown-argument error, and the
  // protocol version does not go back down.
  ServeVerb verb;
  EngineRequest request;
  for (const char* line :
       {"SOLVE dataset=d rect=0,0;1,1",
        "DIVERSE dataset=d k=2 min_dist=1 rect=0,0;1,1",
        "CONSTRAIN dataset=d boundary=0,0;9,0;9,9 rect=0,0;1,1"}) {
    const Status status = ParseRequest(line, &verb, &request);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(status.message().find("unknown"), std::string::npos) << line;
    EXPECT_NE(status.message().find("'rect'"), std::string::npos) << line;
  }
  EXPECT_EQ(kServeProtocolVersion, 3);
}

/// Field-by-field equality of two payloads of the same verb (doubles
/// compared bit-exactly: FormatRequestLine prints them with %.17g).
void ExpectSameOp(const EngineOp& want, const EngineOp& got) {
  ASSERT_EQ(want.index(), got.index());
  std::visit(
      [&got](const auto& w) {
        using Spec = std::decay_t<decltype(w)>;
        const Spec& g = std::get<Spec>(got);
        if constexpr (requires { w.algorithm; }) {
          EXPECT_EQ(w.algorithm, g.algorithm);
        }
        if constexpr (requires { w.topk; }) {
          EXPECT_EQ(w.topk, g.topk);
        }
        if constexpr (requires { w.min_distance; }) {
          EXPECT_EQ(w.min_distance, g.min_distance);
        }
        if constexpr (requires { w.sweep; }) {
          EXPECT_EQ(w.sweep, g.sweep);
        }
        if constexpr (requires { w.constraint; }) {
          EXPECT_EQ(w.constraint.boundary.vertices(),
                    g.constraint.boundary.vertices());
          ASSERT_EQ(w.constraint.exclusions.size(),
                    g.constraint.exclusions.size());
          for (size_t i = 0; i < w.constraint.exclusions.size(); ++i) {
            EXPECT_EQ(w.constraint.exclusions[i].vertices(),
                      g.constraint.exclusions[i].vertices());
          }
        }
        if constexpr (std::is_same_v<Spec, SiteMutation>) {
          EXPECT_EQ(w.kind, g.kind);
          EXPECT_EQ(w.layer, g.layer);
          EXPECT_EQ(w.location.x, g.location.x);
          EXPECT_EQ(w.location.y, g.location.y);
        }
      },
      want);
}

TEST(ServeProtocolTest, FormatRequestLineRoundTrips) {
  // One fully populated request per verb, with values a sloppy formatter
  // would not reproduce exactly (1/3, 2/7, non-default envelope fields).
  EngineRequest query;
  query.id = "rt";
  query.dataset = "ds";
  query.layers = {0, 2};
  query.epsilon = 1e-4;
  query.exec.threads = std::min(3, ResolveThreads(0));  // parsing caps it
  query.use_cache = false;
  query.deadline_ms = 250.0;
  // Mutations accept only id/dataset in the envelope.
  EngineRequest mutation;
  mutation.id = "m";
  mutation.dataset = "ds";
  const auto with = [](EngineRequest request, EngineOp op) {
    request.op = std::move(op);
    return request;
  };
  ConstrainSpec constrain;
  constrain.constraint.boundary =
      Polygon({{1.0 / 3.0, 1.0}, {90, 2.0 / 7.0}, {90, 90}, {10, 90}});
  constrain.constraint.exclusions = {
      Polygon({{20, 20}, {40, 20}, {40, 40.5}}),
      Polygon({{60, 60}, {80, 60}, {80, 80}, {60, 1e-9 + 80}})};
  const std::map<std::string, EngineRequest> cases = {
      {"SOLVE", with(query, SolveSpec{MolqAlgorithm::kMbrb, 4})},
      {"SKYLINE", with(query, SkylineSpec{MolqAlgorithm::kMbrb})},
      {"DIVERSE", with(query, DiverseSpec{MolqAlgorithm::kMbrb, 5, 12.5})},
      {"CONSTRAIN", with(query, constrain)},
      {"WHATIF", with(query, WhatIfSpec{MolqAlgorithm::kRrb, 2,
                                        {{1.0 / 3.0, 2.5}, {0.1, 7.0}}})},
      {"INSERT", with(mutation, SiteMutation{MutationKind::kInsert, 1,
                                             {1.0 / 3.0, 2.0 / 7.0}})},
      {"DELETE", with(mutation, SiteMutation{MutationKind::kDelete, 2,
                                             {2.0 / 3.0, 1e-300}})},
  };

  // Every non-control registry row must have a case: a verb added to the
  // registry without one fails here.
  size_t verbs = 0;
  for (const VerbDescriptor& d : VerbRegistry()) {
    if ((d.caps & kCapControl) != 0) continue;
    ++verbs;
    SCOPED_TRACE(d.name);
    const auto it = cases.find(d.name);
    ASSERT_NE(it, cases.end()) << "no round-trip case for verb " << d.name;
    const EngineRequest& request = it->second;
    const std::string line = FormatRequestLine(request);
    EXPECT_EQ(line.rfind(std::string(d.name) + " ", 0), 0u) << line;

    ServeVerb verb = ServeVerb::kPing;
    EngineRequest parsed;
    const Status status = ParseRequest(line, &verb, &parsed);
    ASSERT_TRUE(status.ok()) << line << ": " << status.ToString();
    EXPECT_EQ(verb, ServeVerb::kSolve);
    EXPECT_EQ(parsed.id, request.id);
    EXPECT_EQ(parsed.dataset, request.dataset);
    EXPECT_EQ(parsed.layers, request.layers);
    EXPECT_EQ(parsed.epsilon, request.epsilon);
    EXPECT_EQ(parsed.exec.threads, request.exec.threads);
    EXPECT_EQ(parsed.use_cache, request.use_cache);
    EXPECT_EQ(parsed.deadline_ms, request.deadline_ms);
    EXPECT_EQ(parsed.cost_units, d.cost_units);
    ExpectSameOp(request.op, parsed.op);
  }
  EXPECT_EQ(verbs, cases.size());
}

TEST(ServeProtocolTest, VerbsAreCaseInsensitive) {
  ServeVerb verb;
  EngineRequest request;
  ASSERT_TRUE(ParseRequest("ping", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kPing);
  ASSERT_TRUE(ParseRequest("Stats", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kStats);
  ASSERT_TRUE(ParseRequest("quit", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kQuit);
  ASSERT_TRUE(ParseRequest("shutdown", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kShutdown);
  ASSERT_TRUE(ParseRequest("solve dataset=d", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kSolve);
}

TEST(ServeProtocolTest, FormatsOkAndErrLines) {
  MolqQuery query = TestQuery({2, 2}, 5);
  ServeResponse resp;
  resp.id = "q1";
  ServeAnswer answer;
  answer.location = {1.5, 2.5};
  answer.cost = 10.0;
  answer.group.push_back({0, 1});
  answer.group.push_back({1, 0});
  resp.answers.push_back(answer);
  resp.seconds = 0.25;
  const std::string ok = FormatResponseLine(&query, resp);
  EXPECT_EQ(ok.rfind("OK q1 {\"answers\": [", 0), 0u) << ok;
  EXPECT_NE(ok.find("\"location\": [1.500000, 2.500000]"), std::string::npos);
  EXPECT_NE(ok.find("\"cost\": 10.000000"), std::string::npos);
  EXPECT_NE(ok.find("\"set\": \"layer0\""), std::string::npos);
  EXPECT_NE(ok.find("\"cache_hit\": false"), std::string::npos);
  EXPECT_NE(ok.find("\"seconds\": 0.250000"), std::string::npos);

  ServeResponse err;
  err.id = "q2";
  err.status = StatusCode::kInvalidArgument;
  err.error = "unknown dataset 'x'";
  EXPECT_EQ(FormatResponseLine(nullptr, err),
            "ERR q2 INVALID_REQUEST unknown dataset 'x'");
}

// ---------------------------------------------------------------------------
// QueryEngine

TEST(ServeEngineTest, ServedAnswerIsBitIdenticalToColdPipeline) {
  const MolqQuery query = TestQuery({30, 25, 20}, 42);
  const Rect world = kBounds;
  QueryEngine engine;
  engine.RegisterDataset("city", query, world);

  EngineRequest request = SolveRequest("city");
  request.epsilon = 1e-4;
  const ServeResponse cold = engine.Handle(request);
  ASSERT_EQ(cold.status, StatusCode::kOk);
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_EQ(cold.answers.size(), 1u);

  // Reference: the unbatched, uncached pipeline.
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kRrb;
  opts.epsilon = 1e-4;
  const MolqResult direct = SolveMolq(query, world, opts);
  EXPECT_EQ(cold.answers[0].location.x, direct.location.x);
  EXPECT_EQ(cold.answers[0].location.y, direct.location.y);
  EXPECT_EQ(cold.answers[0].cost, direct.cost);

  // Second request is served from cache and stays bit-identical.
  const ServeResponse warm = engine.Handle(request);
  ASSERT_EQ(warm.status, StatusCode::kOk);
  EXPECT_TRUE(warm.cache_hit);
  ExpectAnswersEqual(cold.answers, warm.answers);
  EXPECT_EQ(engine.metrics().ok(), 2u);
  EXPECT_EQ(engine.metrics().overlay_hits(), 1u);
}

TEST(ServeEngineTest, AnswersIdenticalAcrossThreadCountsAndCacheState) {
  const MolqQuery query = TestQuery({25, 25}, 7);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request = SolveRequest("d");
  std::vector<ServeAnswer> reference;
  for (const int threads : {1, 2, 4}) {
    for (const bool use_cache : {true, false}) {
      request.exec.threads = threads;
      request.use_cache = use_cache;
      const ServeResponse resp = engine.Handle(request);
      ASSERT_EQ(resp.status, StatusCode::kOk);
      if (reference.empty()) {
        reference = resp.answers;
      } else {
        ExpectAnswersEqual(reference, resp.answers);
      }
    }
  }
}

TEST(ServeEngineTest, LayerSubsetMatchesDirectSubQuery) {
  const MolqQuery query = TestQuery({20, 20, 20}, 13);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request = SolveRequest("d");
  request.layers = {2, 0};  // order and duplicates are normalized
  const ServeResponse resp = engine.Handle(request);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  ASSERT_EQ(resp.answers.size(), 1u);

  MolqQuery sub;
  sub.sets = {query.sets[0], query.sets[2]};
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kRrb;
  const MolqResult direct = SolveMolq(sub, kBounds, opts);
  EXPECT_EQ(resp.answers[0].location.x, direct.location.x);
  EXPECT_EQ(resp.answers[0].location.y, direct.location.y);
  EXPECT_EQ(resp.answers[0].cost, direct.cost);
  // Group refs use DATASET layer indices (0 and 2), not sub-query ones.
  for (const PoiRef& poi : resp.answers[0].group) {
    EXPECT_TRUE(poi.set == 0 || poi.set == 2) << poi.set;
  }
}

TEST(ServeEngineTest, SscMatchesMovdAlgorithmsAndRemapsGroups) {
  const MolqQuery query = TestQuery({12, 12, 12}, 19);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request = SolveRequest("d");
  request.layers = {1, 2};
  request.op = SolveSpec{MolqAlgorithm::kSsc, 1};
  const ServeResponse ssc = engine.Handle(request);
  ASSERT_EQ(ssc.status, StatusCode::kOk);
  ASSERT_EQ(ssc.answers.size(), 1u);
  for (const PoiRef& poi : ssc.answers[0].group) {
    EXPECT_TRUE(poi.set == 1 || poi.set == 2) << poi.set;
  }
  request.op = SolveSpec{MolqAlgorithm::kRrb, 1};
  const ServeResponse rrb = engine.Handle(request);
  ASSERT_EQ(rrb.status, StatusCode::kOk);
  // SSC is exact; RRB is epsilon-approximate. Same combination, near cost.
  ASSERT_EQ(ssc.answers[0].group.size(), rrb.answers[0].group.size());
  EXPECT_NEAR(ssc.answers[0].cost, rrb.answers[0].cost,
              1e-2 * ssc.answers[0].cost + 1e-6);

  // SSC serves k=1 only.
  request.op = SolveSpec{MolqAlgorithm::kSsc, 2};
  EXPECT_EQ(engine.Handle(request).status, StatusCode::kInvalidArgument);
}

TEST(ServeEngineTest, TopKMatchesDirectRanking) {
  const MolqQuery query = TestQuery({20, 20}, 23);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request = SolveRequest("d", {MolqAlgorithm::kRrb, 3});
  const ServeResponse resp = engine.Handle(request);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  ASSERT_EQ(resp.answers.size(), 3u);
  EXPECT_LE(resp.answers[0].cost, resp.answers[1].cost);
  EXPECT_LE(resp.answers[1].cost, resp.answers[2].cost);

  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kRrb;
  const auto direct = SolveMolqTopK(query, kBounds, 3, opts);
  ASSERT_EQ(direct.ranked.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resp.answers[i].location.x, direct.ranked[i].location.x);
    EXPECT_EQ(resp.answers[i].location.y, direct.ranked[i].location.y);
    EXPECT_EQ(resp.answers[i].cost, direct.ranked[i].cost);
  }
}

TEST(ServeEngineTest, InvalidRequestsAreStructuredErrors) {
  QueryEngine engine;
  engine.RegisterDataset("d", TestQuery({5, 5}, 3), kBounds);
  EngineRequest request = SolveRequest("nope");
  ServeResponse resp = engine.Handle(request);
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);
  EXPECT_NE(resp.error.find("unknown dataset"), std::string::npos);
  EXPECT_TRUE(resp.answers.empty());

  request.dataset = "d";
  request.layers = {0, 5};
  resp = engine.Handle(request);
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);
  EXPECT_NE(resp.error.find("out of range"), std::string::npos);

  request.layers.clear();
  request.op = SolveSpec{MolqAlgorithm::kRrb, 0};
  EXPECT_EQ(engine.Handle(request).status, StatusCode::kInvalidArgument);
  request.op = SolveSpec{MolqAlgorithm::kRrb, 1};
  request.epsilon = 0.0;
  EXPECT_EQ(engine.Handle(request).status, StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.metrics().invalid(), 4u);
  EXPECT_EQ(engine.metrics().ok(), 0u);
}

TEST(ServeEngineTest, DeadlineExceededReturnsNoPartialAnswer) {
  // Big enough that the pipeline cannot finish within a microsecond.
  const MolqQuery query = TestQuery({80, 80, 80}, 31);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request = SolveRequest("d");
  request.epsilon = 1e-4;
  request.deadline_ms = 0.001;
  const ServeResponse timed_out = engine.Handle(request);
  EXPECT_EQ(timed_out.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(timed_out.answers.empty());
  EXPECT_FALSE(timed_out.error.empty());
  EXPECT_EQ(engine.metrics().deadline_exceeded(), 1u);

  // The aborted build poisoned nothing: the same request without a
  // deadline matches the cold pipeline exactly.
  request.deadline_ms = 0.0;
  const ServeResponse full = engine.Handle(request);
  ASSERT_EQ(full.status, StatusCode::kOk);
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kRrb;
  opts.epsilon = 1e-4;
  const MolqResult direct = SolveMolq(query, kBounds, opts);
  EXPECT_EQ(full.answers[0].location.x, direct.location.x);
  EXPECT_EQ(full.answers[0].cost, direct.cost);
}

TEST(ServeEngineTest, ConcurrentBatchedRequestsStayDeterministic) {
  const MolqQuery query = TestQuery({20, 20, 15}, 47);
  QueryEngineOptions options;
  options.workers = 4;
  QueryEngine engine(options);
  engine.RegisterDataset("d", query, kBounds);

  // Reference answers for three distinct request shapes, solved serially.
  std::vector<EngineRequest> shapes(3, SolveRequest("d"));
  shapes[1].layers = {0, 1};
  shapes[2].op = SolveSpec{MolqAlgorithm::kMbrb, 1};
  std::vector<ServeResponse> reference;
  for (const auto& s : shapes) {
    reference.push_back(engine.Handle(s));
    ASSERT_EQ(reference.back().status, StatusCode::kOk);
  }

  // A burst of interleaved duplicates through the worker pool.
  std::vector<std::future<ServeResponse>> futures;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      EngineRequest request = shapes[s];
      request.id = std::to_string(round) + ":" + std::to_string(s);
      futures.push_back(engine.HandleAsync(std::move(request)));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const ServeResponse resp = futures[i].get();
    ASSERT_EQ(resp.status, StatusCode::kOk) << resp.error;
    ExpectAnswersEqual(reference[i % shapes.size()].answers, resp.answers);
  }
  EXPECT_EQ(engine.metrics().ok(),
            static_cast<uint64_t>(kRounds + 1) * shapes.size());
}

TEST(ServeEngineTest, CacheDisabledEngineStaysCorrect) {
  const MolqQuery query = TestQuery({15, 15}, 53);
  QueryEngineOptions options;
  options.cache_bytes = 0;
  QueryEngine engine(options);
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request = SolveRequest("d");
  const ServeResponse first = engine.Handle(request);
  const ServeResponse second = engine.Handle(request);
  ASSERT_EQ(first.status, StatusCode::kOk);
  ASSERT_EQ(second.status, StatusCode::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  ExpectAnswersEqual(first.answers, second.answers);
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(ServeEngineTest, WarmStartRoundTripServesIdenticalAnswersFromCache) {
  const MolqQuery query = TestQuery({20, 20}, 61);
  const std::string dir = Tmp("warm");
  EngineRequest request = SolveRequest("d");
  ServeResponse cold;
  {
    QueryEngine engine;
    engine.RegisterDataset("d", query, kBounds);
    cold = engine.Handle(request);
    ASSERT_EQ(cold.status, StatusCode::kOk);
    const Status saved = engine.SaveCache(dir);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  QueryEngine warm_engine;
  warm_engine.RegisterDataset("d", query, kBounds);
  const auto load = warm_engine.LoadCache(dir);
  EXPECT_TRUE(load.status.ok()) << load.status.ToString();
  EXPECT_GE(load.loaded, 3u);  // two basics + one overlay
  EXPECT_EQ(load.failed, 0u);
  const ServeResponse warm = warm_engine.Handle(request);
  ASSERT_EQ(warm.status, StatusCode::kOk);
  // The very first request after a warm start hits the persisted overlay.
  EXPECT_TRUE(warm.cache_hit);
  ExpectAnswersEqual(cold.answers, warm.answers);
}

TEST(ServeEngineTest, WarmStartSkipsCorruptArtifacts) {
  const MolqQuery query = TestQuery({15, 15}, 67);
  const std::string dir = Tmp("corrupt");
  EngineRequest request = SolveRequest("d");
  ServeResponse cold;
  {
    QueryEngine engine;
    engine.RegisterDataset("d", query, kBounds);
    cold = engine.Handle(request);
    ASSERT_EQ(cold.status, StatusCode::kOk);
    const Status saved = engine.SaveCache(dir);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  // Truncate one artifact mid-record: it must be skipped, not served.
  const std::string victim = dir + "/art_0.movd";
  std::FILE* f = std::fopen(victim.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(victim.c_str(), size / 2), 0);

  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  const auto load = engine.LoadCache(dir);
  EXPECT_TRUE(load.status.ok()) << load.status.ToString();
  EXPECT_EQ(load.failed, 1u);
  EXPECT_GE(load.loaded, 2u);
  // The engine still answers correctly, rebuilding what was damaged.
  const ServeResponse resp = engine.Handle(request);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  ExpectAnswersEqual(cold.answers, resp.answers);
}

TEST(ServeEngineTest, LoadCacheReportsMissingDirectory) {
  QueryEngine engine;
  const auto load = engine.LoadCache(Tmp("missing"));
  EXPECT_FALSE(load.status.ok());
  EXPECT_EQ(load.status.code(), StatusCode::kIoError);
  EXPECT_EQ(load.loaded, 0u);
}

}  // namespace
}  // namespace movd
