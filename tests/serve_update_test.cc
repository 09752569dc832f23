// Tests of live site updates in the serve stack (DESIGN.md §14): the
// INSERT/DELETE protocol rows and the registry they derive from, the
// engine's mutation path (snapshot versioning, incremental artifact
// patching, structured errors), snapshot pinning under concurrent
// mutation (answers bit-identical per version), and admission-control
// shedding. Suite names carry the Serve prefix so the TSan CI job's
// --gtest_filter picks the concurrent ones up.

#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/molq.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "util/rng.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

/// Layers that take the ordinary-Voronoi route (uniform weights), so
/// mutations exercise the incremental patcher rather than full rebuilds.
MolqQuery OrdinaryQuery(const std::vector<size_t>& sizes, uint64_t seed) {
  Rng rng(seed);
  MolqQuery query;
  for (size_t s = 0; s < sizes.size(); ++s) {
    ObjectSet set;
    set.name = std::string("layer") += std::to_string(s);
    for (size_t i = 0; i < sizes[s]; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

/// The serve engine's "first object at exactly this location" mutation
/// semantics, applied to a reference query copy.
void ApplyToQuery(MolqQuery* query, const SiteMutation& mut) {
  ObjectSet& set = query->sets.at(mut.layer);
  if (mut.kind == MutationKind::kInsert) {
    SpatialObject obj;
    obj.location = mut.location;
    set.objects.push_back(obj);
    return;
  }
  for (size_t i = 0; i < set.objects.size(); ++i) {
    if (std::memcmp(&set.objects[i].location, &mut.location,
                    sizeof(Point)) == 0) {
      set.objects.erase(set.objects.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
  FAIL() << "ApplyToQuery: deleting an absent object";
}

EngineRequest MutationRequest(const std::string& dataset, MutationKind kind,
                              int32_t layer, Point location) {
  EngineRequest req;
  req.dataset = dataset;
  req.op = SiteMutation{kind, layer, location};
  req.cost_units = 4;
  return req;
}

/// A SOLVE request against `dataset` over `layers` (empty = all).
EngineRequest SolveRequest(const std::string& dataset,
                           std::vector<int32_t> layers = {}) {
  EngineRequest req;
  req.dataset = dataset;
  req.layers = std::move(layers);
  req.op = SolveSpec{};
  return req;
}

/// The deterministic answer bytes of a response — ResponseJson without the
/// timing tail, resolved through the response's own pinned snapshot.
std::string AnswerBytes(const ServeResponse& resp) {
  return ResponseJson(resp.snapshot->query, resp, /*include_timing=*/false);
}

// ---------------------------------------------------------------------------
// Protocol: mutation verbs and the registry they come from

TEST(ServeUpdateProtocolTest, ParsesInsertAndDeleteLines) {
  ServeVerb verb;
  EngineRequest request;
  ASSERT_TRUE(ParseRequest("INSERT id=m1 dataset=d layer=1 x=10.5 y=2.25",
                           &verb, &request)
                  .ok());
  EXPECT_EQ(verb, ServeVerb::kSolve);
  ASSERT_TRUE(std::holds_alternative<SiteMutation>(request.op));
  const SiteMutation& insert = std::get<SiteMutation>(request.op);
  EXPECT_EQ(insert.kind, MutationKind::kInsert);
  EXPECT_EQ(insert.layer, 1);
  EXPECT_EQ(insert.location.x, 10.5);
  EXPECT_EQ(insert.location.y, 2.25);
  EXPECT_EQ(request.cost_units, FindVerb("INSERT")->cost_units);

  ASSERT_TRUE(
      ParseRequest("delete dataset=d layer=0 x=3 y=4", &verb, &request).ok());
  ASSERT_TRUE(std::holds_alternative<SiteMutation>(request.op));
  EXPECT_EQ(std::get<SiteMutation>(request.op).kind, MutationKind::kDelete);
}

TEST(ServeUpdateProtocolTest, RejectsMalformedMutationLines) {
  ServeVerb verb;
  EngineRequest request;
  // layer/x/y are all required.
  EXPECT_FALSE(
      ParseRequest("INSERT dataset=d layer=0 x=1", &verb, &request).ok());
  EXPECT_FALSE(
      ParseRequest("INSERT dataset=d x=1 y=2", &verb, &request).ok());
  // Query vocabulary does not apply to mutations.
  EXPECT_FALSE(ParseRequest("INSERT dataset=d layer=0 x=1 y=2 layers=0",
                                &verb, &request)
                   .ok());
  EXPECT_FALSE(ParseRequest("DELETE dataset=d layer=0 x=1 y=2 k=2", &verb,
                                &request)
                   .ok());
  // Layer indices are non-negative; coordinates must be finite.
  EXPECT_FALSE(ParseRequest("DELETE dataset=d layer=-1 x=1 y=2", &verb,
                                &request)
                   .ok());
  EXPECT_FALSE(ParseRequest("INSERT dataset=d layer=0 x=nan y=2", &verb,
                                &request)
                   .ok());
  // Mutation vocabulary does not leak into queries either.
  EXPECT_FALSE(
      ParseRequest("SOLVE dataset=d layer=0", &verb, &request).ok());
}

TEST(ServeUpdateProtocolTest, UnknownVerbIsUnsupportedNotInvalid) {
  ServeVerb verb;
  EngineRequest request;
  const Status status = ParseRequest("FROBNICATE dataset=d", &verb,
                                         &request);
  EXPECT_EQ(status.code(), StatusCode::kUnsupportedVerb);
  // The error names the protocol version and points at HELP.
  EXPECT_NE(status.message().find("HELP"), std::string::npos);
}

TEST(ServeUpdateProtocolTest, RegistryDrivesParsingAndHelp) {
  // Every registry row parses under its own name; HELP lists them all.
  const std::string help = HelpJson();
  EXPECT_NE(help.find("\"protocol_version\""), std::string::npos);
  size_t mutations = 0, controls = 0;
  for (const VerbDescriptor& d : VerbRegistry()) {
    EXPECT_EQ(FindVerb(d.name), &d);
    EXPECT_NE(help.find(d.name), std::string::npos) << d.name;
    EXPECT_LE(d.since_version, kServeProtocolVersion);
    if ((d.caps & kCapMutation) != 0) ++mutations;
    if ((d.caps & kCapControl) != 0) ++controls;
  }
  EXPECT_EQ(mutations, 2u);  // INSERT + DELETE
  EXPECT_GE(controls, 4u);   // STATS/HELP/PING/QUIT/SHUTDOWN
  // Mutations are costlier than queries under admission control.
  EXPECT_GT(FindVerb("INSERT")->cost_units, FindVerb("SOLVE")->cost_units);
  // Control verbs take no arguments.
  ServeVerb verb;
  EngineRequest request;
  EXPECT_FALSE(ParseRequest("PING x=1", &verb, &request).ok());
  ASSERT_TRUE(ParseRequest("HELP", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kHelp);
}

// ---------------------------------------------------------------------------
// Engine: mutations publish versions and keep answers bit-identical

TEST(ServeUpdateEngineTest, InsertPublishesVersionAndMatchesColdPipeline) {
  MolqQuery query = OrdinaryQuery({12, 10}, 21);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);

  const EngineRequest solve = SolveRequest("d");
  const ServeResponse before = engine.Handle(solve);
  ASSERT_EQ(before.status, StatusCode::kOk) << before.error;
  EXPECT_EQ(before.version, 1u);

  const SiteMutation mut{MutationKind::kInsert, 1, {37.5, 61.25}};
  const ServeResponse applied = engine.Handle(
      MutationRequest("d", mut.kind, mut.layer, mut.location));
  ASSERT_EQ(applied.status, StatusCode::kOk) << applied.error;
  EXPECT_TRUE(applied.is_mutation);
  EXPECT_EQ(applied.version, 2u);
  EXPECT_FALSE(applied.mutation.full_rebuild);
  EXPECT_GT(applied.mutation.recomputed_cells, 0u);
  ApplyToQuery(&query, mut);

  const ServeResponse after = engine.Handle(solve);
  ASSERT_EQ(after.status, StatusCode::kOk) << after.error;
  EXPECT_EQ(after.version, 2u);

  // The patched-artifact answer must be byte-identical to a cold engine
  // built directly on the mutated dataset.
  QueryEngine cold;
  cold.RegisterDataset("d", query, kBounds);
  const ServeResponse rebuilt = cold.Handle(solve);
  ASSERT_EQ(rebuilt.status, StatusCode::kOk) << rebuilt.error;
  EXPECT_EQ(AnswerBytes(after), AnswerBytes(rebuilt));
  EXPECT_EQ(engine.metrics().mutations(), 1u);
}

TEST(ServeUpdateEngineTest, DeleteMatchesColdPipelineAndPatchesOverlays) {
  MolqQuery query = OrdinaryQuery({12, 10}, 22);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);

  // Warm the all-layer overlay so the mutation has artifacts to patch.
  const EngineRequest solve = SolveRequest("d");
  ASSERT_EQ(engine.Handle(solve).status, StatusCode::kOk);
  ASSERT_TRUE(engine.Handle(solve).cache_hit);

  const SiteMutation mut{MutationKind::kDelete, 0,
                         query.sets[0].objects[5].location};
  const ServeResponse applied = engine.Handle(
      MutationRequest("d", mut.kind, mut.layer, mut.location));
  ASSERT_EQ(applied.status, StatusCode::kOk) << applied.error;
  EXPECT_GT(applied.mutation.patched_artifacts, 0u);
  ApplyToQuery(&query, mut);

  // The patched overlay serves the new version straight from cache...
  const ServeResponse after = engine.Handle(solve);
  ASSERT_EQ(after.status, StatusCode::kOk) << after.error;
  EXPECT_EQ(after.version, 2u);
  EXPECT_TRUE(after.cache_hit);

  // ...with bytes identical to a cold rebuild of the mutated dataset.
  QueryEngine cold;
  cold.RegisterDataset("d", query, kBounds);
  const ServeResponse rebuilt = cold.Handle(solve);
  ASSERT_EQ(rebuilt.status, StatusCode::kOk) << rebuilt.error;
  EXPECT_EQ(AnswerBytes(after), AnswerBytes(rebuilt));
}

/// Layer 0 on the integer lattice {10, 20, ..., 90}^2, where every four
/// neighbouring sites are cocircular; layer 1 as in OrdinaryQuery.
MolqQuery CocircularGridQuery() {
  MolqQuery query = OrdinaryQuery({1, 9}, 29);
  ObjectSet& grid = query.sets[0];
  grid.objects.clear();
  for (int x = 10; x <= 90; x += 10) {
    for (int y = 10; y <= 90; y += 10) {
      SpatialObject obj;
      obj.location = {static_cast<double>(x), static_cast<double>(y)};
      grid.objects.push_back(obj);
    }
  }
  return query;
}

TEST(ServeUpdateEngineTest, MutationScriptUnderAuditMatchesColdPipeline) {
  // With auditing on, every patched artifact is certified against a
  // from-scratch rebuild inside the engine; a long mixed script must end
  // bit-identical to the cold pipeline. The second input puts layer 0 on a
  // cocircular grid and inserts at lattice cell centres, where the
  // incremental and batch triangulations may pick different diagonals:
  // the audit-gated rebuild fallback (DESIGN.md §14) must keep the answers
  // exact.
  for (const bool grid : {false, true}) {
    SCOPED_TRACE(grid ? "cocircular grid" : "random sites");
    MolqQuery query =
        grid ? CocircularGridQuery() : OrdinaryQuery({10, 9}, 23);
    QueryEngineOptions options;
    options.exec.audit = true;
    QueryEngine engine(options);
    engine.RegisterDataset("d", query, kBounds);
    const EngineRequest solve = SolveRequest("d");
    ASSERT_EQ(engine.Handle(solve).status, StatusCode::kOk);

    Rng rng(404);
    size_t fallbacks = 0;
    for (int step = 0; step < 10; ++step) {
      SiteMutation mut;
      mut.layer = step % 2;
      ObjectSet& set = query.sets[static_cast<size_t>(mut.layer)];
      if (set.objects.size() > 5 && rng.NextBelow(3) == 0) {
        mut.kind = MutationKind::kDelete;
        mut.location =
            set.objects[rng.NextBelow(set.objects.size())].location;
      } else if (grid && mut.layer == 0) {
        mut.kind = MutationKind::kInsert;
        mut.location = {5.0 + 10.0 * static_cast<double>(rng.NextBelow(9)),
                        5.0 + 10.0 * static_cast<double>(rng.NextBelow(9))};
      } else {
        mut.kind = MutationKind::kInsert;
        mut.location = {rng.Uniform(6, 94), rng.Uniform(6, 94)};
      }
      const ServeResponse applied = engine.Handle(
          MutationRequest("d", mut.kind, mut.layer, mut.location));
      ASSERT_EQ(applied.status, StatusCode::kOk)
          << "step " << step << ": " << applied.error;
      ApplyToQuery(&query, mut);
      ASSERT_EQ(applied.version, static_cast<uint64_t>(step) + 2);
      fallbacks += applied.mutation.full_rebuild ? 1 : 0;
    }

    const ServeResponse after = engine.Handle(solve);
    ASSERT_EQ(after.status, StatusCode::kOk) << after.error;
    QueryEngine cold;
    cold.RegisterDataset("d", query, kBounds);
    const ServeResponse rebuilt = cold.Handle(solve);
    ASSERT_EQ(rebuilt.status, StatusCode::kOk) << rebuilt.error;
    EXPECT_EQ(AnswerBytes(after), AnswerBytes(rebuilt));
    // The grid input must reach the fallback, or it tests nothing new.
    // (Once batch and incremental triangulation share one code path, the
    // fallback and this expectation go away together.)
    if (grid) {
      EXPECT_GT(fallbacks, 0u);
    }
  }
}

TEST(ServeUpdateEngineTest, MutationErrorsAreStructured) {
  MolqQuery query = OrdinaryQuery({6, 1}, 24);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);

  // Unknown dataset.
  EXPECT_EQ(engine
                .Handle(MutationRequest("nope", MutationKind::kInsert, 0,
                                        {10, 10}))
                .status,
            StatusCode::kNotFound);
  // Layer out of range.
  EXPECT_EQ(engine
                .Handle(MutationRequest("d", MutationKind::kInsert, 7,
                                        {10, 10}))
                .status,
            StatusCode::kInvalidArgument);
  // Insert outside the world rectangle.
  EXPECT_EQ(engine
                .Handle(MutationRequest("d", MutationKind::kInsert, 0,
                                        {500, 10}))
                .status,
            StatusCode::kInvalidArgument);
  // Deleting an absent object.
  EXPECT_EQ(engine
                .Handle(MutationRequest("d", MutationKind::kDelete, 0,
                                        {1.5, 1.5}))
                .status,
            StatusCode::kNotFound);
  // Deleting a layer's last object would leave the dataset unservable.
  EXPECT_EQ(engine
                .Handle(MutationRequest("d", MutationKind::kDelete, 1,
                                        query.sets[1].objects[0].location))
                .status,
            StatusCode::kInvalidArgument);
  // None of the failures published a version.
  EXPECT_EQ(engine.dataset_snapshot("d")->version, 1u);
  EXPECT_EQ(engine.metrics().mutations(), 0u);
}

TEST(ServeUpdateEngineTest, SnapshotsPinAndReRegistrationAdvancesVersions) {
  MolqQuery query = OrdinaryQuery({8, 8}, 25);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  const std::shared_ptr<const DatasetSnapshot> pinned =
      engine.dataset_snapshot("d");
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->version, 1u);
  const size_t objects_before = pinned->query.sets[0].objects.size();

  ASSERT_EQ(engine
                .Handle(MutationRequest("d", MutationKind::kInsert, 0,
                                        {50.5, 50.5}))
                .status,
            StatusCode::kOk);
  // The pinned snapshot is immutable: the mutation published a new one.
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(pinned->query.sets[0].objects.size(), objects_before);
  EXPECT_EQ(engine.dataset_snapshot("d")->version, 2u);

  // Re-registration never reuses a version, so stale cached artifacts
  // cannot collide with the fresh dataset's keys.
  engine.RegisterDataset("d", query, kBounds);
  EXPECT_EQ(engine.dataset_snapshot("d")->version, 3u);
}

// ---------------------------------------------------------------------------
// Concurrency: mutate-while-query stress (runs under the TSan CI filter)

TEST(ServeUpdateStressTest, QueriesStayBitIdenticalPerVersionUnderMutation) {
  MolqQuery query = OrdinaryQuery({14, 12}, 26);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> failures{0};
  std::mutex mu;
  std::map<std::string, std::string> first;  // (version, layers) -> bytes
  const std::vector<std::vector<int32_t>> patterns = {{}, {0}, {1}, {0, 1}};

  std::vector<std::thread> queriers;
  for (size_t t = 0; t < patterns.size(); ++t) {
    queriers.emplace_back([&, t]() {
      const EngineRequest req = SolveRequest("d", patterns[t]);
      while (!done.load(std::memory_order_relaxed)) {
        const ServeResponse resp = engine.Handle(req);
        if (resp.status != StatusCode::kOk) {
          failures.fetch_add(1);
          continue;
        }
        // Snapshot pinning: answers for one (version, layer set) must be
        // byte-identical no matter how mutations interleave.
        const std::string key =
            std::to_string(resp.version) + "/" + std::to_string(t);
        const std::string bytes = AnswerBytes(resp);
        std::lock_guard<std::mutex> lock(mu);
        const auto it = first.find(key);
        if (it == first.end()) {
          first.emplace(key, bytes);
        } else if (it->second != bytes) {
          mismatches.fetch_add(1);
        }
      }
    });
  }

  // Mutate on this thread while the queriers hammer the engine.
  Rng rng(27);
  const int kMutations = 24;
  for (int i = 0; i < kMutations; ++i) {
    SiteMutation mut;
    mut.layer = i % 2;
    ObjectSet& set = query.sets[static_cast<size_t>(mut.layer)];
    if (set.objects.size() > 6 && rng.NextBelow(3) == 0) {
      mut.kind = MutationKind::kDelete;
      mut.location = set.objects[rng.NextBelow(set.objects.size())].location;
    } else {
      mut.kind = MutationKind::kInsert;
      mut.location = {rng.Uniform(6, 94), rng.Uniform(6, 94)};
    }
    const ServeResponse applied = engine.Handle(
        MutationRequest("d", mut.kind, mut.layer, mut.location));
    ASSERT_EQ(applied.status, StatusCode::kOk)
        << "mutation " << i << ": " << applied.error;
    ApplyToQuery(&query, mut);
  }
  done.store(true);
  for (std::thread& t : queriers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(engine.metrics().mutations(),
            static_cast<uint64_t>(kMutations));

  // The final version's answers match a cold engine over the reference
  // query that tracked every mutation.
  QueryEngine cold;
  cold.RegisterDataset("d", query, kBounds);
  for (size_t t = 0; t < patterns.size(); ++t) {
    const EngineRequest req = SolveRequest("d", patterns[t]);
    const ServeResponse live = engine.Handle(req);
    const ServeResponse rebuilt = cold.Handle(req);
    ASSERT_EQ(live.status, StatusCode::kOk) << live.error;
    ASSERT_EQ(rebuilt.status, StatusCode::kOk) << rebuilt.error;
    EXPECT_EQ(live.version, static_cast<uint64_t>(kMutations) + 1);
    EXPECT_EQ(AnswerBytes(live), AnswerBytes(rebuilt));
  }
}

// ---------------------------------------------------------------------------
// Admission control

TEST(ServeUpdateAdmissionTest, QueueCostLimitShedsWithStructuredOverload) {
  QueryEngineOptions options;
  options.workers = 1;
  options.admission_cost_limit = 2;
  QueryEngine engine(options);
  engine.RegisterDataset("d", OrdinaryQuery({40, 36}, 28), kBounds);

  // A burst far beyond the queue budget: the worker can hold at most a
  // couple of cost units, so most of the burst must shed immediately.
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    EngineRequest req = SolveRequest("d");
    req.use_cache = false;  // keep each solve genuinely expensive
    futures.push_back(engine.HandleAsync(std::move(req)));
  }
  uint64_t ok = 0, shed = 0;
  for (std::future<ServeResponse>& f : futures) {
    const ServeResponse resp = f.get();
    if (resp.status == StatusCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status, StatusCode::kOverloaded) << resp.error;
      EXPECT_FALSE(resp.error.empty());
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);    // admitted work still completes
  EXPECT_GT(shed, 0u);  // overload is rejected early, not queued forever
  EXPECT_EQ(engine.metrics().shed(), shed);
}

TEST(ServeUpdateAdmissionTest, DelayBudgetShedsStaleQueueEntries) {
  QueryEngineOptions options;
  options.workers = 1;
  // Generous enough that the front of the burst is admitted (dispatch
  // latency is microseconds) but far below the time the single worker
  // needs to drain the tail, which must therefore shed at dequeue.
  options.admission_delay_budget_ms = 20.0;
  QueryEngine engine(options);
  engine.RegisterDataset("d", OrdinaryQuery({60, 50}, 29), kBounds);

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 24; ++i) {
    EngineRequest req = SolveRequest("d");
    req.use_cache = false;
    futures.push_back(engine.HandleAsync(std::move(req)));
  }
  uint64_t ok = 0, shed = 0;
  for (std::future<ServeResponse>& f : futures) {
    const ServeResponse resp = f.get();
    if (resp.status == StatusCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status, StatusCode::kOverloaded) << resp.error;
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(engine.metrics().shed(), shed);
}

}  // namespace
}  // namespace movd
