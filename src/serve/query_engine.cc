#include "serve/query_engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <utility>
#include <variant>

#include "audit/audit_query.h"
#include "audit/audit_update.h"
#include "core/overlap.h"
#include "query/constrained.h"
#include "query/diversify.h"
#include "query/skyline.h"
#include "query/whatif.h"
#include "storage/movd_file.h"
#include "trace/trace.h"
#include "util/stopwatch.h"

namespace movd {
namespace {

/// Weight-mode cache-key component: one char per weight function
/// ('m'ultiplicative / 'a'dditive), type function first.
std::string WeightTag(const MolqQuery& query) {
  const auto tag = [](WeightFunctionKind k) {
    return k == WeightFunctionKind::kMultiplicative ? 'm' : 'a';
  };
  std::string out(1, tag(query.type_function));
  for (size_t i = 0; i < query.sets.size(); ++i) {
    out += tag(query.ObjectFunction(i));
  }
  return out;
}

std::string LayersTag(const std::vector<int32_t>& layers) {
  std::string out;
  for (size_t i = 0; i < layers.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(layers[i]);
  }
  return out;
}

ServeResponse Invalid(const std::string& id, std::string why) {
  ServeResponse resp;
  resp.status = StatusCode::kInvalidArgument;
  resp.id = id;
  resp.error = std::move(why);
  return resp;
}

ServeResponse NotFound(const std::string& id, std::string why) {
  ServeResponse resp;
  resp.status = StatusCode::kNotFound;
  resp.id = id;
  resp.error = std::move(why);
  return resp;
}

/// Exact byte equality of two points (the DELETE-target match): the
/// protocol round-trips coordinates through decimal strings, so "the
/// object at x,y" means the object whose stored doubles are bit-identical
/// to the parsed ones — not merely numerically equal.
bool PointSameBits(const Point& a, const Point& b) {
  uint64_t ax = 0;
  uint64_t ay = 0;
  uint64_t bx = 0;
  uint64_t by = 0;
  std::memcpy(&ax, &a.x, sizeof(ax));
  std::memcpy(&ay, &a.y, sizeof(ay));
  std::memcpy(&bx, &b.x, sizeof(bx));
  std::memcpy(&by, &b.y, sizeof(by));
  return ax == bx && ay == by;
}

/// Cache-key component every artifact key shares: grid resolution, weighted
/// method, and the dataset's weight-function tag (see GetOverlay's comment
/// on why the method is part of the key).
std::string ArtifactKeySuffix(int resolution, WeightedMethod method,
                              const std::string& weight_tag) {
  return "/r" + std::to_string(resolution) +
         (method == WeightedMethod::kDenseGrid ? "/mdense" : "/madapt") +
         "/w" + weight_tag;
}

/// Parses the "<i>,<j>,..." layer segment of an artifact key starting at
/// `pos` and ending at the next '/' (whose position lands in `rest_pos`).
bool ParseKeyLayers(const std::string& key, size_t pos,
                    std::vector<int32_t>* layers, size_t* rest_pos) {
  layers->clear();
  const size_t end = key.find('/', pos);
  if (end == std::string::npos || end == pos) return false;
  int32_t cur = 0;
  bool any = false;
  for (size_t i = pos; i < end; ++i) {
    const char c = key[i];
    if (c == ',') {
      if (!any) return false;
      layers->push_back(cur);
      cur = 0;
      any = false;
    } else if (c >= '0' && c <= '9') {
      cur = cur * 10 + (c - '0');
      any = true;
    } else {
      return false;
    }
  }
  if (!any) return false;
  layers->push_back(cur);
  *rest_pos = end;
  return true;
}

/// FNV-1a over the constraint's vertex coordinates (double bit patterns,
/// with ring separators), hex-encoded: two requests share a clipped-overlay
/// artifact iff their constraint geometry is bit-identical.
std::string ConstraintHash(const QueryConstraint& constraint) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto mix_ring = [&](const Polygon& poly) {
    mix(poly.vertices().size());
    for (const Point& p : poly.vertices()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &p.x, sizeof(bits));
      mix(bits);
      std::memcpy(&bits, &p.y, sizeof(bits));
      mix(bits);
    }
  };
  mix_ring(constraint.boundary);
  for (const Polygon& exclusion : constraint.exclusions) mix_ring(exclusion);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

ServeAnswer AnswerFromCandidate(const SiteCandidate& c) {
  ServeAnswer answer;
  answer.location = c.location;
  answer.cost = c.cost;
  answer.group = c.group;
  answer.criteria = c.criteria;
  return answer;
}

ServeResponse AuditFailure(const std::string& id, const char* shape,
                           const AuditReport& report) {
  ServeResponse resp;
  resp.status = StatusCode::kInternal;
  resp.id = id;
  resp.error =
      std::string(shape) + " audit failed: " + report.Summary();
  return resp;
}

}  // namespace

QueryEngine::QueryEngine(const QueryEngineOptions& options)
    : options_(options),
      cache_(options.cache_bytes),
      pool_(ResolveThreads(options.workers)) {}

QueryEngine::~QueryEngine() { pool_.Wait(); }

void QueryEngine::RegisterDataset(const std::string& name, MolqQuery query,
                                  const Rect& world) {
  auto snap = std::make_shared<DatasetSnapshot>();
  snap->weight_tag = WeightTag(query);
  snap->query = std::move(query);
  snap->world = world;
  Dataset* ds = nullptr;
  {
    MutexLock lock(datasets_mu_);
    std::unique_ptr<Dataset>& slot = datasets_[name];
    if (slot == nullptr) slot = std::make_unique<Dataset>();
    ds = slot.get();
  }
  // A replacement is a mutation of sorts: take the locks in the mutation
  // order (mutate_mu before mu) and discard the incremental mirrors.
  MutexLock mutate_lock(ds->mutate_mu);
  ds->layer_state.clear();
  MutexLock lock(ds->mu);
  // Versions stay monotonic across re-registration so cached artifacts of
  // the replaced dataset can never collide with the fresh one's keys.
  snap->version = ds->snap == nullptr ? 1 : ds->snap->version + 1;
  ds->snap = std::move(snap);
}

std::shared_ptr<const DatasetSnapshot> QueryEngine::dataset_snapshot(
    const std::string& name) const {
  Dataset* ds = FindDataset(name);
  if (ds == nullptr) return nullptr;
  MutexLock lock(ds->mu);
  return ds->snap;
}

QueryEngine::Dataset* QueryEngine::FindDataset(const std::string& name) const {
  MutexLock lock(datasets_mu_);
  const auto it = datasets_.find(name);
  // Dataset nodes are never erased (re-registration reuses them), so the
  // pointer stays valid after the lock drops.
  return it == datasets_.end() ? nullptr : it->second.get();
}

ServeResponse QueryEngine::Handle(const EngineRequest& request) {
  Stopwatch watch;
  ServeResponse resp;
  if (const auto* mut = std::get_if<SiteMutation>(&request.op)) {
    resp = MutateInternal(request, *mut);
  } else {
    // The deadline budget starts now — on the thread actually serving the
    // request (HandleAsync workers call Handle on dequeue).
    const CancelToken token =
        request.deadline_ms > 0.0
            ? CancelToken::After(std::chrono::duration_cast<
                                 std::chrono::nanoseconds>(
                  std::chrono::duration<double, std::milli>(
                      request.deadline_ms)))
            : CancelToken();
    resp = SolveInternal(request, token);
    // Belt and braces for the "never a partial answer" contract: a non-OK
    // response carries no answers, whatever path produced it.
    if (resp.status != StatusCode::kOk) {
      resp.answers.clear();
      resp.sweep_answers.clear();
    }
  }
  resp.seconds = watch.ElapsedSeconds();
  metrics_.RecordRequest(resp.status, resp.seconds, resp.cache_hit);
  if (resp.status == StatusCode::kOk && resp.is_mutation) {
    metrics_.RecordMutation();
  }
  return resp;
}

std::future<ServeResponse> QueryEngine::HandleAsync(EngineRequest request) {
  const int64_t cost = request.cost_units < 1 ? 1 : request.cost_units;
  // Early shedding, on the submitting thread: reject before the request
  // ever occupies queue space when the queue is already past its cost
  // budget or the service-time EWMA predicts a hopeless wait.
  const int64_t queued = queued_cost_.load(std::memory_order_relaxed);
  std::string shed_why;
  if (options_.admission_cost_limit > 0 &&
      queued + cost > static_cast<int64_t>(options_.admission_cost_limit)) {
    shed_why = "admission queue full (" + std::to_string(queued) +
               " cost units queued, limit " +
               std::to_string(options_.admission_cost_limit) + ")";
  } else if (options_.admission_delay_budget_ms > 0.0) {
    const double unit_ms =
        static_cast<double>(ewma_unit_ns_.load(std::memory_order_relaxed)) *
        1e-6;
    const double predicted_ms = static_cast<double>(queued) * unit_ms;
    if (predicted_ms > options_.admission_delay_budget_ms) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "predicted queue delay %.1fms exceeds budget %.1fms",
                    predicted_ms, options_.admission_delay_budget_ms);
      shed_why = buf;
    }
  }
  if (!shed_why.empty()) {
    ServeResponse resp;
    resp.status = StatusCode::kOverloaded;
    resp.id = request.id;
    resp.error = std::move(shed_why);
    metrics_.RecordRequest(resp.status, 0.0, false);
    std::promise<ServeResponse> done;
    done.set_value(std::move(resp));
    return done.get_future();
  }
  queued_cost_.fetch_add(cost, std::memory_order_relaxed);
  auto task = std::make_shared<std::packaged_task<ServeResponse()>>(
      [this, request = std::move(request), cost, queue_watch = Stopwatch()] {
        queued_cost_.fetch_sub(cost, std::memory_order_relaxed);
        const double waited_ms = queue_watch.ElapsedMillis();
        // Late shedding, at dequeue: the prediction above is heuristic, so
        // a request whose ACTUAL wait blew the budget is still rejected —
        // serving an answer the client stopped waiting for helps nobody.
        if (options_.admission_delay_budget_ms > 0.0 &&
            waited_ms > options_.admission_delay_budget_ms) {
          ServeResponse resp;
          resp.status = StatusCode::kOverloaded;
          resp.id = request.id;
          char buf[96];
          std::snprintf(buf, sizeof(buf),
                        "queue delay %.1fms exceeded budget %.1fms",
                        waited_ms, options_.admission_delay_budget_ms);
          resp.error = buf;
          metrics_.RecordRequest(resp.status, waited_ms * 1e-3, false);
          return resp;
        }
        ServeResponse resp = Handle(request);
        // Fold this request's per-cost-unit service time into the EWMA the
        // early-shed predictor reads (relaxed: a heuristic, not a ledger).
        const auto cur = static_cast<uint64_t>(resp.seconds * 1e9 /
                                               static_cast<double>(cost));
        const uint64_t old = ewma_unit_ns_.load(std::memory_order_relaxed);
        ewma_unit_ns_.store(old == 0 ? cur : (7 * old + cur) / 8,
                            std::memory_order_relaxed);
        return resp;
      });
  std::future<ServeResponse> future = task->get_future();
  pool_.Submit([task] { (*task)(); });
  return future;
}

ServeResponse QueryEngine::MutateInternal(const EngineRequest& request,
                                          const SiteMutation& mut) {
  Dataset* node = FindDataset(request.dataset);
  if (node == nullptr) {
    return NotFound(request.id, "unknown dataset '" + request.dataset + "'");
  }
  if (!std::isfinite(mut.location.x) || !std::isfinite(mut.location.y)) {
    return Invalid(request.id, "mutation location must be finite");
  }
  // Serialize mutations on this dataset; queries keep reading the published
  // snapshot meanwhile. Lock order: mutate_mu before mu.
  MutexLock mutate_lock(node->mutate_mu);
  std::shared_ptr<const DatasetSnapshot> old_snap;
  {
    MutexLock lock(node->mu);
    old_snap = node->snap;
  }
  const auto n = static_cast<int32_t>(old_snap->query.sets.size());
  if (mut.layer < 0 || mut.layer >= n) {
    return Invalid(request.id, "layer " + std::to_string(mut.layer) +
                                   " out of range [0, " + std::to_string(n) +
                                   ")");
  }
  if (mut.kind == MutationKind::kInsert &&
      !old_snap->world.Contains(mut.location)) {
    return Invalid(request.id, "insert location outside the search space");
  }

  auto next = std::make_shared<DatasetSnapshot>(*old_snap);
  next->version = old_snap->version + 1;
  ObjectSet& set = next->query.sets[static_cast<size_t>(mut.layer)];
  int32_t deleted_object = -1;
  if (mut.kind == MutationKind::kInsert) {
    SpatialObject obj;
    obj.location = mut.location;
    set.objects.push_back(obj);
  } else {
    for (size_t i = 0; i < set.objects.size(); ++i) {
      if (PointSameBits(set.objects[i].location, mut.location)) {
        deleted_object = static_cast<int32_t>(i);
        break;
      }
    }
    if (deleted_object < 0) {
      return NotFound(request.id, "no object at the given location in layer " +
                                      std::to_string(mut.layer));
    }
    if (set.objects.size() == 1) {
      return Invalid(request.id, "cannot delete the last object of layer " +
                                     std::to_string(mut.layer));
    }
    set.objects.erase(set.objects.begin() + deleted_object);
  }

  ServeResponse resp;
  resp.id = request.id;
  resp.is_mutation = true;
  PatchArtifacts(request.dataset, *old_snap, *next, mut, deleted_object,
                 &node->layer_state[mut.layer], &resp.mutation);
  {
    MutexLock lock(node->mu);
    node->snap = next;
  }
  resp.snapshot = next;
  resp.version = next->version;
  return resp;
}

void QueryEngine::PatchArtifacts(
    const std::string& ds_name, const DatasetSnapshot& old_snap,
    const DatasetSnapshot& next_snap, const SiteMutation& mut,
    int32_t deleted_object, std::unique_ptr<OrdinaryLayerState>* state_slot,
    MutationStats* stats) {
  const int32_t layer = mut.layer;
  const int resolution = options_.exec.weighted_grid_resolution;
  const WeightedMethod method = options_.exec.weighted_method;
  const std::string suffix =
      ArtifactKeySuffix(resolution, method, old_snap.weight_tag);

  // Step 1: the mutated layer's new basic. Ordinary layers patch through
  // the incremental mirror; weighted layers (and an ordinary-ness flip in
  // either direction) take the full treatment — drop everything the layer
  // touches and let the next query rebuild.
  std::shared_ptr<const Movd> old_basic;
  std::shared_ptr<const Movd> new_basic;
  const bool ordinary = OrdinaryDiagramSuffices(old_snap.query, layer) &&
                        OrdinaryDiagramSuffices(next_snap.query, layer);
  if (ordinary) {
    if (*state_slot == nullptr) {
      *state_slot = std::make_unique<OrdinaryLayerState>(old_snap.query,
                                                         layer,
                                                         old_snap.world);
    }
    // Materialize the pre-mutation basic BEFORE applying: the overlay
    // patcher diffs old vs new cells, and the cache may not hold the old
    // basic (it could have been evicted).
    old_basic = std::make_shared<const Movd>((*state_slot)->Materialize());
    LayerPatchStats layer_stats;
    if ((*state_slot)->Apply(mut, &layer_stats)) {
      stats->recomputed_cells = layer_stats.recomputed_cells;
    } else {
      // The incremental deletion stalled (a cavity the ear-clipper could
      // not re-triangulate): restart the mirror from the mutated query.
      *state_slot = std::make_unique<OrdinaryLayerState>(next_snap.query,
                                                         layer,
                                                         next_snap.world);
      stats->full_rebuild = true;
    }
    new_basic = std::make_shared<const Movd>((*state_slot)->Materialize());
    if (stats->full_rebuild) {
      stats->recomputed_cells = new_basic->ovrs.size();
    }
    if (options_.exec.audit) {
      // Audit gate: certify the patched basic against a from-scratch
      // rebuild; on mismatch serve the rebuild and restart the mirror.
      Movd rebuilt =
          BuildBasicMovd(next_snap.query, layer, next_snap.world, resolution,
                         /*threads=*/1, /*audit=*/nullptr, method);
      if (!AuditPatchedMovd(*new_basic, rebuilt).ok()) {
        new_basic = std::make_shared<const Movd>(std::move(rebuilt));
        *state_slot = std::make_unique<OrdinaryLayerState>(next_snap.query,
                                                           layer,
                                                           next_snap.world);
        stats->full_rebuild = true;
      }
    }
  } else {
    state_slot->reset();
    stats->full_rebuild = true;
  }

  // Step 2: re-key pass over the cache. Every artifact of this dataset at
  // the old version is carried to the new version — aliased when the
  // mutation cannot have changed it, patched when the mutated layer is
  // involved — or counted dropped (it stays under its old key and ages out
  // through the LRU). The snapshot is ordered MRU -> LRU; inserting in
  // reverse (LRU first) preserves the recency order.
  const std::string old_tag = "/v" + std::to_string(old_snap.version);
  const std::string new_tag = "/v" + std::to_string(next_snap.version);
  const std::string basic_stem = "basic/" + ds_name + old_tag + "/L";
  const std::string ovl_stem = "ovl/" + ds_name + old_tag + "/L";
  const std::string cns_stem = "cns/" + ds_name + old_tag + "/L";
  const std::string mutated_basic_key =
      basic_stem + std::to_string(layer) + suffix;
  const auto renamed = [&](const std::string& key, size_t kind_len) {
    const size_t tag_pos = kind_len + ds_name.size();
    return key.substr(0, tag_pos) + new_tag +
           key.substr(tag_pos + old_tag.size());
  };

  // Old-version basics of the OTHER layers (identical across the two
  // versions), resolved lazily from the cache for the overlay patcher.
  std::map<int32_t, std::shared_ptr<const Movd>> others;
  const std::function<const Movd*(int32_t)> basic_of =
      [&](int32_t l) -> const Movd* {
    auto it = others.find(l);
    if (it == others.end()) {
      it = others
               .emplace(l, cache_.Lookup(basic_stem + std::to_string(l) +
                                         suffix))
               .first;
    }
    return it->second.get();
  };

  const auto snapshot = cache_.Snapshot();
  std::vector<int32_t> key_layers;
  for (size_t i = snapshot.size(); i-- > 0;) {
    const std::string& key = snapshot[i].first;
    const std::shared_ptr<const Movd>& artifact = snapshot[i].second;
    if (key.compare(0, basic_stem.size(), basic_stem) == 0) {
      size_t rest_pos = 0;
      if (!ParseKeyLayers(key, basic_stem.size(), &key_layers, &rest_pos) ||
          key_layers.size() != 1 || key.substr(rest_pos) != suffix) {
        continue;  // a different engine configuration's key; leave it be
      }
      if (key == mutated_basic_key) {
        if (new_basic != nullptr) {
          cache_.Insert(renamed(key, 6), new_basic);
          ++stats->patched_artifacts;
        } else {
          ++stats->dropped_artifacts;
        }
      } else {
        // Another layer's basic is untouched by this mutation: alias it
        // under the new version's key.
        cache_.Insert(renamed(key, 6), artifact);
        ++stats->patched_artifacts;
      }
      continue;
    }
    if (key.compare(0, ovl_stem.size(), ovl_stem) == 0) {
      size_t rest_pos = 0;
      if (!ParseKeyLayers(key, ovl_stem.size(), &key_layers, &rest_pos)) {
        continue;
      }
      const std::string rest = key.substr(rest_pos);
      BoundaryMode mode;
      if (rest == "/rrb" + suffix) {
        mode = BoundaryMode::kRealRegion;
      } else if (rest == "/mbrb" + suffix) {
        mode = BoundaryMode::kMbr;
      } else {
        continue;
      }
      const bool touched =
          std::find(key_layers.begin(), key_layers.end(), layer) !=
          key_layers.end();
      if (!touched) {
        cache_.Insert(renamed(key, 4), artifact);
        ++stats->patched_artifacts;
        continue;
      }
      if (old_basic == nullptr || new_basic == nullptr) {
        ++stats->dropped_artifacts;
        continue;
      }
      Movd patched;
      OverlayPatchStats overlay_stats;
      if (!PatchOverlay(*artifact, key_layers, layer, *old_basic, *new_basic,
                        basic_of, mode, next_snap.world, deleted_object,
                        &patched, &overlay_stats)) {
        ++stats->dropped_artifacts;
        continue;
      }
      auto result = std::make_shared<const Movd>(std::move(patched));
      if (options_.exec.audit) {
        // Audit gate: re-fold this overlay from the new basics and certify
        // the patch against it; on mismatch cache the rebuild instead.
        Movd acc = IdentityMovd(next_snap.world);
        bool have_all = true;
        for (const int32_t l : key_layers) {
          const Movd* basic = l == layer ? new_basic.get() : basic_of(l);
          if (basic == nullptr) {
            have_all = false;
            break;
          }
          acc = Overlap(acc, *basic, mode);
        }
        if (have_all) {
          CanonicalizeOvrOrder(&acc);
          if (!AuditPatchedMovd(*result, acc).ok()) {
            result = std::make_shared<const Movd>(std::move(acc));
          }
        }
      }
      cache_.Insert(renamed(key, 4), result);
      ++stats->patched_artifacts;
      continue;
    }
    if (key.compare(0, cns_stem.size(), cns_stem) == 0) {
      size_t rest_pos = 0;
      const std::string cns_rest = "/rrb" + suffix + "/c";
      if (!ParseKeyLayers(key, cns_stem.size(), &key_layers, &rest_pos) ||
          key.compare(rest_pos, cns_rest.size(), cns_rest) != 0) {
        continue;
      }
      if (std::find(key_layers.begin(), key_layers.end(), layer) !=
          key_layers.end()) {
        // The clip of a changed overlay: constraint clips are cheap to
        // re-derive relative to their hit rate, so drop rather than patch.
        ++stats->dropped_artifacts;
      } else {
        cache_.Insert(renamed(key, 4), artifact);
        ++stats->patched_artifacts;
      }
      continue;
    }
  }
}

ServeResponse QueryEngine::SolveInternal(const EngineRequest& request,
                                         const CancelToken& token) {
  Dataset* node = FindDataset(request.dataset);
  if (node == nullptr) {
    return Invalid(request.id, "unknown dataset '" + request.dataset + "'");
  }
  // Pin this request's snapshot: one immutable version for the whole
  // evaluation, so the answer is bit-identical under concurrent mutation.
  std::shared_ptr<const DatasetSnapshot> snap;
  {
    MutexLock lock(node->mu);
    snap = node->snap;
  }
  const DatasetSnapshot& ds = *snap;
  // The payload fields every shape reads, each from the one place it lives.
  // CONSTRAIN has no algorithm field: it is RRB-only.
  const MolqAlgorithm* algorithm_field = AlgorithmField(&request.op);
  const MolqAlgorithm algorithm =
      algorithm_field != nullptr ? *algorithm_field : MolqAlgorithm::kRrb;
  const size_t* topk_field = TopKField(&request.op);
  const size_t topk = topk_field != nullptr ? *topk_field : 1;
  const bool plain = std::holds_alternative<SolveSpec>(request.op);
  const auto* constrain = std::get_if<ConstrainSpec>(&request.op);
  const auto* what_if = std::get_if<WhatIfSpec>(&request.op);
  if (topk == 0) return Invalid(request.id, "k must be >= 1");
  if (!(request.epsilon > 0.0)) {
    return Invalid(request.id, "epsilon must be > 0");
  }
  const auto n = static_cast<int32_t>(ds.query.sets.size());
  // Normalize the layer selection: sorted, deduplicated, in range. Requests
  // naming the same layers in any order share one cache key.
  std::set<int32_t> layer_set;
  for (const int32_t layer : request.layers) {
    if (layer < 0 || layer >= n) {
      return Invalid(request.id, "layer " + std::to_string(layer) +
                                     " out of range [0, " +
                                     std::to_string(n) + ")");
    }
    layer_set.insert(layer);
  }
  if (request.layers.empty()) {
    for (int32_t layer = 0; layer < n; ++layer) layer_set.insert(layer);
  }
  if (layer_set.empty()) return Invalid(request.id, "no layers selected");
  const std::vector<int32_t> layers(layer_set.begin(), layer_set.end());

  ServeResponse resp;
  resp.id = request.id;
  resp.snapshot = snap;
  resp.version = ds.version;

  MolqOptions molq;
  molq.algorithm = algorithm;
  molq.epsilon = request.epsilon;
  molq.exec = request.exec;
  // The engine owns resolution (cache-key component) and cancellation
  // (deadline token); a request cannot override either.
  molq.exec.weighted_grid_resolution = options_.exec.weighted_grid_resolution;
  molq.exec.cancel = &token;
  // Request-level trace wins; otherwise the engine-wide sink (if any).
  if (molq.exec.trace == nullptr) molq.exec.trace = options_.exec.trace;
  // Either side may opt into the re-check validators.
  molq.exec.audit = molq.exec.audit || options_.exec.audit;
  TraceContextScope trace_scope(molq.exec.trace);
  TRACE_SPAN("serve_request");

  // Engine-level shape restrictions (the protocol parser enforces the same
  // rules, but the engine is also called directly by molq_cli and tests).
  if (!plain && algorithm == MolqAlgorithm::kSsc) {
    return Invalid(request.id,
                   "query-algebra shapes need a MOVD artifact (rrb|mbrb), "
                   "not ssc");
  }

  if (algorithm == MolqAlgorithm::kSsc) {
    if (topk != 1) {
      return Invalid(request.id, "SSC serves k=1 only; use rrb/mbrb");
    }
    // SSC enumerates raw combinations — no diagram artifacts to cache, so
    // it always runs cold over a sub-query of the selected layers.
    MolqQuery sub;
    sub.type_function = ds.query.type_function;
    for (const int32_t layer : layers) {
      sub.sets.push_back(ds.query.sets[layer]);
      sub.object_functions.push_back(
          ds.query.ObjectFunction(static_cast<size_t>(layer)));
    }
    const MolqResult r = SolveMolq(sub, ds.world, molq);
    if (r.status == MolqStatus::kCancelled) {
      resp.status = StatusCode::kDeadlineExceeded;
      resp.error = "deadline exceeded during SSC scan";
      return resp;
    }
    ServeAnswer answer;
    answer.location = r.location;
    answer.cost = r.cost;
    answer.group = r.group;
    // Map sub-query set indices back to dataset layer indices.
    for (PoiRef& poi : answer.group) {
      poi.set = layers[static_cast<size_t>(poi.set)];
    }
    resp.answers.push_back(std::move(answer));
    return resp;
  }

  // Shape-specific request validation, before any artifact work.
  if (constrain != nullptr) {
    const Status valid = ValidateConstraint(constrain->constraint);
    if (!valid.ok()) return Invalid(request.id, valid.message());
  }
  std::vector<WhatIfVector> vectors;
  if (what_if != nullptr) {
    if (what_if->sweep.empty()) {
      return Invalid(request.id, "what-if needs at least one sweep vector");
    }
    // Pad each per-layer sweep vector to a full-dataset WhatIfVector with
    // the identity adjustment on unselected sets, so evaluation runs on
    // the full query (where PoiRef::set is the dataset layer index).
    const double identity =
        ds.query.type_function == WeightFunctionKind::kMultiplicative ? 1.0
                                                                      : 0.0;
    vectors.reserve(what_if->sweep.size());
    for (const std::vector<double>& scales : what_if->sweep) {
      if (scales.size() != layers.size()) {
        return Invalid(request.id,
                       "sweep vector has " + std::to_string(scales.size()) +
                           " entries for " + std::to_string(layers.size()) +
                           " selected layers");
      }
      WhatIfVector v;
      v.scale.assign(ds.query.sets.size(), identity);
      for (size_t j = 0; j < layers.size(); ++j) {
        v.scale[static_cast<size_t>(layers[j])] = scales[j];
      }
      const Status valid = ValidateWhatIfVector(ds.query, v);
      if (!valid.ok()) return Invalid(request.id, valid.message());
      vectors.push_back(std::move(v));
    }
  }

  const BoundaryMode mode = algorithm == MolqAlgorithm::kMbrb
                                ? BoundaryMode::kMbr
                                : BoundaryMode::kRealRegion;
  bool overlay_hit = false;
  Stopwatch phase_watch;
  std::shared_ptr<const Movd> overlay;
  {
    TRACE_SPAN("serve_overlay");
    overlay = constrain != nullptr
                  ? GetClippedOverlay(ds, request.dataset, layers,
                                      constrain->constraint, request, token,
                                      &overlay_hit)
                  : GetOverlay(ds, request.dataset, layers, mode, request,
                               token, &overlay_hit);
  }
  const double overlay_seconds = phase_watch.ElapsedSeconds();
  resp.cache_hit = overlay_hit;
  if (overlay == nullptr) {
    resp.status = StatusCode::kDeadlineExceeded;
    resp.error = "deadline exceeded building the MOVD overlay";
    return resp;
  }
  // A clipped overlay may legitimately be empty — the constraint excluded
  // every candidate region — and answers as "infeasible" below. Every
  // other shape requires a non-empty artifact.
  if (overlay->ovrs.empty() && constrain == nullptr) {
    resp.status = StatusCode::kInternal;
    resp.error = "overlay produced an empty MOVD";
    return resp;
  }

  CandidateOptions candidate_options;
  candidate_options.epsilon = request.epsilon;
  candidate_options.exec = molq.exec;

  phase_watch = Stopwatch();
  {
    TRACE_SPAN("serve_optimize");
    if (plain) {
      const MolqResult top = TopKFromMovd(ds.query, *overlay, topk, molq);
      if (top.status == StatusCode::kCancelled) {
        resp.status = StatusCode::kDeadlineExceeded;
        resp.error = "deadline exceeded during optimization";
        return resp;
      }
      resp.answers.reserve(top.ranked.size());
      for (const RankedLocation& r : top.ranked) {
        ServeAnswer answer;
        answer.location = r.location;
        answer.cost = r.cost;
        answer.group = r.group;
        resp.answers.push_back(std::move(answer));
      }
    } else if (std::holds_alternative<SkylineSpec>(request.op)) {
      const SkylineResult r =
          SkylineFromMovd(ds.query, *overlay, candidate_options);
      if (r.status == StatusCode::kCancelled) {
        resp.status = StatusCode::kDeadlineExceeded;
        resp.error = "deadline exceeded during skyline evaluation";
        return resp;
      }
      if (molq.exec.audit) {
        const AuditReport report = AuditSkyline(ds.query, r);
        if (!report.ok()) return AuditFailure(request.id, "skyline", report);
      }
      resp.answers.reserve(r.skyline.size());
      for (const SiteCandidate& c : r.skyline) {
        resp.answers.push_back(AnswerFromCandidate(c));
      }
    } else if (const auto* diverse = std::get_if<DiverseSpec>(&request.op)) {
      const DiverseTopKResult r =
          DiverseTopKFromMovd(ds.query, *overlay, topk,
                              diverse->min_distance, candidate_options);
      if (r.status == StatusCode::kCancelled) {
        resp.status = StatusCode::kDeadlineExceeded;
        resp.error = "deadline exceeded during diversified top-k";
        return resp;
      }
      if (molq.exec.audit) {
        const AuditReport report =
            AuditDiverseTopK(ds.query, topk, diverse->min_distance, r);
        if (!report.ok()) {
          return AuditFailure(request.id, "diversified top-k", report);
        }
      }
      resp.answers.reserve(r.selected.size());
      for (const SiteCandidate& c : r.selected) {
        resp.answers.push_back(AnswerFromCandidate(c));
      }
    } else if (constrain != nullptr) {
      const ConstrainedMolqResult r =
          ConstrainedFromClippedMovd(ds.query, *overlay, candidate_options);
      if (r.status == StatusCode::kCancelled) {
        resp.status = StatusCode::kDeadlineExceeded;
        resp.error = "deadline exceeded during constrained optimization";
        return resp;
      }
      if (molq.exec.audit) {
        const AuditReport report = AuditConstrainedMolq(
            ds.query, constrain->constraint, ds.world, r);
        if (!report.ok()) {
          return AuditFailure(request.id, "constrained MOLQ", report);
        }
      }
      // Infeasible constraints answer OK with zero answers: the request
      // was well-formed; the feasible set just contains no candidate.
      if (r.feasible) resp.answers.push_back(AnswerFromCandidate(r.best));
    } else if (what_if != nullptr) {
      WhatIfOptions what_if_options;
      what_if_options.epsilon = request.epsilon;
      what_if_options.topk = topk;
      what_if_options.exec = molq.exec;
      const WhatIfSweepResult r =
          WhatIfSweepFromMovd(ds.query, *overlay, vectors, what_if_options);
      if (r.status == StatusCode::kCancelled) {
        resp.status = StatusCode::kDeadlineExceeded;
        resp.error = "deadline exceeded during what-if sweep";
        return resp;
      }
      if (molq.exec.audit) {
        const AuditReport report =
            AuditWhatIfSweep(ds.query, vectors, topk, r);
        if (!report.ok()) {
          return AuditFailure(request.id, "what-if sweep", report);
        }
      }
      resp.sweep_answers.reserve(r.per_vector.size());
      for (const std::vector<SiteCandidate>& ranking : r.per_vector) {
        std::vector<ServeAnswer> answers;
        answers.reserve(ranking.size());
        for (const SiteCandidate& c : ranking) {
          answers.push_back(AnswerFromCandidate(c));
        }
        resp.sweep_answers.push_back(std::move(answers));
      }
    }
  }
  const double optimize_seconds = phase_watch.ElapsedSeconds();
  metrics_.RecordPhases(overlay_seconds, optimize_seconds);
  return resp;
}

std::shared_ptr<const Movd> QueryEngine::GetOverlay(
    const DatasetSnapshot& ds, const std::string& ds_name,
    const std::vector<int32_t>& layers, BoundaryMode mode,
    const EngineRequest& request, const CancelToken& token,
    bool* overlay_hit) {
  *overlay_hit = false;
  // The weighted method changes the cover geometry (adaptive and dense
  // covers differ while answering identically), so cached diagrams built
  // under one method must never serve a configuration using the other.
  const std::string suffix =
      ArtifactKeySuffix(options_.exec.weighted_grid_resolution,
                        options_.exec.weighted_method, ds.weight_tag);
  // The snapshot version is part of every key: a mutation publishes a new
  // version, whose artifacts are patched in under new keys while queries
  // pinned to the old version keep hitting the old ones until they age out.
  const std::string version_tag = "/v" + std::to_string(ds.version);

  // One basic (single-layer) diagram; cached under a mode-independent key,
  // since basics carry both real regions and MBRs. The basic is built from
  // the FULL dataset query, so its PoiRef::set is the dataset layer index
  // and every layer-subset overlay can share it.
  const auto get_basic =
      [&](int32_t layer) -> std::shared_ptr<const Movd> {
    const auto build = [&] {
      return std::make_shared<const Movd>(BuildBasicMovd(
          ds.query, layer, ds.world, options_.exec.weighted_grid_resolution,
          request.exec.threads, /*audit=*/nullptr,
          options_.exec.weighted_method));
    };
    if (!request.use_cache) return build();
    const std::string key = "basic/" + ds_name + version_tag + "/L" +
                            std::to_string(layer) + suffix;
    return cache_.GetOrBuild(key, build, nullptr, token.deadline());
  };

  // The overlay fold starts from MOVD(∅) and folds the sorted layers
  // left-to-right (SolveMolq's OverlapAll instead starts with the first two
  // basic MOVDs), then canonicalises the OVR order (model/update_model.h)
  // so a patched overlay and a rebuilt one are byte-comparable. Downstream
  // optimizers are order-independent, so a served answer stays bit-identical
  // to a cold SolveMolq over the same layer sub-query.
  const auto build_overlay = [&]() -> std::shared_ptr<const Movd> {
    Movd acc = IdentityMovd(ds.world);
    for (const int32_t layer : layers) {
      if (token.Expired()) return nullptr;
      const std::shared_ptr<const Movd> basic = get_basic(layer);
      if (basic == nullptr) return nullptr;  // wait on a peer build timed out
      Movd next = Overlap(acc, *basic, mode, nullptr, &token);
      // A fired token means `next` may be truncated — discard it.
      if (token.Expired()) return nullptr;
      acc = std::move(next);
    }
    CanonicalizeOvrOrder(&acc);
    return std::make_shared<const Movd>(std::move(acc));
  };

  if (!request.use_cache) return build_overlay();
  const std::string key =
      "ovl/" + ds_name + version_tag + "/L" + LayersTag(layers) +
      (mode == BoundaryMode::kMbr ? "/mbrb" : "/rrb") + suffix;
  return cache_.GetOrBuild(key, build_overlay, overlay_hit, token.deadline());
}

std::shared_ptr<const Movd> QueryEngine::GetClippedOverlay(
    const DatasetSnapshot& ds, const std::string& ds_name,
    const std::vector<int32_t>& layers, const QueryConstraint& constraint,
    const EngineRequest& request, const CancelToken& token,
    bool* overlay_hit) {
  *overlay_hit = false;
  const auto build = [&]() -> std::shared_ptr<const Movd> {
    // The unclipped RRB overlay goes through the ordinary artifact path,
    // so constrained requests warm the same cache entries plain MOLQ uses
    // (and vice versa) — only the clip is constraint-specific.
    bool base_hit = false;
    const std::shared_ptr<const Movd> overlay =
        GetOverlay(ds, ds_name, layers, BoundaryMode::kRealRegion, request,
                   token, &base_hit);
    if (overlay == nullptr) return nullptr;
    const Region feasible = BuildFeasibleRegion(constraint, ds.world);
    if (token.Expired()) return nullptr;
    return std::make_shared<const Movd>(
        ClipMovdToFeasible(*overlay, feasible));
  };
  if (!request.use_cache) return build();
  const std::string key =
      "cns/" + ds_name + "/v" + std::to_string(ds.version) + "/L" +
      LayersTag(layers) + "/rrb" +
      ArtifactKeySuffix(options_.exec.weighted_grid_resolution,
                        options_.exec.weighted_method, ds.weight_tag) +
      "/c" + ConstraintHash(constraint);
  return cache_.GetOrBuild(key, build, overlay_hit, token.deadline());
}

Status QueryEngine::SaveCache(const std::string& dir) const {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir " + dir + ": " + std::strerror(errno));
  }
  const auto snapshot = cache_.Snapshot();
  // Manifest lines are written least- to most-recently used, so replaying
  // them in order through Insert() reconstructs the recency order too.
  std::ofstream manifest(dir + "/manifest.txt", std::ios::trunc);
  if (!manifest) {
    return Status::IoError("cannot write " + dir + "/manifest.txt");
  }
  for (size_t i = snapshot.size(); i-- > 0;) {
    const std::string file = "art_" + std::to_string(i) + ".movd";
    const Status saved = SaveMovd(dir + "/" + file, *snapshot[i].second);
    if (!saved.ok()) return saved;
    manifest << file << '\t' << snapshot[i].first << '\n';
  }
  manifest.flush();
  if (!manifest) {
    return Status::IoError("cannot write " + dir + "/manifest.txt");
  }
  return Status::Ok();
}

WarmLoadResult QueryEngine::LoadCache(const std::string& dir) {
  WarmLoadResult result;
  std::ifstream manifest(dir + "/manifest.txt");
  if (!manifest) {
    result.status = Status::IoError("cannot read " + dir + "/manifest.txt");
    return result;
  }
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos || tab == 0 || tab + 1 >= line.size()) {
      result.status = Status::DataLoss("malformed manifest line: " + line);
      return result;
    }
    const std::string file = line.substr(0, tab);
    const std::string key = line.substr(tab + 1);
    // LoadMovd validates the header and every record; a truncated or
    // corrupted artifact is skipped (colder cache), never inserted.
    StatusOr<Movd> movd = LoadMovd(dir + "/" + file);
    if (!movd.has_value()) {
      ++result.failed;
      continue;
    }
    cache_.Insert(key, std::make_shared<const Movd>(std::move(*movd)));
    ++result.loaded;
  }
  return result;
}

}  // namespace movd
