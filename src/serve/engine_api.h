#ifndef MOVD_SERVE_ENGINE_API_H_
#define MOVD_SERVE_ENGINE_API_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/molq.h"
#include "model/query_model.h"
#include "model/update_model.h"
#include "util/exec_options.h"
#include "util/status.h"

namespace movd {

/// The typed serving API (DESIGN.md §15). Every front end — the line
/// protocol, the typed client library, molq_cli — builds one
/// `EngineRequest` and hands it to QueryEngine::Handle/HandleAsync, so
/// parsing, admission control, and metrics all hang off one surface. The
/// per-verb payload is a std::variant over small spec structs wrapping the
/// query-algebra model vocabulary (model/query_model.h) and the mutation
/// model (model/update_model.h): a verb carries exactly the fields it
/// accepts, and the engine reads each of them from the payload directly.

/// One immutable version of a registered dataset (DESIGN.md §14). Every
/// request pins exactly one snapshot for its whole evaluation, so its
/// answer is bit-identical under concurrent mutation; a mutation copies
/// the current snapshot, applies itself, and publishes the copy as
/// version + 1. Snapshots are shared out as shared_ptr<const> and never
/// mutated after publication.
struct DatasetSnapshot {
  uint64_t version = 0;    ///< monotonic per dataset, starting at 1
  MolqQuery query;         ///< the object sets at this version
  Rect world;              ///< search space (fixed across versions)
  std::string weight_tag;  ///< weight-mode component of cache keys
};

/// Counters for one applied mutation (the body of an INSERT/DELETE
/// response).
struct MutationStats {
  size_t recomputed_cells = 0;   ///< layer cells rebuilt by the patch
  size_t patched_artifacts = 0;  ///< cached artifacts patched in place
  size_t dropped_artifacts = 0;  ///< cached artifacts invalidated instead
  bool full_rebuild = false;     ///< incremental path unavailable/stalled
};

/// One ranked answer: the location, its cost, and the winning object
/// combination (PoiRef::set is the DATASET layer index).
struct ServeAnswer {
  Point location;
  double cost = 0.0;
  std::vector<PoiRef> group;
  /// Per-member criteria vector (skyline/diverse/constrained/what-if
  /// answers); empty for plain MOLQ, and omitted from the JSON then, so
  /// MOLQ response bytes are unchanged by the query-algebra shapes.
  std::vector<double> criteria;
};

/// The engine's reply to one request.
struct ServeResponse {
  StatusCode status = StatusCode::kOk;
  std::string id = "-";
  std::string error;                 ///< human-readable detail on non-kOk
  std::vector<ServeAnswer> answers;  ///< ascending by cost; empty on error
  /// WHATIF only: one ranking per sweep vector, in request order
  /// (`answers` stays empty — a sweep has no single answer list).
  std::vector<std::vector<ServeAnswer>> sweep_answers;
  bool cache_hit = false;  ///< overlay artifact came straight from cache
  double seconds = 0.0;    ///< service time (solve, excluding queue wait)
  /// The dataset snapshot this response was computed against (set on OK
  /// responses): the version a query pinned, or the version a mutation
  /// published. Response formatting resolves group refs through it, so a
  /// response never races a concurrent mutation.
  std::shared_ptr<const DatasetSnapshot> snapshot;
  uint64_t version = 0;      ///< snapshot->version (0 when no snapshot)
  bool is_mutation = false;  ///< response body is mutation stats, not answers
  MutationStats mutation;    ///< filled for mutation responses
};

/// ---- Typed per-verb request payloads -----------------------------------
///
/// One small spec struct per verb, each carrying only the fields its verb
/// accepts (the registry's allowed_args mask and these structs stay in
/// lockstep — a field absent here cannot be parsed, set, or routed).

/// SOLVE: top-k optimal locations.
struct SolveSpec {
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
  size_t topk = 1;
};

/// SKYLINE: Pareto-optimal candidate sites (rrb|mbrb).
struct SkylineSpec {
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
};

/// DIVERSE: top-k with a minimum pairwise distance (rrb|mbrb).
struct DiverseSpec {
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
  size_t topk = 1;
  double min_distance = 0.0;
};

/// CONSTRAIN: optimum inside a polygon, minus exclusions. RRB only (the
/// clipper needs real regions), so there is no algorithm field to set.
struct ConstrainSpec {
  QueryConstraint constraint;
};

/// WHATIF: batched top-k rankings under scaled type weights.
struct WhatIfSpec {
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
  size_t topk = 1;
  /// One scale vector per sweep entry, each with exactly one entry per
  /// selected layer (ascending layer order). The engine pads them to
  /// full-dataset vectors with the identity adjustment.
  std::vector<std::vector<double>> sweep;
};

/// The per-verb payload: one alternative per non-control verb. Mutations
/// (INSERT/DELETE) ride the model's own SiteMutation directly and take the
/// engine's mutation path instead of the solver.
using EngineOp = std::variant<SolveSpec, SkylineSpec, DiverseSpec,
                              ConstrainSpec, WhatIfSpec, SiteMutation>;

/// The payload's `algorithm` / `topk` field, or null when its alternative
/// has none (CONSTRAIN and the mutations have no algorithm; SKYLINE,
/// CONSTRAIN and the mutations have no k). `op` may point to a const or a
/// mutable EngineOp; the field pointer has the same constness.
template <typename Op>
auto* AlgorithmField(Op* op) {
  using Field = std::conditional_t<std::is_const_v<Op>, const MolqAlgorithm,
                                   MolqAlgorithm>;
  return std::visit(
      [](auto& spec) -> Field* {
        if constexpr (requires { spec.algorithm; }) {
          return &spec.algorithm;
        } else {
          return nullptr;
        }
      },
      *op);
}

template <typename Op>
auto* TopKField(Op* op) {
  using Field = std::conditional_t<std::is_const_v<Op>, const size_t, size_t>;
  return std::visit(
      [](auto& spec) -> Field* {
        if constexpr (requires { spec.topk; }) {
          return &spec.topk;
        } else {
          return nullptr;
        }
      },
      *op);
}

/// One typed request: the envelope every verb shares plus the per-verb
/// payload. This is what front ends build and QueryEngine::Handle takes.
struct EngineRequest {
  std::string id = "-";         ///< client-chosen id, echoed in the response
  std::string dataset;          ///< registered dataset name
  std::vector<int32_t> layers;  ///< dataset layer indices; empty = all
  double epsilon = 1e-3;
  /// Per-request execution knobs (the same ExecOptions the core pipeline
  /// takes). exec.threads is per-request pipeline parallelism — the answer
  /// is bit-identical for every value. exec.trace (when non-null) traces
  /// this request. exec.cancel and exec.weighted_grid_resolution are
  /// overwritten by the engine (deadline token / engine-wide resolution).
  ExecOptions exec;
  /// Deadline budget in milliseconds, measured from the moment the engine
  /// picks the request up (Handle entry / queue dequeue). <= 0 means none.
  /// A fired deadline yields kDeadlineExceeded with no answer — never a
  /// partial one.
  double deadline_ms = 0.0;
  /// When false the request bypasses the artifact cache entirely (cold
  /// rebuild; used by the load generator to measure the cold path through
  /// the same engine).
  bool use_cache = true;
  /// Admission-control cost class, set by the protocol parser from the
  /// verb registry (queries 1, mutations heavier). Clamped to >= 1.
  int cost_units = 1;
  /// The per-verb payload.
  EngineOp op;
};

/// Outcome of a warm-start cache load.
struct WarmLoadResult {
  size_t loaded = 0;  ///< artifacts inserted into the cache
  size_t failed = 0;  ///< artifacts skipped (corrupt/truncated/missing)
  Status status;      ///< non-OK when the manifest itself was bad
};

}  // namespace movd

#endif  // MOVD_SERVE_ENGINE_API_H_
