#ifndef MOVD_SERVE_PROTOCOL_H_
#define MOVD_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/engine_api.h"
#include "util/status.h"

namespace movd {

/// The movd_serve line protocol (one request per line, one response line
/// per request; UTF-8, '\n'-terminated, no binary framing):
///
///   SOLVE id=<tok> dataset=<name> [layers=0,2] [algo=ssc|rrb|mbrb]
///         [k=1] [epsilon=1e-3] [deadline_ms=0] [threads=1] [cache=0|1]
///   SKYLINE   id= dataset= [layers=] [algo=rrb|mbrb] [epsilon=] ...
///   DIVERSE   id= dataset= k=<n> min_dist=<d> [layers=] [algo=rrb|mbrb]
///             ...
///   CONSTRAIN id= dataset= [boundary=<poly>] [exclude=<poly>]...
///             [layers=] [epsilon=] ...            (RRB only; at least one
///             of boundary=/exclude= required; exclude= may repeat)
///   WHATIF    id= dataset= sweep=<v>|<v>|... [k=1] [layers=] ...
///   INSERT    id= dataset= layer=<i> x=<f> y=<f>        (protocol v2)
///   DELETE    id= dataset= layer=<i> x=<f> y=<f>        (protocol v2)
///   STATS            -> OK - <metrics json>
///   HELP             -> OK - <verb registry json>        (protocol v2)
///   PING             -> OK - pong
///   QUIT             -> closes this connection
///   SHUTDOWN         -> stops the whole server
///
/// <poly> is "x,y;x,y;x,y..." (>= 3 CCW vertices); <v> is one
/// comma-separated scale factor per selected layer. The query-shape verbs
/// share SOLVE's common keys (minus algo restrictions above and k, which
/// SKYLINE/CONSTRAIN reject). Every non-control verb parses to
/// ServeVerb::kSolve and an EngineRequest whose EngineOp alternative names
/// the verb — the serving loop treats every shape alike. INSERT/DELETE
/// parse to a SiteMutation payload: a mutation rides the same dispatch
/// (and the same admission control) as a query, it just takes the
/// engine's mutation path instead of the solver.
///
/// Every verb is one row of VerbRegistry() below; parsing, argument
/// validation, error messages, HELP output, and movd_loadgen's --mix
/// vocabulary all derive from that table, so adding a verb is a one-row
/// change.
///
/// SOLVE/SKYLINE/DIVERSE/CONSTRAIN responses:
///   OK <id> {"answers":[...],"cache_hit":...,"version":...,"seconds":...}
/// WHATIF responses:
///   OK <id> {"sweeps":[[...],...],"cache_hit":...,"version":...,
///            "seconds":...}
/// INSERT/DELETE responses:
///   OK <id> {"version":...,"recomputed_cells":...,
///            "patched_artifacts":...,"dropped_artifacts":...,
///            "seconds":...}
/// errors:
///   ERR <id> <STATUS> <detail...>        (status per StatusCodeName;
///   unknown verbs answer UNSUPPORTED_VERB, shed requests OVERLOADED)
///
/// "version" is the dataset snapshot version the response was computed
/// against: queries pin one immutable snapshot for their whole solve, so
/// answers are bit-identical under concurrent mutation, and a mutation
/// response names the snapshot it published.
enum class ServeVerb {
  kSolve,
  kStats,
  kHelp,
  kPing,
  kQuit,
  kShutdown,
};

/// Version of the line protocol this build speaks. v1: the query verbs.
/// v2: INSERT/DELETE mutations, HELP, the "version" response field, and
/// UNSUPPORTED_VERB for unknown verbs. v3 added a rect= routing hint for
/// a sharded server; it went away with that server (rect= is now an
/// unknown argument), and the version stays 3 so it never goes backwards.
inline constexpr int kServeProtocolVersion = 3;

/// Argument keys a verb may take, as bits (VerbDescriptor::allowed_args /
/// required_args / required_any are masks of these).
enum ServeArg : uint32_t {
  kArgId = 1u << 0,
  kArgDataset = 1u << 1,
  kArgLayers = 1u << 2,
  kArgAlgo = 1u << 3,
  kArgK = 1u << 4,
  kArgEpsilon = 1u << 5,
  kArgDeadlineMs = 1u << 6,
  kArgThreads = 1u << 7,
  kArgCache = 1u << 8,
  kArgMinDist = 1u << 9,
  kArgBoundary = 1u << 10,
  kArgExclude = 1u << 11,
  kArgSweep = 1u << 12,
  kArgLayer = 1u << 13,
  kArgX = 1u << 14,
  kArgY = 1u << 15,
};

/// Capability flags of a verb.
enum ServeVerbCaps : uint32_t {
  /// Mutates a dataset and publishes a new snapshot version (INSERT,
  /// DELETE). Parsed into a SiteMutation payload.
  kCapMutation = 1u << 0,
  /// Needs a MOVD overlay artifact, so algo=ssc is rejected (every
  /// query-algebra shape; plain SOLVE can fall back to the SSC scan).
  kCapRequiresOverlay = 1u << 1,
  /// Zero-argument control verb handled by the serving loop itself
  /// (STATS, HELP, PING, QUIT, SHUTDOWN); never reaches the engine.
  kCapControl = 1u << 2,
};

/// One row of the verb registry: everything the protocol knows about a
/// verb. Parsing, per-verb argument validation, structured error
/// messages, HELP output, and the load generator's --mix vocabulary all
/// derive from these rows.
struct VerbDescriptor {
  const char* name;        ///< wire keyword, upper-case ("SOLVE")
  int since_version;       ///< protocol version that introduced the verb
  ServeVerb verb;          ///< dispatch class for the serving loop
  /// The payload a request of this verb starts from: the verb's EngineOp
  /// alternative, default-constructed (a SiteMutation carries its kind).
  /// The parser writes each argument into it. Unused by control verbs.
  EngineOp op;
  uint32_t caps;           ///< ServeVerbCaps bits
  uint32_t allowed_args;   ///< ServeArg bits the verb accepts
  uint32_t required_args;  ///< ServeArg bits that must all be present
  uint32_t required_any;   ///< at least one of these bits must be present
  int cost_units;          ///< admission-control cost class
  const char* summary;     ///< one-line description for HELP
};

/// The verb table, in HELP display order. One row per verb; append a row
/// to add a verb.
const std::vector<VerbDescriptor>& VerbRegistry();

/// Registry lookup by upper-cased wire keyword; null when unknown.
const VerbDescriptor* FindVerb(const std::string& upper_name);

/// The HELP response body: {"protocol_version": ..., "verbs": [...]}
/// derived entirely from VerbRegistry().
std::string HelpJson();

/// Parses one request line into the typed API form. On success fills
/// `verb` (and, for solve-class verbs including mutations, `request` —
/// the envelope plus the registry row's EngineOp alternative, with every
/// argument written straight into the field it sets) and returns OK; on
/// failure returns kInvalidArgument (malformed arguments) or
/// kUnsupportedVerb (a verb not in the registry) with the problem in the
/// status message. Verbs are case-insensitive; arguments are
/// space-separated key=value pairs and unknown keys are rejected (a
/// misspelled option must not silently fall back to a default), as are
/// integers outside the range of the field they set.
Status ParseRequest(const std::string& line, ServeVerb* verb,
                    EngineRequest* request);

/// Formats a typed request as one wire line (no trailing newline) — the
/// inverse of ParseRequest, and what the typed client library
/// (serve/client.h) sends. Payload keys come from the EngineOp
/// alternative (which holds only its verb's fields), envelope keys are
/// gated by the verb's registry row (a key the registry does not allow is
/// never emitted), and doubles print with %.17g, so
/// ParseRequest(FormatRequestLine(r))
/// rebuilds `r` exactly for any request that satisfies its verb's
/// requirements (e.g. a CONSTRAIN with a boundary or an exclusion).
std::string FormatRequestLine(const EngineRequest& request);

/// Parses a "x,y;x,y;x,y..." polygon spec (>= 3 vertices, finite doubles)
/// into a CCW Polygon. Orientation/area checks are NOT applied here — the
/// engine runs ValidateConstraint so protocol parsing and constraint
/// semantics stay separable. Shared with molq_cli --allow/--exclude.
Status ParsePolygonSpec(const std::string& spec, Polygon* out);

/// Parses a "s,s,...|s,s,...|..." sweep spec: '|' separates vectors, ','
/// separates per-layer scale factors. Finiteness/positivity are checked by
/// the engine against the dataset's weight functions. Shared with
/// molq_cli whatif.
Status ParseSweepSpec(const std::string& spec,
                      std::vector<std::vector<double>>* out);

/// One answer as a JSON object — the serializer shared by the server's
/// SOLVE responses and molq_cli --json, so both fronts emit byte-identical
/// records: {"location": [x, y], "cost": c, "group": [{"set": <name>,
/// "index": i, "at": [x, y]}, ...]}. `query` resolves group refs to set
/// names and object locations; it must be the query the answer was
/// computed against.
std::string AnswerJson(const MolqQuery& query, const ServeAnswer& answer);

/// The body of an OK SOLVE response: {"answers": [...], "cache_hit": ...,
/// "version": ..., "seconds": ...}. With include_timing=false the
/// cache_hit/version/seconds tail is omitted, leaving only deterministic
/// answer bytes — molq_cli --json uses this so its stdout is
/// byte-identical run to run (and with or without --trace), which
/// scripted diffs rely on.
std::string ResponseJson(const MolqQuery& query, const ServeResponse& resp,
                         bool include_timing = true);

/// Formats one full response line (without the trailing newline):
/// "OK <id> <json>" on success, "ERR <id> <STATUS> <detail>" otherwise.
/// `query` may be null for non-kOk responses and for mutation responses
/// (neither has answers to resolve); use the response's pinned snapshot
/// query otherwise.
std::string FormatResponseLine(const MolqQuery* query,
                               const ServeResponse& resp);

}  // namespace movd

#endif  // MOVD_SERVE_PROTOCOL_H_
