// movd_loadgen — closed-loop load generator for movd_serve.
//
//   movd_loadgen --socket=/tmp/movd.sock [--clients=4] [--duration_s=5]
//       [--requests=0] [--dataset=synthetic] [--dataset_layers=3]
//       [--algo=rrb] [--k=1] [--epsilon=1e-3] [--deadline_ms=0]
//       [--threads=1] [--cache=1] [--seed=1] [--check=1]
//       [--mix=solve:8,skyline:1,insert:2,delete:1]
//       [--world=10000] [--min_dist=0] [--require_cache_hits] [--shutdown]
//
// Spawns `--clients` connections; each runs a closed loop (send one SOLVE,
// wait for the answer, repeat) for `--duration_s` seconds (or `--requests`
// requests each, whichever first), drawing layer subsets of
// [0, --dataset_layers) from a seeded deterministic pattern pool so
// concurrent clients overlap on the same cached artifacts. Reports
// throughput, latency percentiles and the server's cache statistics, and
// (with --check, default on) verifies that every response for the same
// (verb, layers, algo, k, snapshot version) pattern is byte-identical —
// the serving determinism contract. Keying the check by the "version"
// field of each response makes it sound under concurrent mutation:
// queries pin an immutable snapshot, so two answers may differ only when
// their versions differ.
//
// Requests ride the typed client library (serve/client.h): each loop
// iteration builds an EngineRequest — the same typed form an in-process
// QueryEngine::Handle takes — and ServeClient::Call puts it on the wire
// and parses the response back into a structured ClientResponse. No
// protocol strings are assembled here; the wire format lives entirely in
// serve/protocol.cc, on both sides of the socket.
//
// --mix=verb:weight,... turns on mixed-workload mode: each request draws
// its verb from the weighted pool. The vocabulary is derived from the
// serve protocol's verb registry (every non-control verb, lower-cased),
// so a verb added to the registry is immediately mixable here. Query
// verbs interleave the query-algebra shapes with plain MOLQ solves
// against the same cached artifacts; the mutation verbs (insert, delete)
// exercise live updates: each INSERT places a deterministic
// client-unique point on a fresh grid cell (never colliding with dataset
// objects or other clients), and each DELETE pops that client's own most
// recent insert (falling back to an INSERT while the stack is empty), so
// deletions always target points the dataset really holds. The report
// grows a per-verb latency histogram. CONSTRAIN requests use a centered
// box covering half of [0, --world)^2 as the boundary; DIVERSE uses --k
// and --min_dist (default world/100); WHATIF sweeps two fixed weight
// vectors per layer pattern. All shapes are deterministic, so --check
// applies to every query verb (mutations are excluded: their responses
// are intentionally one-of-a-kind).
//
// Exit status is non-zero on connection failures, protocol errors,
// determinism mismatches, or (with --require_cache_hits) a cache that
// never hit. DEADLINE_EXCEEDED responses are counted but are not failures
// when --deadline_ms is set (they are the expected outcome of a tight
// budget), and OVERLOADED responses are counted but never failures (they
// are the admission controller doing its job; see DESIGN.md §14).

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "serve/client.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace movd;

/// One verb the mixed-workload mode can draw: a registry row plus its
/// lower-cased --mix spelling.
struct MixVerb {
  const VerbDescriptor* desc;
  std::string lower;
};

/// The --mix vocabulary, derived from the serve protocol's verb registry:
/// every non-control verb, in registry order. Index 0 is SOLVE (the
/// registry lists it first), which is also the default single-verb mix.
std::vector<MixVerb> MixableVerbs() {
  std::vector<MixVerb> verbs;
  for (const VerbDescriptor& d : VerbRegistry()) {
    if ((d.caps & kCapControl) != 0) continue;
    MixVerb v;
    v.desc = &d;
    v.lower = d.name;
    std::transform(v.lower.begin(), v.lower.end(), v.lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    verbs.push_back(std::move(v));
  }
  return verbs;
}

std::string JoinVerbNames(const std::vector<MixVerb>& verbs) {
  std::string out;
  for (const MixVerb& v : verbs) {
    if (!out.empty()) out += "|";
    out += v.lower;
  }
  return out;
}

struct ClientStats {
  uint64_t requests = 0;
  uint64_t errors = 0;             ///< ERR responses other than the two below
  uint64_t deadline_exceeded = 0;  ///< ERR ... DEADLINE_EXCEEDED responses
  uint64_t overloaded = 0;         ///< ERR ... OVERLOADED (admission shed)
  uint64_t mutations_ok = 0;       ///< OK responses to INSERT/DELETE
  bool connection_ok = true;
  std::vector<double> latencies_ms;
  /// Mixed-workload mode: latencies split per request verb (indexed like
  /// the MixableVerbs() vector).
  std::vector<std::vector<double>> verb_latencies_ms;
};

std::mutex g_check_mu;
std::map<std::string, std::string> g_first_answer;  // pattern -> answers json
std::atomic<uint64_t> g_mismatches{0};

/// One layer subset: the ascending index list plus its "0,2" spelling
/// (the determinism-check map key component).
struct LayerPattern {
  std::string key;
  std::vector<int32_t> layers;
};

/// Deterministic pattern pool: every non-empty subset of [0, layers),
/// capped at 31 patterns for wide datasets.
std::vector<LayerPattern> PatternPool(int layers) {
  std::vector<LayerPattern> pool;
  const uint32_t masks = layers >= 31 ? 0x7fffffffu
                                      : ((1u << layers) - 1u);
  for (uint32_t mask = 1; mask <= masks && pool.size() < 31; ++mask) {
    LayerPattern pattern;
    for (int i = 0; i < layers; ++i) {
      if ((mask & (1u << i)) == 0) continue;
      if (!pattern.key.empty()) pattern.key += ",";
      pattern.key += std::to_string(i);
      pattern.layers.push_back(i);
    }
    pool.push_back(std::move(pattern));
  }
  return pool;
}

struct LoadConfig {
  std::string socket;
  std::string dataset;
  std::string algo;  ///< wire spelling, kept for the check-map key
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
  int64_t k = 1;
  double epsilon = 1e-3;
  double deadline_ms = 0.0;
  int64_t threads = 1;
  bool cache = true;
  double duration_s = 5.0;
  uint64_t requests_cap = 0;  // 0 = duration only
  uint64_t seed = 1;
  bool check = true;
  int dataset_layers = 3;
  double world = 10000.0;
  std::vector<LayerPattern> patterns;
  /// Mixed-workload mode: the registry-derived verb pool with per-verb
  /// draw weights (all on verbs[0] == solve when --mix is absent).
  std::vector<MixVerb> verbs;
  std::vector<int> mix_weights;
  int mix_total = 1;
  double min_dist = 0.0;
  QueryConstraint constraint;  ///< CONSTRAIN boundary polygon
};

/// Parses "--mix=solve:8,skyline:1,..." into per-verb weights over the
/// registry-derived pool. Unlisted verbs get weight 0; at least one
/// weight must be positive.
bool ParseMix(const std::string& spec, const std::vector<MixVerb>& verbs,
              std::vector<int>* weights) {
  weights->assign(verbs.size(), 0);
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t colon = entry.find(':');
    if (colon == std::string::npos) return false;
    const std::string name = entry.substr(0, colon);
    const int weight = std::atoi(entry.c_str() + colon + 1);
    if (weight <= 0) return false;
    int verb = -1;
    for (size_t v = 0; v < verbs.size(); ++v) {
      if (name == verbs[v].lower) verb = static_cast<int>(v);
    }
    if (verb < 0) return false;
    (*weights)[static_cast<size_t>(verb)] += weight;
  }
  for (const int w : *weights) {
    if (w > 0) return true;
  }
  return false;
}

/// Two fixed WHATIF weight vectors for a `layer_count`-layer pattern: the
/// identity sweep and an alternating 1.5/0.5 scaling — deterministic, so
/// --check can compare responses across clients.
std::vector<std::vector<double>> SweepVectors(size_t layer_count) {
  std::vector<double> identity(layer_count, 1.0);
  std::vector<double> skewed(layer_count);
  for (size_t i = 0; i < layer_count; ++i) {
    skewed[i] = (i % 2 == 0) ? 1.5 : 0.5;
  }
  return {std::move(identity), std::move(skewed)};
}

/// One mutation site. INSERT sends these coordinates; the matching DELETE
/// re-sends the exact same doubles (FormatRequestLine prints them with
/// round-trip precision), so the server parses bit-identical values and
/// the deletion finds the inserted object.
struct MutationSite {
  int layer = 0;
  double x = 0.0;
  double y = 0.0;
};

/// A deterministic, globally unique insertion point for mutation number
/// `seq` of client `client`: cell (u mod P, u div P) of a P×P grid over
/// [0, world)^2, with u = client * 2^20 + seq injective across the run.
/// Grid-cell centers never collide with each other, and (being coarse
/// odd fractions of world) never with the continuous pseudo-random
/// dataset coordinates, so every INSERT adds a genuinely new site and
/// DELETE removes exactly what this client added.
MutationSite MakeMutationSite(int client, uint64_t seq, int layers,
                              double world) {
  static const uint64_t kGrid = 99991;  // prime; kGrid^2 >> any run length
  const uint64_t u = (static_cast<uint64_t>(client) << 20) + seq;
  MutationSite site;
  site.layer = static_cast<int>(seq % static_cast<uint64_t>(layers));
  site.x = world * ((static_cast<double>(u % kGrid) + 0.5) /
                    static_cast<double>(kGrid));
  site.y = world * ((static_cast<double>((u / kGrid) % kGrid) + 0.5) /
                    static_cast<double>(kGrid));
  return site;
}

/// One typed request for the verb at `verb_index` against the given layer
/// pattern (query verbs) or mutation site (INSERT/DELETE). Which envelope
/// fields a verb gets follows its registry row's allowed_args mask, so
/// this stays in lockstep with the protocol: a field the registry does
/// not allow is left at its default and never reaches the wire.
EngineRequest BuildRequest(const LoadConfig& cfg, size_t verb_index,
                           int client, uint64_t n,
                           const LayerPattern& pattern,
                           const MutationSite& site) {
  const VerbDescriptor& desc = *cfg.verbs[verb_index].desc;
  EngineRequest request;
  char id[64];
  std::snprintf(id, sizeof(id), "c%d-%llu", client,
                static_cast<unsigned long long>(n));
  request.id = id;
  request.dataset = cfg.dataset;
  request.op = desc.op;
  if (auto* mutation = std::get_if<SiteMutation>(&request.op)) {
    mutation->layer = site.layer;
    mutation->location = Point{site.x, site.y};
    return request;
  }
  if ((desc.allowed_args & kArgLayers) != 0) {
    request.layers = pattern.layers;
  }
  request.epsilon = cfg.epsilon;
  request.exec.threads = static_cast<int>(cfg.threads);
  request.use_cache = cfg.cache;
  if (cfg.deadline_ms > 0.0 && (desc.allowed_args & kArgDeadlineMs) != 0) {
    request.deadline_ms = cfg.deadline_ms;
  }
  if (MolqAlgorithm* algorithm = AlgorithmField(&request.op)) {
    *algorithm = cfg.algorithm;
  }
  if (size_t* topk = TopKField(&request.op)) {
    *topk = static_cast<size_t>(cfg.k);
  }
  if (auto* diverse = std::get_if<DiverseSpec>(&request.op)) {
    diverse->min_distance = cfg.min_dist;
  }
  if (auto* constrain = std::get_if<ConstrainSpec>(&request.op)) {
    constrain->constraint = cfg.constraint;
  }
  if (auto* what_if = std::get_if<WhatIfSpec>(&request.op)) {
    what_if->sweep = SweepVectors(pattern.layers.size());
  }
  return request;
}

void RunClient(const LoadConfig& cfg, int index, ClientStats* stats) {
  stats->verb_latencies_ms.resize(cfg.verbs.size());
  ServeClient client;
  if (!client.Connect(cfg.socket).ok()) {
    stats->connection_ok = false;
    return;
  }
  Rng rng(cfg.seed * 1000003u + static_cast<uint64_t>(index));
  Stopwatch clock;
  uint64_t n = 0;
  uint64_t mutation_seq = 0;
  // Points this client inserted and has not yet deleted. DELETE pops the
  // most recent one, so it always names a live object.
  std::vector<MutationSite> inserted;
  while (clock.ElapsedSeconds() < cfg.duration_s &&
         (cfg.requests_cap == 0 || n < cfg.requests_cap)) {
    const LayerPattern& pattern =
        cfg.patterns[rng.NextBelow(cfg.patterns.size())];
    // Draw the verb from the weighted mix (always verbs[0] == solve
    // without --mix).
    size_t verb = 0;
    int draw = static_cast<int>(
        rng.NextBelow(static_cast<uint64_t>(cfg.mix_total)));
    for (size_t v = 0; v < cfg.verbs.size(); ++v) {
      draw -= cfg.mix_weights[v];
      if (draw < 0) {
        verb = v;
        break;
      }
    }
    const VerbDescriptor* desc = cfg.verbs[verb].desc;
    MutationSite site;
    bool pops_stack = false;
    if (const auto* mutation = std::get_if<SiteMutation>(&desc->op)) {
      const bool is_delete = mutation->kind == MutationKind::kDelete;
      if (is_delete && !inserted.empty()) {
        site = inserted.back();
        pops_stack = true;
      } else {
        // DELETE with nothing of ours to delete degrades to INSERT so the
        // request is still a valid mutation.
        if (is_delete) {
          for (size_t v = 0; v < cfg.verbs.size(); ++v) {
            const auto* other =
                std::get_if<SiteMutation>(&cfg.verbs[v].desc->op);
            if (other != nullptr && other->kind == MutationKind::kInsert) {
              verb = v;
              desc = cfg.verbs[v].desc;
              break;
            }
          }
        }
        site = MakeMutationSite(index, mutation_seq++, cfg.dataset_layers,
                                cfg.world);
      }
    }
    const EngineRequest request =
        BuildRequest(cfg, verb, index, n, pattern, site);
    Stopwatch latency;
    ClientResponse response;
    if (!client.Call(request, &response).ok()) {
      stats->connection_ok = false;
      break;
    }
    const double ms = latency.ElapsedMillis();
    stats->latencies_ms.push_back(ms);
    stats->verb_latencies_ms[verb].push_back(ms);
    ++stats->requests;
    ++n;
    if (response.status.ok()) {
      if ((desc->caps & kCapMutation) != 0) {
        ++stats->mutations_ok;
        if (pops_stack) {
          inserted.pop_back();
        } else {
          inserted.push_back(site);
        }
      } else if (cfg.check) {
        // Key the determinism check by the snapshot version the response
        // was computed against: answers may differ across versions (the
        // data changed) but must be byte-identical within one.
        const std::string key =
            cfg.verbs[verb].lower + "/" + pattern.key + "/" + cfg.algo +
            "/k" + std::to_string(cfg.k) + "/v" +
            std::to_string(response.version);
        std::lock_guard<std::mutex> lock(g_check_mu);
        const auto it = g_first_answer.find(key);
        if (it == g_first_answer.end()) {
          g_first_answer.emplace(key, response.answers);
        } else if (it->second != response.answers) {
          g_mismatches.fetch_add(1);
        }
      }
    } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
      ++stats->deadline_exceeded;
    } else if (response.status.code() == StatusCode::kOverloaded) {
      ++stats->overloaded;
    } else {
      ++stats->errors;
      if (stats->errors == 1) {
        std::fprintf(stderr, "movd_loadgen: server error (id %s): %s\n",
                     response.id.c_str(),
                     response.status.ToString().c_str());
      }
    }
  }
}

/// Pulls one numeric field out of the STATS json ("\"name\": <digits>").
uint64_t JsonCounter(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  const char* p = json.c_str() + pos + needle.size();
  while (*p == ' ') ++p;
  return std::strtoull(p, nullptr, 10);
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  LoadConfig cfg;
  cfg.socket = flags.GetString("socket", "");
  cfg.dataset = flags.GetString("dataset", "synthetic");
  cfg.algo = flags.GetString("algo", "rrb");
  cfg.k = flags.GetInt("k", 1);
  cfg.epsilon = flags.GetDouble("epsilon", 1e-3);
  cfg.deadline_ms = flags.GetDouble("deadline_ms", 0.0);
  cfg.threads = flags.GetInt("threads", 1);
  cfg.cache = flags.GetBool("cache", true);
  cfg.duration_s = flags.GetDouble("duration_s", 5.0);
  cfg.requests_cap = static_cast<uint64_t>(flags.GetInt("requests", 0));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.check = flags.GetBool("check", true);
  cfg.dataset_layers = static_cast<int>(flags.GetInt("dataset_layers", 3));
  cfg.patterns = PatternPool(cfg.dataset_layers);
  const int clients = static_cast<int>(flags.GetInt("clients", 4));
  const bool require_hits = flags.GetBool("require_cache_hits", false);
  const bool shutdown_server = flags.GetBool("shutdown", false);
  cfg.world = flags.GetDouble("world", 10000.0);
  cfg.min_dist = flags.GetDouble("min_dist", cfg.world / 100.0);
  if (cfg.algo == "ssc") {
    cfg.algorithm = MolqAlgorithm::kSsc;
  } else if (cfg.algo == "rrb") {
    cfg.algorithm = MolqAlgorithm::kRrb;
  } else if (cfg.algo == "mbrb") {
    cfg.algorithm = MolqAlgorithm::kMbrb;
  } else {
    std::fprintf(stderr, "movd_loadgen: bad --algo (want ssc|rrb|mbrb)\n");
    return 2;
  }
  cfg.verbs = MixableVerbs();
  cfg.mix_weights.assign(cfg.verbs.size(), 0);
  cfg.mix_weights[0] = 1;  // registry row 0 is SOLVE
  const bool mixed = flags.Has("mix");
  if (mixed &&
      !ParseMix(flags.GetString("mix", ""), cfg.verbs, &cfg.mix_weights)) {
    std::fprintf(stderr,
                 "movd_loadgen: bad --mix (want verb:weight,... with verbs "
                 "%s)\n",
                 JoinVerbNames(cfg.verbs).c_str());
    return 2;
  }
  cfg.mix_total = 0;
  for (const int w : cfg.mix_weights) cfg.mix_total += w;
  if (mixed && cfg.algorithm == MolqAlgorithm::kSsc) {
    // The registry knows which verbs need a MOVD artifact and therefore
    // reject algo=ssc; an ssc mix may only weight the others.
    for (size_t v = 0; v < cfg.verbs.size(); ++v) {
      if (cfg.mix_weights[v] > 0 &&
          (cfg.verbs[v].desc->caps & kCapRequiresOverlay) != 0) {
        std::fprintf(stderr,
                     "movd_loadgen: --algo=ssc cannot mix in %s (the "
                     "query-algebra verbs reject ssc)\n",
                     cfg.verbs[v].lower.c_str());
        return 2;
      }
    }
  }
  // CONSTRAIN boundary: the centered box covering half of [0, world)^2.
  cfg.constraint.boundary = Polygon({{0.25 * cfg.world, 0.25 * cfg.world},
                                     {0.75 * cfg.world, 0.25 * cfg.world},
                                     {0.75 * cfg.world, 0.75 * cfg.world},
                                     {0.25 * cfg.world, 0.75 * cfg.world}});
  flags.WarnUnused(stderr);
  if (flags.ReportMalformed(stderr) > 0) return 2;
  if (cfg.socket.empty()) {
    std::fprintf(stderr, "movd_loadgen: --socket=PATH is required\n");
    return 2;
  }
  if (clients < 1 || cfg.patterns.empty()) {
    std::fprintf(stderr, "movd_loadgen: bad --clients/--dataset_layers\n");
    return 2;
  }

  std::vector<ClientStats> stats(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back(RunClient, std::cref(cfg), i, &stats[i]);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = wall.ElapsedSeconds();

  uint64_t requests = 0, errors = 0, deadlines = 0, overloaded = 0;
  uint64_t mutations_ok = 0;
  bool connections_ok = true;
  std::vector<double> latencies;
  std::vector<std::vector<double>> verb_latencies(cfg.verbs.size());
  for (const ClientStats& s : stats) {
    requests += s.requests;
    errors += s.errors;
    deadlines += s.deadline_exceeded;
    overloaded += s.overloaded;
    mutations_ok += s.mutations_ok;
    connections_ok = connections_ok && s.connection_ok;
    latencies.insert(latencies.end(), s.latencies_ms.begin(),
                     s.latencies_ms.end());
    for (size_t v = 0; v < s.verb_latencies_ms.size(); ++v) {
      verb_latencies[v].insert(verb_latencies[v].end(),
                               s.verb_latencies_ms[v].begin(),
                               s.verb_latencies_ms[v].end());
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&latencies](double p) {
    if (latencies.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(
        (p / 100.0) * static_cast<double>(latencies.size() - 1));
    return latencies[idx];
  };

  // One control connection for STATS (+ optional SHUTDOWN).
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t server_shed = 0, server_mutations = 0;
  std::string stats_json;
  bool stats_ok = false;
  ServeClient control;
  if (control.Connect(cfg.socket).ok()) {
    if (control.Stats(&stats_json).ok()) {
      cache_hits = JsonCounter(stats_json, "cache_hits");
      cache_misses = JsonCounter(stats_json, "cache_misses");
      server_shed = JsonCounter(stats_json, "shed");
      server_mutations = JsonCounter(stats_json, "mutations");
      stats_ok = true;
    }
    if (shutdown_server) {
      // Shutdown drains the farewell line so the server finishes its
      // write cleanly; a dropped connection here is not a failure.
      (void)control.Shutdown();
    }
    control.Close();
  } else {
    connections_ok = false;
  }

  Table table({"metric", "value"});
  table.AddRow({"clients", std::to_string(clients)});
  table.AddRow({"wall seconds", Table::Fmt(elapsed, 3)});
  table.AddRow({"requests", std::to_string(requests)});
  table.AddRow({"errors", std::to_string(errors)});
  table.AddRow({"deadline_exceeded", std::to_string(deadlines)});
  table.AddRow({"overloaded (shed)", std::to_string(overloaded)});
  table.AddRow({"mutations applied", std::to_string(mutations_ok)});
  table.AddRow(
      {"throughput req/s",
       Table::Fmt(elapsed > 0.0 ? static_cast<double>(requests) / elapsed
                                : 0.0,
                  1)});
  table.AddRow({"p50 latency ms", Table::Fmt(percentile(50), 3)});
  table.AddRow({"p99 latency ms", Table::Fmt(percentile(99), 3)});
  table.AddRow({"determinism mismatches",
                std::to_string(g_mismatches.load())});
  table.AddRow({"server cache hits",
                stats_ok ? std::to_string(cache_hits) : "(unavailable)"});
  table.AddRow({"server cache misses",
                stats_ok ? std::to_string(cache_misses) : "(unavailable)"});
  table.AddRow({"server shed",
                stats_ok ? std::to_string(server_shed) : "(unavailable)"});
  table.AddRow({"server mutations",
                stats_ok ? std::to_string(server_mutations)
                         : "(unavailable)"});
  table.Print(stdout);

  if (mixed) {
    // Per-verb latency histogram: power-of-two millisecond buckets plus
    // percentiles, one row per verb that appeared in the mix.
    static const double kBucketsMs[] = {0.5, 1.0, 2.0, 4.0, 8.0,
                                        16.0, 32.0, 64.0};
    const size_t buckets = sizeof(kBucketsMs) / sizeof(kBucketsMs[0]);
    Table hist({"verb", "count", "<0.5ms", "<1", "<2", "<4", "<8", "<16",
                "<32", "<64", ">=64", "p50 ms", "p99 ms"});
    for (size_t v = 0; v < cfg.verbs.size(); ++v) {
      std::vector<double>& lat = verb_latencies[v];
      if (lat.empty()) continue;
      std::sort(lat.begin(), lat.end());
      std::vector<uint64_t> counts(buckets + 1, 0);
      for (const double ms : lat) {
        size_t b = 0;
        while (b < buckets && ms >= kBucketsMs[b]) ++b;
        ++counts[b];
      }
      std::vector<std::string> row = {cfg.verbs[v].lower,
                                      std::to_string(lat.size())};
      for (const uint64_t c : counts) row.push_back(std::to_string(c));
      const auto verb_pct = [&lat](double p) {
        const size_t idx = static_cast<size_t>(
            (p / 100.0) * static_cast<double>(lat.size() - 1));
        return lat[idx];
      };
      row.push_back(Table::Fmt(verb_pct(50), 3));
      row.push_back(Table::Fmt(verb_pct(99), 3));
      hist.AddRow(row);
    }
    hist.Print(stdout);
  }

  if (!connections_ok) {
    std::fprintf(stderr, "movd_loadgen: connection failures\n");
    return 1;
  }
  if (errors > 0 || g_mismatches.load() > 0) return 1;
  if (cfg.deadline_ms <= 0.0 && deadlines > 0) return 1;
  if (require_hits && (!stats_ok || cache_hits == 0)) {
    std::fprintf(stderr, "movd_loadgen: expected cache hits, saw none\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
