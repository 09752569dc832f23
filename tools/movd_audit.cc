// movd_audit: randomized invariant sweep over the geometry pipeline.
//
// Builds Delaunay triangulations, ordinary and weighted Voronoi diagrams,
// and full MOLQ pipelines across a grid of seeds, sizes, spatial
// distributions and weight modes, runs every structural auditor
// (src/audit, DESIGN.md §7) on the results, and prints a per-component
// violation table. Exits non-zero when any invariant fails, so CI can run
// it as a gate:
//
//   movd_audit --seeds=20 --sizes=64,256 --resolution=64 --threads=2
#include <climits>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/audit_delaunay.h"
#include "audit/audit_voronoi.h"
#include "audit/audit_weighted.h"
#include "core/molq.h"
#include "data/generate.h"
#include "util/flags.h"
#include "util/table.h"
#include "voronoi/delaunay.h"
#include "voronoi/voronoi.h"
#include "voronoi/weighted.h"

namespace movd {
namespace {

constexpr size_t kMaxSampleMessages = 8;

struct Tally {
  explicit Tally(std::string name) : component(std::move(name)) {}

  std::string component;
  uint64_t runs = 0;
  uint64_t checks = 0;
  uint64_t violations = 0;
  std::vector<std::string> samples;
};

void Absorb(const AuditReport& report, const std::string& where, Tally* t) {
  ++t->runs;
  t->checks += report.checks();
  t->violations += report.violations().size();
  for (const std::string& msg : report.Messages()) {
    if (t->samples.size() >= kMaxSampleMessages) break;
    t->samples.push_back(where + ": " + msg);
  }
}

const char* DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kUniform: return "uniform";
    case Distribution::kGaussianClusters: return "clusters";
    case Distribution::kCorridor: return "corridor";
  }
  return "?";
}

std::vector<Point> MakePoints(Distribution dist, int size, uint64_t seed,
                              const Rect& bounds) {
  GeneratorConfig config;
  config.distribution = dist;
  config.count = static_cast<size_t>(size);
  config.bounds = bounds;
  config.seed = seed;
  return GeneratePoints(config);
}

// Weight modes for the weighted-diagram and pipeline sweeps.
enum class WeightMode { kUniform, kMultiplicative, kAdditive };

const char* WeightModeName(WeightMode m) {
  switch (m) {
    case WeightMode::kUniform: return "uniform";
    case WeightMode::kMultiplicative: return "mult";
    case WeightMode::kAdditive: return "add";
  }
  return "?";
}

}  // namespace

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int seeds = static_cast<int>(flags.GetInt("seeds", 20));
  const std::vector<size_t> sizes = flags.GetSizeList("sizes", "64,256");
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  const int resolution = static_cast<int>(flags.GetInt("resolution", 64));
  flags.WarnUnused(stderr);
  if (flags.ReportMalformed(stderr) > 0) return 2;
  for (const size_t size : sizes) {
    if (size == 0 || size > static_cast<size_t>(INT_MAX)) {
      std::fprintf(stderr, "error: --sizes=%zu is out of range [1, %d]\n",
                   size, INT_MAX);
      return 2;
    }
  }
  const Rect bounds(0, 0, 10000, 10000);
  const Distribution kDistributions[] = {Distribution::kUniform,
                                         Distribution::kGaussianClusters,
                                         Distribution::kCorridor};

  Tally t_delaunay{"delaunay"};
  Tally t_voronoi_nn{"voronoi/nn"};
  Tally t_voronoi_dt{"voronoi/delaunay"};
  Tally t_weighted_mult{"weighted/mult"};
  Tally t_weighted_add{"weighted/add"};
  Tally t_adaptive_mult{"adaptive/mult"};
  Tally t_adaptive_add{"adaptive/add"};
  Tally t_pipeline_rrb{"pipeline/rrb"};
  Tally t_pipeline_mbrb{"pipeline/mbrb"};

  for (int seed = 1; seed <= seeds; ++seed) {
    for (const size_t n : sizes) {
      const int size = static_cast<int>(n);
      for (const Distribution dist : kDistributions) {
        const std::string where =
            AuditStrFormat("seed=%d n=%d %s", seed, size,
                           DistributionName(dist));
        const std::vector<Point> points =
            MakePoints(dist, size, static_cast<uint64_t>(seed), bounds);

        // Delaunay triangulation.
        const Delaunay dt(points);
        Absorb(AuditDelaunay(dt), where, &t_delaunay);

        // Ordinary Voronoi, both cell-construction strategies.
        Absorb(AuditVoronoi(VoronoiDiagram::Build(
                   points, bounds, VoronoiDiagram::Strategy::kNearestNeighbor)),
               where, &t_voronoi_nn);
        Absorb(AuditVoronoi(VoronoiDiagram::Build(
                   points, bounds, VoronoiDiagram::Strategy::kDelaunay)),
               where, &t_voronoi_dt);

        // Weighted diagrams with random multiplicative / additive weights.
        std::mt19937_64 rng(static_cast<uint64_t>(seed) * 7919 + size);
        std::uniform_real_distribution<double> mult(0.5, 2.0);
        std::uniform_real_distribution<double> add(0.0, 2000.0);
        std::vector<WeightedSite> mult_sites, add_sites;
        mult_sites.reserve(points.size());
        add_sites.reserve(points.size());
        for (const Point& p : points) {
          mult_sites.push_back({p, mult(rng), 0.0});
          add_sites.push_back({p, 1.0, add(rng)});
        }
        WeightedOptions wopts;
        wopts.resolution = resolution;
        wopts.threads = threads;
        wopts.method = WeightedMethod::kDenseGrid;
        Absorb(AuditWeightedCells(
                   mult_sites, BuildWeightedCells(mult_sites, bounds, wopts),
                   bounds, resolution),
               where, &t_weighted_mult);
        Absorb(AuditWeightedCells(
                   add_sites, BuildWeightedCells(add_sites, bounds, wopts),
                   bounds, resolution),
               where, &t_weighted_add);
        // The adaptive construction, cross-checked against a dense-lattice
        // dominance replay at the same effective resolution (the
        // "adaptive cover contains every dense-dominated sample"
        // guarantee, DESIGN.md §11).
        wopts.method = WeightedMethod::kAdaptive;
        Absorb(AuditAdaptiveWeightedCells(
                   mult_sites, BuildWeightedCells(mult_sites, bounds, wopts),
                   bounds, resolution),
               where, &t_adaptive_mult);
        Absorb(AuditAdaptiveWeightedCells(
                   add_sites, BuildWeightedCells(add_sites, bounds, wopts),
                   bounds, resolution),
               where, &t_adaptive_add);
      }

      // Full pipelines: two-set queries mixing distributions and weight
      // modes, audited at every seam via MolqOptions::audit.
      for (const WeightMode mode :
           {WeightMode::kUniform, WeightMode::kMultiplicative,
            WeightMode::kAdditive}) {
        MolqQuery query;
        std::mt19937_64 rng(static_cast<uint64_t>(seed) * 104729 + size);
        std::uniform_real_distribution<double> w(0.5, 2.0);
        const Distribution set_dists[] = {Distribution::kUniform,
                                          Distribution::kGaussianClusters};
        for (int s = 0; s < 2; ++s) {
          ObjectSet set;
          set.name = AuditStrFormat("set%d", s);
          for (const Point& p :
               MakePoints(set_dists[s], size,
                          static_cast<uint64_t>(seed) * 31 + s, bounds)) {
            SpatialObject obj;
            obj.location = p;
            obj.object_weight = mode == WeightMode::kUniform ? 1.0 : w(rng);
            set.objects.push_back(obj);
          }
          query.sets.push_back(std::move(set));
          query.object_functions.push_back(
              mode == WeightMode::kAdditive ? WeightFunctionKind::kAdditive
                                            : WeightFunctionKind::kMultiplicative);
        }

        MolqOptions options;
        options.exec.audit = true;
        options.exec.threads = threads;
        options.exec.weighted_grid_resolution = resolution;
        for (const MolqAlgorithm algo :
             {MolqAlgorithm::kRrb, MolqAlgorithm::kMbrb}) {
          options.algorithm = algo;
          const MolqResult result = SolveMolq(query, bounds, options);
          Tally* t = algo == MolqAlgorithm::kRrb ? &t_pipeline_rrb
                                                 : &t_pipeline_mbrb;
          ++t->runs;
          t->checks += result.audit.checks();
          t->violations += result.audit.violations().size();
          const std::string where = AuditStrFormat(
              "seed=%d n=%d weights=%s", seed, size, WeightModeName(mode));
          for (const std::string& msg : result.audit.Messages()) {
            if (t->samples.size() >= kMaxSampleMessages) break;
            t->samples.push_back(where + ": " + msg);
          }
        }
      }
    }
  }

  const Tally* tallies[] = {&t_delaunay,      &t_voronoi_nn,
                            &t_voronoi_dt,    &t_weighted_mult,
                            &t_weighted_add,  &t_adaptive_mult,
                            &t_adaptive_add,  &t_pipeline_rrb,
                            &t_pipeline_mbrb};
  Table table({"component", "runs", "checks", "violations"});
  uint64_t total_violations = 0;
  for (const Tally* t : tallies) {
    table.AddRow({t->component, std::to_string(t->runs),
                  std::to_string(t->checks), std::to_string(t->violations)});
    total_violations += t->violations;
  }
  table.Print(stdout);

  if (total_violations > 0) {
    std::printf("\nsample violations:\n");
    for (const Tally* t : tallies) {
      for (const std::string& msg : t->samples) {
        std::printf("  [%s] %s\n", t->component.c_str(), msg.c_str());
      }
    }
    std::printf("\nFAIL: %llu invariant violation(s)\n",
                static_cast<unsigned long long>(total_violations));
    return 1;
  }
  std::printf("\nOK: all invariants held\n");
  return 0;
}

}  // namespace movd

int main(int argc, char** argv) { return movd::Main(argc, argv); }
