// Voronoi gallery: renders the building blocks of the OVD model as SVG —
// an ordinary Voronoi diagram, a multiplicatively weighted diagram
// (approximated), and the overlap of two diagrams with the OVR structure
// visible (the paper's Figs. 2, 4 and 5).
//
// Build & run:  ./examples/voronoi_gallery [output_dir]

#include <cstdio>
#include <string>

#include "model/movd_model.h"
#include "core/overlap.h"
#include "util/rng.h"
#include "util/status.h"
#include "viz/svg.h"
#include "voronoi/voronoi.h"
#include "voronoi/weighted.h"

namespace {

using namespace movd;

constexpr Rect kWorld(0, 0, 1000, 1000);

std::vector<Point> RandomSites(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(50, 950), rng.Uniform(50, 950)});
  }
  return pts;
}

const char* Palette(size_t i) {
  static const char* kColors[] = {"#8dd3c7", "#ffffb3", "#bebada", "#fb8072",
                                  "#80b1d3", "#fdb462", "#b3de69", "#fccde5"};
  return kColors[i % 8];
}

void RenderOrdinary(const std::string& path) {
  const auto vd = VoronoiDiagram::Build(RandomSites(24, 101), kWorld);
  SvgWriter svg(kWorld, 640);
  for (size_t i = 0; i < vd.cells().size(); ++i) {
    svg.AddPolygon(vd.cells()[i].region, Palette(i), "#444444", 1.0, 0.55);
    svg.AddCircle(vd.sites()[i], 3.0, "#000000");
  }
  if (const Status s = svg.Save(path); s.ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
}

void RenderWeighted(const std::string& path) {
  Rng rng(102);
  std::vector<WeightedSite> sites;
  for (const Point& p : RandomSites(10, 103)) {
    sites.push_back(MultiplicativeSite(p, rng.Uniform(0.5, 3.0)));
  }
  WeightedOptions wopts;
  wopts.resolution = 192;
  const auto cells = BuildWeightedCells(sites, kWorld, wopts);
  SvgWriter svg(kWorld, 640);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].empty) continue;
    svg.AddPolygon(cells[i].hull, Palette(i), "#444444", 1.0, 0.45);
    svg.AddRect(cells[i].mbr, "none", "#aa0000", 0.8, 0.0);
    svg.AddCircle(sites[i].location, 3.0, "#000000");
    char label[32];
    std::snprintf(label, sizeof(label), "w=%.1f", sites[i].multiplier);
    svg.AddText(sites[i].location + Point{8, 8}, label, 11);
  }
  if (const Status s = svg.Save(path); s.ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
}

void RenderOverlap(const std::string& path) {
  const auto va = VoronoiDiagram::Build(RandomSites(8, 104), kWorld);
  const auto vb = VoronoiDiagram::Build(RandomSites(8, 105), kWorld);
  std::vector<int32_t> ids(8);
  for (int32_t i = 0; i < 8; ++i) ids[i] = i;
  const Movd a = MovdFromVoronoi(va, 0, ids);
  const Movd b = MovdFromVoronoi(vb, 1, ids);
  const Movd overlap = Overlap(a, b, BoundaryMode::kRealRegion);

  SvgWriter svg(kWorld, 640);
  for (size_t i = 0; i < overlap.ovrs.size(); ++i) {
    for (const PieceView piece : overlap.ovrs[i].region.pieces()) {
      svg.AddPolygon(piece, Palette(i), "#333333", 0.8, 0.5);
    }
  }
  for (const Point& p : va.sites()) svg.AddCircle(p, 4.0, "#d62728");
  for (const Point& p : vb.sites()) svg.AddCircle(p, 4.0, "#1f77b4");
  if (const Status s = svg.Save(path); s.ok()) {
    std::printf("wrote %s (%zu OVRs from 8 x 8 cells)\n", path.c_str(),
                overlap.ovrs.size());
  } else {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : ".";
  RenderOrdinary(out + "/gallery_ordinary_voronoi.svg");
  RenderWeighted(out + "/gallery_weighted_voronoi.svg");
  RenderOverlap(out + "/gallery_overlapped.svg");
  return 0;
}
