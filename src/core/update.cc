#include "core/update.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/overlap.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

std::vector<Point> Locations(const ObjectSet& set) {
  std::vector<Point> out;
  out.reserve(set.objects.size());
  for (const SpatialObject& obj : set.objects) out.push_back(obj.location);
  return out;
}

}  // namespace

OrdinaryLayerState::OrdinaryLayerState(const MolqQuery& query, int32_t set,
                                       const Rect& world)
    : set_(set),
      world_(world),
      objects_(Locations(query.sets.at(set))),
      dt_(objects_, world),
      cells_(&LessXY) {
  // The starting cells are BuildBasicMovd's own (same builder, same
  // inputs), so the mirror starts byte-identical to a full build.
  const VoronoiDiagram vd = VoronoiDiagram::Build(
      objects_, world, VoronoiDiagram::Strategy::kDelaunay);
  for (const VoronoiCell& cell : vd.cells()) {
    cells_.emplace_hint(cells_.end(), vd.sites()[cell.site], cell.region);
  }
}

bool OrdinaryLayerState::Apply(const SiteMutation& mutation,
                               LayerPatchStats* stats) {
  const Point& p = mutation.location;
  std::vector<Point> affected;
  if (mutation.kind == MutationKind::kInsert) {
    // A second object at an existing site changes no cell.
    if (!dt_.Contains(p)) dt_.Insert(p, &affected);
    objects_.push_back(p);
  } else {
    const auto victim =
        std::find_if(objects_.begin(), objects_.end(), [&](const Point& q) {
          return std::memcmp(&q, &p, sizeof(Point)) == 0;
        });
    if (victim == objects_.end()) return false;
    // The site outlives the object when another object shares it.
    const bool last_at_site =
        std::count(objects_.begin(), objects_.end(), p) == 1;
    if (last_at_site && !dt_.Remove(p, &affected)) return false;
    objects_.erase(victim);
    if (last_at_site) cells_.erase(p);
  }
  for (const Point& site : affected) {
    cells_.insert_or_assign(
        site, CanonicalVoronoiCell(site, dt_.NeighborsOf(site), world_));
  }
  if (stats != nullptr) {
    stats->recomputed_cells = affected.size();
    stats->total_cells = cells_.size();
  }
  return true;
}

Movd OrdinaryLayerState::Materialize() const {
  std::vector<Point> sites;
  std::vector<ConvexPolygon> cells;
  sites.reserve(cells_.size());
  cells.reserve(cells_.size());
  for (const auto& [site, cell] : cells_) {
    sites.push_back(site);
    cells.push_back(cell);
  }
  return MovdFromObjectLocations(
      VoronoiDiagram::FromCells(std::move(sites), std::move(cells), world_),
      set_, objects_);
}

bool PatchOverlay(const Movd& overlay, const std::vector<int32_t>& key_layers,
                  int32_t mutated_layer, const Movd& old_basic,
                  const Movd& new_basic,
                  const std::function<const Movd*(int32_t)>& basic_of,
                  BoundaryMode mode, const Rect& world, int32_t deleted_object,
                  Movd* out, OverlayPatchStats* stats) {
  if (std::find(key_layers.begin(), key_layers.end(), mutated_layer) ==
      key_layers.end()) {
    return false;
  }
  std::vector<const Movd*> basics;
  for (const int32_t layer : key_layers) {
    basics.push_back(layer == mutated_layer ? &new_basic : basic_of(layer));
    if (basics.back() == nullptr) return false;
  }
  const auto renumbered = [&](int32_t object) {
    return deleted_object >= 0 && object > deleted_object ? object - 1
                                                          : object;
  };

  // 1. Cell diff. A basic MOVD carries one poi per OVR.
  std::unordered_map<int32_t, size_t> new_cell_of;
  for (size_t i = 0; i < new_basic.ovrs.size(); ++i) {
    new_cell_of.emplace(new_basic.ovrs[i].pois.front().object, i);
  }
  std::vector<bool> changed(new_basic.ovrs.size(), true);
  std::unordered_set<int32_t> unchanged;  // old object indices
  for (const OvrView cell : old_basic.ovrs) {
    const int32_t object = cell.pois.front().object;
    if (object == deleted_object) continue;
    const auto it = new_cell_of.find(renumbered(object));
    if (it != new_cell_of.end() &&
        OvrGeometryBitIdentical(cell, new_basic.ovrs[it->second])) {
      unchanged.insert(object);
      changed[it->second] = false;
    }
  }

  // 2. Combos over an unchanged cell are exactly what a refold would
  // produce for them: keep them, renumbered.
  out->ovrs.clear();
  std::vector<PoiRef> pois;  // a kept OVR's renumbered poi list
  for (const OvrView ovr : overlay.ovrs) {
    const auto poi =
        std::find_if(ovr.pois.begin(), ovr.pois.end(),
                     [&](const PoiRef& r) { return r.set == mutated_layer; });
    if (poi == ovr.pois.end() || unchanged.count(poi->object) == 0) continue;
    pois.assign(ovr.pois.begin(), ovr.pois.end());
    pois[static_cast<size_t>(poi - ovr.pois.begin())].object =
        renumbered(poi->object);
    out->ovrs.push_back({ovr.mbr, pois, ovr.region});
  }
  const size_t retained = out->ovrs.size();

  // 3. Refold the changed cells. Overlap pairs two OVRs, and orders the
  // pair's operands, from their own MBRs alone, so folding the subsets
  // yields the full fold's bytes for every combo over a changed cell; a
  // peer cell that misses every changed cell's MBR is in no such combo.
  Movd changed_cells;
  Rect dirty;
  for (size_t i = 0; i < new_basic.ovrs.size(); ++i) {
    if (!changed[i]) continue;
    changed_cells.ovrs.push_back(new_basic.ovrs[i]);
    dirty.Expand(new_basic.ovrs[i].mbr);
  }
  size_t recomputed = 0;
  if (!changed_cells.ovrs.empty()) {
    Movd acc = IdentityMovd(world);
    for (size_t i = 0; i < key_layers.size(); ++i) {
      if (key_layers[i] == mutated_layer) {
        acc = Overlap(acc, changed_cells, mode);
        continue;
      }
      Movd peers;
      for (const OvrView cell : basics[i]->ovrs) {
        if (cell.mbr.Intersects(dirty)) peers.ovrs.push_back(cell);
      }
      acc = Overlap(acc, peers, mode);
    }
    recomputed = acc.ovrs.size();
    out->ovrs.Append(acc.ovrs);
  }

  // 4. One canonical order for patched and rebuilt overlays alike.
  CanonicalizeOvrOrder(out);
  if (stats != nullptr) {
    stats->retained_ovrs = retained;
    stats->recomputed_ovrs = recomputed;
  }
  return true;
}

}  // namespace movd
