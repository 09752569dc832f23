#include "model/movd_model.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace movd {

namespace {

// Appends src[1..] + base to dst: the offsets of a concatenated table.
void AppendRebased(const FlatArray<uint32_t>& src, size_t base,
                   FlatArray<uint32_t>* dst) {
  CheckedOffset(base + src.back());
  const uint32_t b = static_cast<uint32_t>(base);
  dst->reserve(std::max(dst->size() + src.size() - 1, 2 * dst->size()));
  for (size_t k = 1; k < src.size(); ++k) dst->push_back(b + src[k]);
}

}  // namespace

Ovr::Ovr(const OvrView& view)
    : region(Region::FromView(view.region)),
      mbr(view.mbr),
      pois(view.pois.begin(), view.pois.end()) {}

void OvrTable::push_back(const OvrView& ovr) {
  for (const PieceView piece : ovr.region.pieces()) {
    if (!piece.Empty()) pieces_.Append(piece.vertices());
  }
  CommitOvr(ovr.mbr, ovr.pois);
}

void OvrTable::CommitOvr(const Rect& mbr, std::span<const PoiRef> pois) {
  mbrs_.push_back(mbr);
  pois_.append(pois.data(), pois.size());
  poi_starts_.push_back(CheckedOffset(pois_.size()));
  piece_starts_.push_back(CheckedOffset(pieces_.PieceCount()));
}

void OvrTable::Append(const OvrTable& other) {
  mbrs_.append(other.mbrs_.data(), other.mbrs_.size());
  AppendRebased(other.poi_starts_, pois_.size(), &poi_starts_);
  pois_.append(other.pois_.data(), other.pois_.size());
  AppendRebased(other.piece_starts_, pieces_.PieceCount(), &piece_starts_);
  AppendRebased(other.pieces_.starts, pieces_.vertices.size(),
                &pieces_.starts);
  pieces_.vertices.append(other.pieces_.vertices.data(),
                          other.pieces_.vertices.size());
}

OvrTable OvrTable::Gather(std::span<const uint32_t> order) const {
  size_t pieces = 0, vertices = 0, pois = 0;
  for (const uint32_t i : order) {
    const OvrView ovr = (*this)[i];
    pieces += ovr.region.pieces().size();
    vertices += ovr.region.VertexCount();
    pois += ovr.pois.size();
  }
  OvrTable out;
  out.reserve(order.size(), pieces, vertices, pois);
  for (const uint32_t i : order) out.push_back((*this)[i]);
  return out;
}

void OvrTable::clear() {
  mbrs_.clear();
  poi_starts_.clear();
  poi_starts_.push_back(0);
  pois_.clear();
  piece_starts_.clear();
  piece_starts_.push_back(0);
  pieces_.Clear();
}

void OvrTable::reserve(size_t ovrs, size_t pieces, size_t vertices,
                       size_t pois) {
  mbrs_.reserve(mbrs_.size() + ovrs);
  poi_starts_.reserve(poi_starts_.size() + ovrs);
  pois_.reserve(pois_.size() + pois);
  piece_starts_.reserve(piece_starts_.size() + ovrs);
  pieces_.starts.reserve(pieces_.starts.size() + pieces);
  pieces_.vertices.reserve(pieces_.vertices.size() + vertices);
}

size_t Movd::MemoryBytes(BoundaryMode mode) const {
  // RRB pays for every stored vertex, MBRB for two corner points per OVR.
  const size_t region_bytes = mode == BoundaryMode::kRealRegion
                                  ? ovrs.vertex_count() * sizeof(Point)
                                  : ovrs.size() * 2 * sizeof(Point);
  return region_bytes + ovrs.poi_count() * sizeof(PoiRef);
}

size_t Movd::VertexCount() const { return ovrs.vertex_count(); }

Movd IdentityMovd(const Rect& search_space) {
  Movd movd;
  movd.ovrs.push_back({search_space, {}, Region::FromRect(search_space)});
  return movd;
}

Movd MovdFromVoronoi(const VoronoiDiagram& diagram, int32_t set,
                     const std::vector<int32_t>& object_of_site) {
  MOVD_CHECK(object_of_site.size() == diagram.sites().size());
  size_t cells = 0, vertices = 0;
  for (const VoronoiCell& cell : diagram.cells()) {
    if (cell.region.Empty()) continue;
    ++cells;
    vertices += cell.region.VertexCount();
  }
  Movd movd;
  movd.ovrs.reserve(cells, cells, vertices, cells);
  for (const VoronoiCell& cell : diagram.cells()) {
    if (cell.region.Empty()) continue;  // MOVDs hold no empty regions
    const PoiRef poi{set, object_of_site[cell.site]};
    movd.ovrs.mutable_pieces()->Append(cell.region.vertices());
    movd.ovrs.CommitOvr(cell.region.Bbox(), {&poi, 1});
  }
  return movd;
}

Movd MovdFromObjectLocations(const VoronoiDiagram& diagram, int32_t set,
                             const std::vector<Point>& object_locations) {
  std::unordered_map<Point, int32_t, PointHash> first_at;
  for (size_t i = 0; i < object_locations.size(); ++i) {
    first_at.emplace(object_locations[i], static_cast<int32_t>(i));
  }
  std::vector<int32_t> object_of_site;
  object_of_site.reserve(diagram.sites().size());
  for (const Point& site : diagram.sites()) {
    const auto it = first_at.find(site);
    MOVD_CHECK(it != first_at.end());
    object_of_site.push_back(it->second);
  }
  return MovdFromVoronoi(diagram, set, object_of_site);
}

Movd MovdFromWeightedApprox(const std::vector<WeightedCellApprox>& cells,
                            int32_t set,
                            const std::vector<int32_t>& object_of_site) {
  MOVD_CHECK(object_of_site.size() == cells.size());
  Movd movd;
  for (const WeightedCellApprox& cell : cells) {
    // Empty generators carry the sentinel invalid Rect() as their MBR; a
    // default-constructed Rect fed into MBRB prefiltering would silently
    // drop every intersection test, so skip them (and any cell whose MBR
    // is degenerate) before they can become OVRs.
    if (cell.empty || cell.mbr.Empty()) continue;
    // Weighted cells may be concave or disconnected. RRB uses the tight
    // dilated grid-contour cover when available; conservative covers keep
    // correctness (any truly co-occurring combination still pairs up, and
    // scanning extra combinations cannot change the global optimum). The
    // triangulation of a cover ring can come up short on degenerate
    // (self-touching) rings; detect that by area and fall back to the MBR.
    Region region;
    double ring_area = 0.0;
    if (!cell.cover.empty()) {
      std::vector<ConvexPolygon> pieces;
      for (const Polygon& ring : cell.cover) {
        ring_area += ring.SignedArea();
        auto tris = ring.Triangulate();
        for (ConvexPolygon& t : tris) pieces.push_back(std::move(t));
      }
      region = Region::FromPieces(pieces);
    }
    if (cell.cover.empty() || !(region.Area() >= 0.999 * ring_area)) {
      region = Region::FromRect(cell.mbr);
    }
    const PoiRef poi{set, object_of_site[cell.site]};
    movd.ovrs.push_back({cell.mbr, {&poi, 1}, region});
  }
  return movd;
}

}  // namespace movd
