#ifndef MOVD_MODEL_MOVD_MODEL_H_
#define MOVD_MODEL_MOVD_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "model/object.h"
#include "geom/polygon.h"
#include "geom/rect.h"
#include "util/flat_array.h"
#include "voronoi/voronoi.h"
#include "voronoi/weighted.h"

namespace movd {

/// Which boundary representation the MOVD pipeline maintains (paper §5.2
/// vs §5.3): real regions (RRB) or minimum bounding rectangles (MBRB).
enum class BoundaryMode {
  kRealRegion,  ///< RRB: exact piecewise-convex overlap regions
  kMbr,         ///< MBRB: MBRs only; false positives possible
};

/// One OVR as stored in an OvrTable (or borrowed from an Ovr): views into
/// storage it does not own, valid until that storage is next modified.
/// Hand views around by value.
struct OvrView {
  /// The region's MBR (RRB) or the intersection of input MBRs (MBRB).
  const Rect& mbr;
  /// One generating object per object type, sorted by (set, object).
  std::span<const PoiRef> pois;
  /// Real region (maintained in RRB mode; empty in MBRB mode).
  RegionView region;
};

/// An Overlapped Voronoi Region (paper Eq. 12) as a standalone record: the
/// intersection of one dominance region per overlapped diagram, with the
/// generating objects. MOVDs store OVRs in an OvrTable; this owning form
/// is what a MOVD file reader returns and what callers build one at a time.
struct Ovr {
  Ovr() = default;
  /// A deep copy of a stored OVR.
  explicit Ovr(const OvrView& view);

  /// Real region (maintained in RRB mode; empty in MBRB mode).
  Region region;
  /// The region's MBR (RRB) or the intersection of input MBRs (MBRB).
  Rect mbr;
  /// One generating object per object type, sorted by (set, object).
  std::vector<PoiRef> pois;

  operator OvrView() const { return {mbr, pois, region}; }  // implicit: a view
};

/// The OVRs of a MOVD as a struct-of-arrays table: one MBR per OVR, every
/// poi list back to back in one array, and every region piece in one
/// vertex pool. Per OVR it costs its bytes plus three 32-bit offsets, not
/// three heap blocks. Invariants:
///  - poi_starts_ and piece_starts_ hold size() + 1 offsets, starting at 0
///    and non-decreasing; OVR i's pois are pois_[poi_starts_[i],
///    poi_starts_[i + 1]) and its pieces are pieces_ pieces
///    [piece_starts_[i], piece_starts_[i + 1]);
///  - every stored piece is non-empty;
///  - every offset fits 32 bits (CheckedOffset aborts otherwise).
/// Reads yield OvrView; element access and iteration are O(1).
class OvrTable {
 public:
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = OvrView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = OvrView;

    Iterator(const OvrTable* table, size_t i) : table_(table), i_(i) {}
    OvrView operator*() const { return (*table_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) { return Iterator(table_, i_++); }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }

   private:
    const OvrTable* table_;
    size_t i_;
  };

  size_t size() const { return mbrs_.size(); }
  bool empty() const { return mbrs_.empty(); }
  OvrView operator[](size_t i) const {
    return {mbrs_[i],
            std::span<const PoiRef>(pois_.data() + poi_starts_[i],
                                    poi_starts_[i + 1] - poi_starts_[i]),
            RegionView(pieces_, piece_starts_[i],
                       piece_starts_[i + 1] - piece_starts_[i])};
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  /// Appends a copy of `ovr` (which must not point into this table).
  /// Empty pieces are dropped.
  void push_back(const OvrView& ovr);

  /// Appends every OVR of `other`, in order.
  void Append(const OvrTable& other);

  /// The OVRs at `order`, in that order.
  OvrTable Gather(std::span<const uint32_t> order) const;

  /// In-place append, for producers that clip straight into the vertex
  /// pool: append the next OVR's non-empty pieces to mutable_pieces()
  /// (PendingRegion() views them), then CommitOvr stores the OVR.
  PiecePool* mutable_pieces() { return &pieces_; }
  RegionView PendingRegion() const {
    return RegionView(pieces_, piece_starts_.back(),
                      pieces_.PieceCount() - piece_starts_.back());
  }
  void CommitOvr(const Rect& mbr, std::span<const PoiRef> pois);

  /// Drops every OVR; capacity is kept for reuse.
  void clear();

  /// Capacity for `ovrs` more OVRs holding `pieces` pieces, `vertices`
  /// vertices and `pois` pois in total.
  void reserve(size_t ovrs, size_t pieces = 0, size_t vertices = 0,
               size_t pois = 0);

  size_t vertex_count() const { return pieces_.vertices.size(); }
  size_t poi_count() const { return pois_.size(); }

 private:
  FlatArray<Rect> mbrs_;
  FlatArray<uint32_t> poi_starts_ = {0};
  FlatArray<PoiRef> pois_;
  FlatArray<uint32_t> piece_starts_ = {0};
  PiecePool pieces_;
};

/// A Minimum Overlapped Voronoi Diagram: an OVD with empty OVRs removed
/// (paper Eq. 13). The identity element MOVD(∅) = {R} is represented by a
/// single OVR covering the search space with no pois (Eq. 14).
struct Movd {
  OvrTable ovrs;

  /// Bytes of region/MBR + poi storage, the paper's memory-consumption
  /// metric (Figs. 13, 14d): RRB pays sizeof(Point) per stored vertex,
  /// MBRB pays exactly two points per OVR.
  size_t MemoryBytes(BoundaryMode mode) const;

  /// Total vertices stored across OVR regions (RRB) — Fig. 13's point count.
  size_t VertexCount() const;
};

/// MOVD(∅) = {R}: the overlap identity (paper Property 12).
Movd IdentityMovd(const Rect& search_space);

/// A basic MOVD from an ordinary Voronoi diagram (paper Property 7:
/// single-set MOVDs are Voronoi diagrams). `set` tags the generated pois;
/// `object_of_site[i]` maps diagram site i back to the object index in the
/// query's set (the diagram deduplicates site locations).
Movd MovdFromVoronoi(const VoronoiDiagram& diagram, int32_t set,
                     const std::vector<int32_t>& object_of_site);

/// MovdFromVoronoi for a diagram whose sites are the distinct locations of
/// `object_locations` (one entry per object, in object order): each site
/// stands for the first object at its location.
Movd MovdFromObjectLocations(const VoronoiDiagram& diagram, int32_t set,
                             const std::vector<Point>& object_locations);

/// A basic MOVD from a grid-approximated weighted Voronoi diagram (§5.3).
/// Cells carry a conservative MBR and (for RRB rendering/approximation)
/// the hull polygon; empty cells are dropped, per the MOVD definition.
Movd MovdFromWeightedApprox(const std::vector<WeightedCellApprox>& cells,
                            int32_t set,
                            const std::vector<int32_t>& object_of_site);

}  // namespace movd

#endif  // MOVD_MODEL_MOVD_MODEL_H_
