#ifndef MOVD_GEOM_POLYGON_H_
#define MOVD_GEOM_POLYGON_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "util/flat_array.h"

namespace movd {

/// A read-only convex piece: a CCW vertex ring that someone else owns (a
/// ConvexPolygon, a Region, or an OVR table's vertex pool). Rings with
/// fewer than 3 vertices are empty. Every per-ring measure is written
/// here once; the owning types forward to it.
class PieceView {
 public:
  PieceView() = default;
  explicit PieceView(std::span<const Point> vertices) : vertices_(vertices) {}

  std::span<const Point> vertices() const { return vertices_; }
  bool Empty() const { return vertices_.size() < 3; }
  size_t VertexCount() const { return vertices_.size(); }

  /// Unsigned area (shoelace).
  double Area() const;

  /// Area centroid; valid only for non-empty rings.
  Point Centroid() const;

  /// Minimum bounding rectangle.
  Rect Bbox() const;

  /// True when `p` is inside or on the boundary (exact predicates).
  bool Contains(const Point& p) const;

 private:
  std::span<const Point> vertices_;
};

/// A convex polygon with vertices in counterclockwise order.
///
/// This is the workhorse region representation of the library: ordinary
/// Voronoi cells are convex, and intersections of convex polygons stay
/// convex, so the entire RRB pipeline (paper §5.2) runs on this type.
/// Polygons with fewer than 3 vertices are empty by definition.
class ConvexPolygon {
 public:
  ConvexPolygon() = default;

  /// Takes ownership of a CCW convex vertex ring (no repeated last vertex).
  /// Collapses consecutive duplicate vertices. MOVD_DCHECKs convexity.
  explicit ConvexPolygon(std::vector<Point> vertices);

  /// The four corners of `r`, counterclockwise. Empty rect -> empty polygon.
  static ConvexPolygon FromRect(const Rect& r);

  /// Wraps an already-validated CCW ring without convexity checking. For
  /// trusted sources only (deserialization, clipper output): constructed
  /// intersection vertices can be convex only up to double rounding, which
  /// the checked constructor would reject in debug builds.
  static ConvexPolygon FromTrustedRing(std::vector<Point> vertices);

  /// Intersection of two convex polygons (Sutherland–Hodgman: clips `a` by
  /// every edge of `b`). Result is convex and CCW; may be empty.
  static ConvexPolygon Intersect(PieceView a, PieceView b);

  const std::vector<Point>& vertices() const { return vertices_; }
  bool Empty() const { return vertices_.size() < 3; }
  size_t VertexCount() const { return vertices_.size(); }

  PieceView view() const { return PieceView(vertices_); }
  operator PieceView() const { return view(); }  // implicit: a view

  double Area() const { return view().Area(); }
  Point Centroid() const { return view().Centroid(); }
  Rect Bbox() const { return view().Bbox(); }
  bool Contains(const Point& p) const { return view().Contains(p); }

  /// Clips in place against the half-plane to the left of the directed line
  /// a->b (points exactly on the line are kept).
  void ClipByHalfPlane(const Point& a, const Point& b);

  /// Removes degenerate output: if the area is below `min_area` the polygon
  /// becomes empty. Used to discard boundary-only overlap slivers
  /// (paper Property 4 guarantees real OVRs overlap only on boundaries).
  void DropIfSliver(double min_area);

 private:
  std::vector<Point> vertices_;
};

/// A simple polygon (possibly concave) with vertices in CCW order.
/// Used for polygonised weighted Voronoi cells and as a general input type;
/// converted to a piecewise-convex Region before entering the RRB pipeline.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> vertices);

  const std::vector<Point>& vertices() const { return vertices_; }
  bool Empty() const { return vertices_.size() < 3; }

  /// Signed area: positive for CCW rings.
  double SignedArea() const;

  /// True when every vertex turn is non-clockwise.
  bool IsConvex() const;

  Rect Bbox() const;

  /// Point-in-polygon by crossing number; boundary points count as inside.
  bool Contains(const Point& p) const;

  /// Ear-clipping triangulation (O(n^2)); requires a simple CCW ring.
  /// Degenerate (zero-area) ears are skipped.
  std::vector<ConvexPolygon> Triangulate() const;

 private:
  std::vector<Point> vertices_;
};

/// Convex pieces stored back to back: piece i is
/// vertices[starts[i], starts[i + 1]). `starts` always begins with 0 and
/// ends with vertices.size(); offsets are 32-bit (CheckedOffset guards
/// the 2^32 - 1 ceiling). The storage behind both an owning Region and an
/// OVR table's vertex pool.
struct PiecePool {
  FlatArray<Point> vertices;
  FlatArray<uint32_t> starts = {0};

  size_t PieceCount() const { return starts.size() - 1; }

  /// Appends one piece (the caller drops empty rings).
  void Append(std::span<const Point> ring);

  void Clear();
};

/// `n` as a 32-bit pool offset; aborts when it does not fit.
uint32_t CheckedOffset(size_t n);

/// The pieces of a RegionView, indexable and iterable as PieceViews.
class PieceRange {
 public:
  class Iterator {
   public:
    Iterator(const uint32_t* starts, const Point* vertices, size_t i)
        : starts_(starts), vertices_(vertices), i_(i) {}
    PieceView operator*() const { return Piece(starts_, vertices_, i_); }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }

   private:
    const uint32_t* starts_;
    const Point* vertices_;
    size_t i_;
  };

  PieceRange(const uint32_t* starts, size_t count, const Point* vertices)
      : starts_(starts), count_(count), vertices_(vertices) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  PieceView operator[](size_t i) const { return Piece(starts_, vertices_, i); }
  Iterator begin() const { return Iterator(starts_, vertices_, 0); }
  Iterator end() const { return Iterator(starts_, vertices_, count_); }

 private:
  static PieceView Piece(const uint32_t* starts, const Point* vertices,
                         size_t i) {
    return PieceView(std::span<const Point>(vertices + starts[i],
                                            starts[i + 1] - starts[i]));
  }

  const uint32_t* starts_;
  size_t count_;
  const Point* vertices_;
};

/// A read-only planar region: a union of interior-disjoint convex pieces
/// held in a PiecePool (an owning Region's, or an OVR table's shared one).
/// The region operations are written here once; Region forwards to them.
class RegionView {
 public:
  RegionView() = default;
  /// Pieces [first, first + count) of `pool`.
  RegionView(const PiecePool& pool, size_t first, size_t count)
      : starts_(pool.starts.data() + first),
        count_(count),
        vertices_(pool.vertices.data()) {}

  bool Empty() const { return count_ == 0; }
  PieceRange pieces() const { return {starts_, count_, vertices_}; }

  /// Total area (pieces are interior-disjoint by construction).
  double Area() const;

  /// MBR over all pieces.
  Rect Bbox() const;

  /// Total stored vertex count; proxy for the paper's memory metric.
  size_t VertexCount() const {
    return count_ == 0 ? 0 : starts_[count_] - starts_[0];
  }

  /// True when any piece contains `p`.
  bool Contains(const Point& p) const;

 private:
  const uint32_t* starts_ = nullptr;  // count_ + 1 offsets into vertices_
  size_t count_ = 0;
  const Point* vertices_ = nullptr;
};

/// Appends the pieces of a ∩ b to `out`: every piece pair whose boxes meet
/// is clipped as ConvexPolygon::Intersect clips (but through per-thread
/// scratch rings, allocating nothing), and kept unless its area is below
/// `min_area`. Returns the number of pieces appended. `out` must not hold
/// a or b.
size_t AppendRegionIntersection(RegionView a, RegionView b, double min_area,
                                PiecePool* out);

/// A planar region represented as a union of convex pieces.
///
/// Intersecting two regions is the pairwise intersection of their pieces;
/// since convex∩convex is convex, the representation is closed under the
/// only operation the MOVD overlap needs. Ordinary Voronoi cells enter as a
/// single piece; concave (polygonised weighted) cells enter triangulated.
/// Stored as one PiecePool, so a Region and a region inside an OVR table
/// share the RegionView operations.
class Region {
 public:
  Region() = default;

  static Region FromConvex(PieceView piece);
  static Region FromPolygon(const Polygon& polygon);
  static Region FromRect(const Rect& r);

  /// Wraps pre-validated pieces (deserialization); empty pieces dropped.
  static Region FromPieces(const std::vector<ConvexPolygon>& pieces);

  /// A copy of `view`'s pieces (empty pieces dropped).
  static Region FromView(RegionView view);

  /// Pairwise piece intersection; slivers below `min_area` are dropped.
  static Region Intersect(RegionView a, RegionView b,
                          double min_area = kDefaultMinPieceArea);

  RegionView view() const { return {pool_, 0, pool_.PieceCount()}; }
  operator RegionView() const { return view(); }  // implicit: a view

  bool Empty() const { return pool_.PieceCount() == 0; }
  PieceRange pieces() const { return view().pieces(); }
  double Area() const { return view().Area(); }
  Rect Bbox() const { return view().Bbox(); }
  size_t VertexCount() const { return pool_.vertices.size(); }
  bool Contains(const Point& p) const { return view().Contains(p); }

  /// Area threshold below which an intersection piece is considered a
  /// boundary-only sliver and discarded.
  static constexpr double kDefaultMinPieceArea = 1e-9;

 private:
  PiecePool pool_;
};

}  // namespace movd

#endif  // MOVD_GEOM_POLYGON_H_
