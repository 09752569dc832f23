#ifndef MOVD_VIZ_SVG_H_
#define MOVD_VIZ_SVG_H_

#include <span>
#include <string>
#include <vector>

#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/rect.h"
#include "util/status.h"

namespace movd {

/// Minimal SVG document writer used by the examples to render Voronoi
/// diagrams, MOVDs, and query answers. World coordinates are mapped to a
/// fixed-size canvas with the y axis flipped (SVG y grows downward).
class SvgWriter {
 public:
  /// `world` is the region mapped onto a canvas of `width_px` pixels
  /// (height follows the world aspect ratio).
  SvgWriter(const Rect& world, double width_px = 800.0);

  void AddPolygon(PieceView poly, const std::string& fill,
                  const std::string& stroke, double stroke_width = 1.0,
                  double fill_opacity = 0.35);
  void AddPolygon(const Polygon& poly, const std::string& fill,
                  const std::string& stroke, double stroke_width = 1.0,
                  double fill_opacity = 0.35);
  void AddRect(const Rect& r, const std::string& fill,
               const std::string& stroke, double stroke_width = 1.0,
               double fill_opacity = 0.2);
  void AddCircle(const Point& center, double radius_px,
                 const std::string& fill);
  void AddLine(const Point& a, const Point& b, const std::string& stroke,
               double stroke_width = 1.0);
  void AddText(const Point& at, const std::string& text,
               double font_size_px = 12.0);

  /// Serialises the document to `path`.
  Status Save(const std::string& path) const;

  /// The document body (for tests).
  std::string ToString() const;

 private:
  Point Map(const Point& world_point) const;
  void AddRing(std::span<const Point> ring, const std::string& fill,
               const std::string& stroke, double stroke_width,
               double fill_opacity);

  Rect world_;
  double width_px_;
  double height_px_;
  double scale_;
  std::string body_;
};

}  // namespace movd

#endif  // MOVD_VIZ_SVG_H_
