#include "viz/svg.h"

#include <cstdio>

#include "util/check.h"

namespace movd {
namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

SvgWriter::SvgWriter(const Rect& world, double width_px)
    : world_(world), width_px_(width_px) {
  MOVD_CHECK(!world.Empty());
  scale_ = width_px_ / world_.Width();
  height_px_ = world_.Height() * scale_;
}

Point SvgWriter::Map(const Point& p) const {
  return {(p.x - world_.min_x) * scale_,
          height_px_ - (p.y - world_.min_y) * scale_};
}

void SvgWriter::AddRing(std::span<const Point> ring,
                        const std::string& fill, const std::string& stroke,
                        double stroke_width, double fill_opacity) {
  if (ring.size() < 2) return;
  body_ += "<polygon points=\"";
  for (const Point& p : ring) {
    const Point m = Map(p);
    body_ += Num(m.x) + "," + Num(m.y) + " ";
  }
  body_ += "\" fill=\"" + fill + "\" fill-opacity=\"" + Num(fill_opacity) +
           "\" stroke=\"" + stroke + "\" stroke-width=\"" +
           Num(stroke_width) + "\"/>\n";
}

void SvgWriter::AddPolygon(PieceView poly, const std::string& fill,
                           const std::string& stroke, double stroke_width,
                           double fill_opacity) {
  AddRing(poly.vertices(), fill, stroke, stroke_width, fill_opacity);
}

void SvgWriter::AddPolygon(const Polygon& poly, const std::string& fill,
                           const std::string& stroke, double stroke_width,
                           double fill_opacity) {
  AddRing(poly.vertices(), fill, stroke, stroke_width, fill_opacity);
}

void SvgWriter::AddRect(const Rect& r, const std::string& fill,
                        const std::string& stroke, double stroke_width,
                        double fill_opacity) {
  if (r.Empty()) return;
  const Point corners[] = {{r.min_x, r.min_y},
                           {r.max_x, r.min_y},
                           {r.max_x, r.max_y},
                           {r.min_x, r.max_y}};
  AddRing(corners, fill, stroke, stroke_width, fill_opacity);
}

void SvgWriter::AddCircle(const Point& center, double radius_px,
                          const std::string& fill) {
  const Point m = Map(center);
  body_ += "<circle cx=\"" + Num(m.x) + "\" cy=\"" + Num(m.y) + "\" r=\"" +
           Num(radius_px) + "\" fill=\"" + fill + "\"/>\n";
}

void SvgWriter::AddLine(const Point& a, const Point& b,
                        const std::string& stroke, double stroke_width) {
  const Point ma = Map(a);
  const Point mb = Map(b);
  body_ += "<line x1=\"" + Num(ma.x) + "\" y1=\"" + Num(ma.y) + "\" x2=\"" +
           Num(mb.x) + "\" y2=\"" + Num(mb.y) + "\" stroke=\"" + stroke +
           "\" stroke-width=\"" + Num(stroke_width) + "\"/>\n";
}

void SvgWriter::AddText(const Point& at, const std::string& text,
                        double font_size_px) {
  const Point m = Map(at);
  body_ += "<text x=\"" + Num(m.x) + "\" y=\"" + Num(m.y) +
           "\" font-size=\"" + Num(font_size_px) +
           "\" font-family=\"sans-serif\">" + text + "</text>\n";
}

std::string SvgWriter::ToString() const {
  return "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
         Num(width_px_) + "\" height=\"" + Num(height_px_) +
         "\" viewBox=\"0 0 " + Num(width_px_) + " " + Num(height_px_) +
         "\">\n" + body_ + "</svg>\n";
}

Status SvgWriter::Save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("SvgWriter::Save: cannot open " + path);
  }
  const std::string doc = ToString();
  const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    return Status::IoError("SvgWriter::Save: short write to " + path);
  }
  return Status::Ok();
}

}  // namespace movd
