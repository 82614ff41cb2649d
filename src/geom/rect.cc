#include "geom/rect.h"

#include <algorithm>
#include <cstdio>

namespace qsp {

Rect::Rect() : x_lo_(0), y_lo_(0), x_hi_(-1), y_hi_(-1) {}

Rect::Rect(double x_lo, double y_lo, double x_hi, double y_hi)
    : x_lo_(x_lo), y_lo_(y_lo), x_hi_(x_hi), y_hi_(y_hi) {}

Rect Rect::FromCorners(const Point& a, const Point& b) {
  return Rect(std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
              std::max(a.y, b.y));
}

Rect Rect::FromCenter(const Point& center, double width, double height) {
  return Rect(center.x - width / 2, center.y - height / 2,
              center.x + width / 2, center.y + height / 2);
}

Rect Rect::Empty() { return Rect(); }

bool Rect::Contains(const Rect& other) const {
  if (other.IsEmpty()) return true;
  if (IsEmpty()) return false;
  return other.x_lo_ >= x_lo_ && other.x_hi_ <= x_hi_ &&
         other.y_lo_ >= y_lo_ && other.y_hi_ <= y_hi_;
}

bool Rect::Intersects(const Rect& other) const {
  if (IsEmpty() || other.IsEmpty()) return false;
  return x_lo_ <= other.x_hi_ && other.x_lo_ <= x_hi_ &&
         y_lo_ <= other.y_hi_ && other.y_lo_ <= y_hi_;
}

Rect Rect::Intersection(const Rect& other) const {
  if (!Intersects(other)) return Empty();
  return Rect(std::max(x_lo_, other.x_lo_), std::max(y_lo_, other.y_lo_),
              std::min(x_hi_, other.x_hi_), std::min(y_hi_, other.y_hi_));
}

Rect Rect::BoundingUnion(const Rect& other) const {
  if (IsEmpty()) return other;
  if (other.IsEmpty()) return *this;
  return Rect(std::min(x_lo_, other.x_lo_), std::min(y_lo_, other.y_lo_),
              std::max(x_hi_, other.x_hi_), std::max(y_hi_, other.y_hi_));
}

std::string Rect::ToString() const {
  if (IsEmpty()) return "[empty]";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "[%.6g,%.6g..%.6g,%.6g]", x_lo_, y_lo_,
                x_hi_, y_hi_);
  return buf;
}

bool operator==(const Rect& a, const Rect& b) {
  if (a.IsEmpty() && b.IsEmpty()) return true;
  return a.x_lo_ == b.x_lo_ && a.y_lo_ == b.y_lo_ && a.x_hi_ == b.x_hi_ &&
         a.y_hi_ == b.y_hi_;
}

double OverlapArea(const Rect& a, const Rect& b) {
  return a.Intersection(b).Area();
}

}  // namespace qsp
