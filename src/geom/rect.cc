#include "geom/rect.h"

#include <algorithm>
#include <cstdio>

namespace qsp {

Rect Rect::FromCorners(const Point& a, const Point& b) {
  return Rect(std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
              std::max(a.y, b.y));
}

Rect Rect::FromCenter(const Point& center, double width, double height) {
  return Rect(center.x - width / 2, center.y - height / 2,
              center.x + width / 2, center.y + height / 2);
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
