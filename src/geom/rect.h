#ifndef QSP_GEOM_RECT_H_
#define QSP_GEOM_RECT_H_

#include <algorithm>
#include <optional>
#include <string>

#include "geom/point.h"

namespace qsp {

/// Axis-aligned rectangle [x_lo, x_hi] x [y_lo, y_hi]. This is the shape
/// of the paper's geographic query
///   sigma_{c1 <= latitude <= c3  AND  c2 <= longitude <= c4} R
/// and of the bounding-rectangle merge procedure's output.
///
/// Rectangles are closed on all sides (the paper's predicates use <=). A
/// rectangle with x_lo > x_hi or y_lo > y_hi is "empty"; Rect::Empty()
/// returns a canonical empty value.
class Rect {
 public:
  /// Default: the canonical empty rectangle.
  Rect() : x_lo_(0), y_lo_(0), x_hi_(-1), y_hi_(-1) {}

  /// Builds from bounds; the constructor normalizes nothing — callers that
  /// may pass swapped bounds should use FromCorners.
  Rect(double x_lo, double y_lo, double x_hi, double y_hi)
      : x_lo_(x_lo), y_lo_(y_lo), x_hi_(x_hi), y_hi_(y_hi) {}

  /// Builds from two arbitrary corner points, normalizing the order.
  static Rect FromCorners(const Point& a, const Point& b);

  /// Builds from a center point and full extents.
  static Rect FromCenter(const Point& center, double width, double height);

  /// The canonical empty rectangle (contains nothing, area 0).
  static Rect Empty() { return Rect(); }

  double x_lo() const { return x_lo_; }
  double y_lo() const { return y_lo_; }
  double x_hi() const { return x_hi_; }
  double y_hi() const { return y_hi_; }

  bool IsEmpty() const { return x_lo_ > x_hi_ || y_lo_ > y_hi_; }

  double Width() const { return IsEmpty() ? 0.0 : x_hi_ - x_lo_; }
  double Height() const { return IsEmpty() ? 0.0 : y_hi_ - y_lo_; }
  double Area() const { return Width() * Height(); }

  Point Center() const { return {(x_lo_ + x_hi_) / 2, (y_lo_ + y_hi_) / 2}; }

  /// Closed-interval point containment (matches the <= query predicates).
  /// Inline and branch-free: index scans and client extractors call it
  /// once per row, on rows that fall on both sides of the edges. The first
  /// two terms are !IsEmpty().
  bool Contains(const Point& p) const {
    return (x_lo_ <= x_hi_) & (y_lo_ <= y_hi_) & (p.x >= x_lo_) &
           (p.x <= x_hi_) & (p.y >= y_lo_) & (p.y <= y_hi_);
  }

  /// True when `other` lies entirely within this rectangle. Every
  /// rectangle contains the empty rectangle.
  bool Contains(const Rect& other) const {
    if (other.IsEmpty()) return true;
    if (IsEmpty()) return false;
    return other.x_lo_ >= x_lo_ && other.x_hi_ <= x_hi_ &&
           other.y_lo_ >= y_lo_ && other.y_hi_ <= y_hi_;
  }

  /// True when the closed rectangles share at least one point.
  bool Intersects(const Rect& other) const {
    if (IsEmpty() || other.IsEmpty()) return false;
    return x_lo_ <= other.x_hi_ && other.x_lo_ <= x_hi_ &&
           y_lo_ <= other.y_hi_ && other.y_lo_ <= y_hi_;
  }

  /// The (possibly empty) intersection rectangle.
  Rect Intersection(const Rect& other) const {
    if (!Intersects(other)) return Empty();
    return Rect(std::max(x_lo_, other.x_lo_), std::max(y_lo_, other.y_lo_),
                std::min(x_hi_, other.x_hi_), std::min(y_hi_, other.y_hi_));
  }

  /// The smallest rectangle containing both inputs — the paper's
  /// bounding-rectangle merge of two queries (Figure 5a).
  Rect BoundingUnion(const Rect& other) const {
    if (IsEmpty()) return other;
    if (other.IsEmpty()) return *this;
    return Rect(std::min(x_lo_, other.x_lo_), std::min(y_lo_, other.y_lo_),
                std::max(x_hi_, other.x_hi_), std::max(y_hi_, other.y_hi_));
  }

  /// Clamps this rectangle to `bounds` (= Intersection, named for intent).
  Rect ClampTo(const Rect& bounds) const { return Intersection(bounds); }

  /// "[x_lo,y_lo..x_hi,y_hi]" for logs and test failures.
  std::string ToString() const;

  friend bool operator==(const Rect& a, const Rect& b);

 private:
  double x_lo_, y_lo_, x_hi_, y_hi_;
};

/// Area of the overlap of two rectangles (0 when disjoint).
double OverlapArea(const Rect& a, const Rect& b);

}  // namespace qsp

#endif  // QSP_GEOM_RECT_H_
