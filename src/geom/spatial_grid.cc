#include "geom/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <cassert>
#include <limits>

namespace qsp {
namespace {

/// Extents of the `n` cells of one axis over [lo, hi] (cell size `step`),
/// as QueryPassing reports them. Cell k spans [lo + k*step,
/// lo + (k+1)*step], widened on both sides by a slack far above the
/// rounding CellOf's floor((x - lo) / step) can make, so a rectangle
/// bucketed into cell k always meets the reported extent. The first
/// cell opens to -inf and the last to +inf: CellOf clamps every
/// coordinate beyond the bounds into them.
void EdgesOf(double lo, double hi, double step, int n,
             std::vector<double>* cell_lo, std::vector<double>* cell_hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double slack = 1e-12 * (std::abs(lo) + std::abs(hi));
  cell_lo->resize(static_cast<size_t>(n));
  cell_hi->resize(static_cast<size_t>(n));
  for (size_t k = 0; k < cell_lo->size(); ++k) {
    (*cell_lo)[k] = lo + static_cast<double>(k) * step - slack;
    (*cell_hi)[k] = lo + static_cast<double>(k + 1) * step + slack;
  }
  cell_lo->front() = -kInf;
  cell_hi->back() = kInf;
}

/// Cells of edge ~`edge` across `span`: ceil(span / edge), clamped to
/// [1, 2^30] in double space BEFORE the int cast. A hairline population
/// (one axis extent ~0) makes the quotient overflow int range, an
/// infinite span or edge makes it NaN or 0, and casting an out-of-range
/// double to int is undefined behavior. 2^30 is far above any count the
/// cell cap could keep, so in-range populations size as if unclamped.
int AxisCells(double span, double edge) {
  constexpr double kMaxAxisCells = 1073741824.0;  // 2^30
  double cells = 1.0;
  if (edge > 0.0) cells = std::ceil(span / edge);
  if (!(cells > 1.0)) cells = 1.0;  // also catches NaN
  return static_cast<int>(std::min(cells, kMaxAxisCells));
}

}  // namespace

SpatialGrid::SpatialGrid(const Rect& bounds, int cells_x, int cells_y)
    : bounds_(bounds),
      cells_x_(std::max(1, cells_x)),
      cells_y_(std::max(1, cells_y)) {
  if (bounds_.IsEmpty() || !std::isfinite(bounds_.Width()) ||
      !std::isfinite(bounds_.Height())) {
    // Degenerate bounds: collapse to one cell; everything is a neighbor.
    bounds_ = Rect(0.0, 0.0, 0.0, 0.0);
    cells_x_ = 1;
    cells_y_ = 1;
  }
  cell_w_ = bounds_.Width() / cells_x_;
  cell_h_ = bounds_.Height() / cells_y_;
  const size_t cells = static_cast<size_t>(cells_x_) * cells_y_;
  cells_.resize(cells);
  constexpr double kNoWeight = -std::numeric_limits<double>::infinity();
  cell_max_.assign(cells, kNoWeight);
  blocks_x_ = (cells_x_ + kBlock - 1) / kBlock;
  const int blocks_y = (cells_y_ + kBlock - 1) / kBlock;
  block_max_.assign(static_cast<size_t>(blocks_x_) * blocks_y, kNoWeight);
  EdgesOf(bounds_.x_lo(), bounds_.x_hi(), cell_w_, cells_x_, &col_lo_,
          &col_hi_);
  EdgesOf(bounds_.y_lo(), bounds_.y_hi(), cell_h_, cells_y_, &row_lo_,
          &row_hi_);
}

SpatialGrid SpatialGrid::ForRects(const std::vector<Rect>& rects,
                                  double min_cell_edge) {
  Rect bounds = Rect::Empty();
  double extent_x = 0.0, extent_y = 0.0;
  size_t placed = 0;
  for (const Rect& r : rects) {
    if (r.IsEmpty()) continue;
    bounds = bounds.BoundingUnion(r);
    extent_x += r.Width();
    extent_y += r.Height();
    ++placed;
  }
  if (placed == 0) return SpatialGrid(Rect::Empty(), 1, 1);
  // Cell edge ~ mean rect extent (floored at a sliver of the bounds so
  // point rects don't explode the cell count), total cells capped at ~4n
  // to keep memory linear.
  const double min_w = bounds.Width() / 1024.0;
  const double min_h = bounds.Height() / 1024.0;
  const double placed_d = static_cast<double>(placed);
  int cx = AxisCells(bounds.Width(), std::max(extent_x / placed_d, min_w));
  int cy = AxisCells(bounds.Height(), std::max(extent_y / placed_d, min_h));
  const double cap = std::max(4.0 * placed_d, 16.0);
  // Halve the larger axis until the cell count is under the cap. The
  // cx/cy > 1 guard makes the loop provably terminating: every iteration
  // strictly decreases max(cx, cy) >= 2, and once both axes reach 1 the
  // loop exits no matter the cap — (1 + 1) / 2 == 1 would otherwise spin
  // forever whenever the cap sat below a single cell.
  while ((cx > 1 || cy > 1) && static_cast<double>(cx) * cy > cap) {
    if (cx >= cy) {
      cx = (cx + 1) / 2;
    } else {
      cy = (cy + 1) / 2;
    }
  }
  // Coarsening only ever lowers an axis's count, so the cap still holds.
  if (min_cell_edge > 0.0) {
    cx = std::min(cx, AxisCells(bounds.Width(), min_cell_edge));
    cy = std::min(cy, AxisCells(bounds.Height(), min_cell_edge));
  }
  return SpatialGrid(bounds, cx, cy);
}

void SpatialGrid::CellOf(double x, double y, int* cx, int* cy) const {
  // Clamp in double space BEFORE the int cast: query windows may carry
  // infinite coordinates (an unbounded search reach), and casting a
  // non-finite double to int is undefined behavior.
  double fx = 0.0, fy = 0.0;
  if (cell_w_ > 0.0) fx = std::floor((x - bounds_.x_lo()) / cell_w_);
  if (cell_h_ > 0.0) fy = std::floor((y - bounds_.y_lo()) / cell_h_);
  if (!(fx > 0.0)) fx = 0.0;  // also catches NaN
  if (!(fy > 0.0)) fy = 0.0;
  fx = std::min(fx, static_cast<double>(cells_x_ - 1));
  fy = std::min(fy, static_cast<double>(cells_y_ - 1));
  *cx = static_cast<int>(fx);
  *cy = static_cast<int>(fy);
}

void SpatialGrid::CellRange(const Rect& rect, int* cx_lo, int* cy_lo,
                            int* cx_hi, int* cy_hi) const {
  CellOf(rect.x_lo(), rect.y_lo(), cx_lo, cy_lo);
  CellOf(rect.x_hi(), rect.y_hi(), cx_hi, cy_hi);
}

void SpatialGrid::Insert(uint32_t id, const Rect& rect, double weight) {
  if (rect.IsEmpty()) {
    boundless_.push_back(id);
    ++size_;
    return;
  }
  int cx_lo, cy_lo, cx_hi, cy_hi;
  CellRange(rect, &cx_lo, &cy_lo, &cx_hi, &cy_hi);
  for (int cy = cy_lo; cy <= cy_hi; ++cy) {
    for (int cx = cx_lo; cx <= cx_hi; ++cx) {
      const size_t c = CellIndex(cx, cy);
      cells_[c].push_back({id, weight});
      cell_max_[c] = std::max(cell_max_[c], weight);
      double& block = block_max_[BlockIndex(cx, cy)];
      block = std::max(block, weight);
    }
  }
  id_limit_ = std::max<size_t>(id_limit_, static_cast<size_t>(id) + 1);
  ++size_;
}

void SpatialGrid::Remove(uint32_t id, const Rect& rect) {
  if (rect.IsEmpty()) {
    auto it = std::find(boundless_.begin(), boundless_.end(), id);
    if (it != boundless_.end()) {
      boundless_.erase(it);
      --size_;
    }
    return;
  }
  int cx_lo, cy_lo, cx_hi, cy_hi;
  CellRange(rect, &cx_lo, &cy_lo, &cx_hi, &cy_hi);
  constexpr double kNoWeight = -std::numeric_limits<double>::infinity();
  bool found = false;
  double weight = kNoWeight;
  for (int cy = cy_lo; cy <= cy_hi; ++cy) {
    for (int cx = cx_lo; cx <= cx_hi; ++cx) {
      const size_t c = CellIndex(cx, cy);
      auto& cell = cells_[c];
      auto it = std::find_if(cell.begin(), cell.end(),
                             [id](const Entry& e) { return e.id == id; });
      if (it == cell.end()) continue;
      found = true;
      weight = it->weight;
      cell.erase(it);
      if (weight < cell_max_[c]) continue;
      cell_max_[c] = kNoWeight;
      for (const Entry& e : cell) {
        cell_max_[c] = std::max(cell_max_[c], e.weight);
      }
    }
  }
  if (!found) return;
  --size_;
  // Blocks the rectangle touched, recomputed from their cells' maxima.
  for (int by0 = cy_lo - cy_lo % kBlock; by0 <= cy_hi; by0 += kBlock) {
    for (int bx0 = cx_lo - cx_lo % kBlock; bx0 <= cx_hi; bx0 += kBlock) {
      double& block = block_max_[BlockIndex(bx0, by0)];
      if (weight < block) continue;
      block = kNoWeight;
      for (int cy = by0; cy < std::min(by0 + kBlock, cells_y_); ++cy) {
        for (int cx = bx0; cx < std::min(bx0 + kBlock, cells_x_); ++cx) {
          block = std::max(block, cell_max_[CellIndex(cx, cy)]);
        }
      }
    }
  }
}

void SpatialGrid::Query(const Rect& window, Seen* seen,
                        std::vector<uint32_t>* out) const {
  if (window.IsEmpty()) {
    // No position, so no cell matches: only the boundless ids return.
    Walk(0, 0, 0, 0, [](const Rect&, double) { return false; }, seen, out);
    return;
  }
  int cx_lo, cy_lo, cx_hi, cy_hi;
  CellRange(window, &cx_lo, &cy_lo, &cx_hi, &cy_hi);
  Walk(cx_lo, cy_lo, cx_hi, cy_hi, [](const Rect&, double) { return true; },
       seen, out);
}

double SpatialGrid::LoadInRange(const Rect& rect) const {
  if (rect.IsEmpty()) return static_cast<double>(size_);
  double load = static_cast<double>(boundless_.size());
  int cx_lo, cy_lo, cx_hi, cy_hi;
  CellRange(rect, &cx_lo, &cy_lo, &cx_hi, &cy_hi);
  for (int cy = cy_lo; cy <= cy_hi; ++cy) {
    for (int cx = cx_lo; cx <= cx_hi; ++cx) {
      load += static_cast<double>(
          cells_[CellIndex(cx, cy)].size());
    }
  }
  return load;
}

}  // namespace qsp
