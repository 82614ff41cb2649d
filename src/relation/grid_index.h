#ifndef QSP_RELATION_GRID_INDEX_H_
#define QSP_RELATION_GRID_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "relation/spatial_index.h"
#include "relation/table.h"

namespace qsp {

/// Uniform 2-D grid index over the position columns of a Table. Supports
/// the server's repeated evaluation of merged range queries at a cost far
/// below a full scan, and exact cardinality counting for the
/// ExactEstimator.
///
/// The buckets are one CSR array of (row id, position) entries, grouped by
/// cell and ascending by id within a cell, so a query reads no Table. Each
/// cell also keeps the bounding box of the positions it holds: a cell whose
/// box lies inside the query rectangle is taken whole, without a per-row
/// test, and a cell whose box misses it is skipped. The index is a snapshot
/// of the rows the table held at construction.
///
/// Query gathers the cells' runs one after another and then orders them
/// (OrdersByBitmap): a dense answer sets one bit per id over its id span
/// and reads the bits back in order, a sparse one is sorted. The bitmap
/// is a thread-local buffer, so concurrent queries share nothing.
class GridIndex : public SpatialIndex {
 public:
  /// An answer whose id span needs at most this many 64-bit bitmap words
  /// per gathered id is ordered through the bitmap; a sparser one by
  /// std::sort.
  static constexpr size_t kBitmapWordsPerId = 8;

  /// The ordering rule: true when `count` distinct ids spanning
  /// [min_id, max_id] are ordered through the bitmap.
  static bool OrdersByBitmap(RowId min_id, RowId max_id, size_t count) {
    return BitmapWords(min_id, max_id) <= kBitmapWordsPerId * count;
  }

  /// Builds an index over `table` with `cells_x` x `cells_y` buckets
  /// covering `domain`. Rows outside the domain are clamped into the
  /// boundary cells so no row is lost.
  GridIndex(const Table& table, const Rect& domain, int cells_x = 64,
            int cells_y = 64);

  /// Row ids whose position lies in `rect`, in ascending id order.
  std::vector<RowId> Query(const Rect& rect) const override;

  /// Number of rows in `rect` (same pruning as Query, no materialization).
  size_t Count(const Rect& rect) const override;

  const Rect& domain() const { return domain_; }

 private:
  /// 64-bit words of a bitmap over the ids [min_id, max_id].
  static size_t BitmapWords(RowId min_id, RowId max_id) {
    return (static_cast<size_t>(max_id - min_id) >> 6) + 1;
  }

  size_t CellIndex(int cx, int cy) const {
    return static_cast<size_t>(cy) * static_cast<size_t>(cells_x_) +
           static_cast<size_t>(cx);
  }
  int ClampCellX(double x) const;
  int ClampCellY(double y) const;

  /// Calls visit(begin, end, whole) with the entry range of every cell
  /// whose box meets `rect`; `whole` is true when the box lies inside it.
  template <typename Visit>
  void VisitCells(const Rect& rect, const Visit& visit) const;

  Rect domain_;
  int cells_x_;
  int cells_y_;
  /// Cell c holds entries [cell_start_[c], cell_start_[c + 1]).
  std::vector<uint32_t> cell_start_;
  std::vector<RowId> ids_;
  /// Parallel to ids_.
  std::vector<Point> positions_;
  /// Bounding box of each cell's positions (empty for an empty cell).
  std::vector<Rect> cell_bounds_;
};

}  // namespace qsp

#endif  // QSP_RELATION_GRID_INDEX_H_
