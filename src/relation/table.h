#ifndef QSP_RELATION_TABLE_H_
#define QSP_RELATION_TABLE_H_

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "relation/schema.h"
#include "relation/value.h"
#include "util/status.h"

namespace qsp {

/// Row identifier within a Table (stable; rows are append-only).
using RowId = uint32_t;

/// A column-store relation. By convention (matching the BADD example) the
/// first two columns are DOUBLE position attributes (x = longitude,
/// y = latitude); geographic range queries select on them.
///
/// Rows live in blocks of kBlockRows rows, so growing the table copies no
/// earlier block's rows. Each block keeps its rows' positions in one
/// contiguous Point column, and the remaining cells of each row as one run
/// of bytes at their wire widths: 8 per INT64 or DOUBLE, a 4-byte length
/// plus the characters per STRING. A row's wire size is therefore its 16
/// position bytes plus the length of its run, fixed once by Insert. row()
/// rebuilds a row's Values from the columns.
class Table {
 public:
  /// Rows per storage block.
  static constexpr size_t kBlockRows = 2048;

  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }

  /// Appends one validated row; returns its RowId. The position (the
  /// first two columns) must be finite, and a block's other cells may
  /// total at most 4 GiB (OutOfRange past that).
  Result<RowId> Insert(std::vector<Value> values);

  /// The values of one row, rebuilt from the columns; `id` must be
  /// < num_rows().
  std::vector<Value> row(RowId id) const;

  /// Position of a row (its first two columns); `id` must be < num_rows().
  Point PositionOf(RowId id) const {
    return blocks_[id / kBlockRows].positions[id % kBlockRows];
  }

  /// Row ids whose position lies in `rect` (closed bounds), in id order.
  /// This is the server's evaluation of a geographic query when no index
  /// is available — a full scan.
  std::vector<RowId> ScanRange(const Rect& rect) const;

  /// Number of rows in `rect`, via full scan.
  size_t CountRange(const Rect& rect) const;

  /// Row ids whose row satisfies `matches` (any callable taking the row
  /// values), in id order. Used for general selection predicates.
  template <typename Matcher>
  std::vector<RowId> ScanWhere(const Matcher& matches) const {
    std::vector<RowId> out;
    for (RowId id = 0; id < num_rows_; ++id) {
      if (matches(row(id))) out.push_back(id);
    }
    return out;
  }

  /// Wire size of one row in bytes (used by byte accounting): the sum of
  /// WireSize over its values.
  size_t RowWireSize(RowId id) const {
    const Block& block = blocks_[id / kBlockRows];
    const size_t i = id % kBlockRows;
    return kPositionBytes + block.cell_offsets[i + 1] - block.cell_offsets[i];
  }

  /// Mean wire size over all rows (0 if empty).
  double MeanRowWireSize() const;

 private:
  /// Wire bytes of the two DOUBLE position cells.
  static constexpr size_t kPositionBytes = 16;

  struct Block {
    std::vector<Point> positions;
    /// Row i's non-position cells are cells[cell_offsets[i],
    /// cell_offsets[i + 1]); cell_offsets starts at 0 and ends at
    /// cells.size().
    std::vector<uint32_t> cell_offsets;
    std::vector<char> cells;
  };

  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace qsp

#endif  // QSP_RELATION_TABLE_H_
