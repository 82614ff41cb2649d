#include "relation/grid_index.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/status.h"

namespace qsp {
namespace {

/// Cell of coordinate `v` on an axis of `cells` cells starting at `lo`.
/// Clamps in double before the cast, so far-out and infinite coordinates
/// land in a boundary cell; NaN lands in cell 0.
int ClampCell(double v, double lo, double extent, int cells) {
  double cell = (v - lo) / std::max(extent, 1e-300) * cells;
  if (!(cell > 0.0)) cell = 0.0;
  return static_cast<int>(std::min(cell, cells - 1.0));
}

}  // namespace

GridIndex::GridIndex(const Table& table, const Rect& domain, int cells_x,
                     int cells_y)
    : domain_(domain),
      cells_x_(std::max(1, cells_x)),
      cells_y_(std::max(1, cells_y)) {
  QSP_CHECK(!domain.IsEmpty());
  const size_t num_cells =
      static_cast<size_t>(cells_x_) * static_cast<size_t>(cells_y_);
  const size_t n = table.num_rows();
  // Counting sort by cell: count, prefix-sum, then place in id order so
  // each cell's ids come out ascending.
  std::vector<uint32_t> cell_of(n);
  cell_start_.assign(num_cells + 1, 0);
  for (RowId id = 0; id < n; ++id) {
    const Point p = table.PositionOf(id);
    const size_t cell = CellIndex(ClampCellX(p.x), ClampCellY(p.y));
    cell_of[id] = static_cast<uint32_t>(cell);
    ++cell_start_[cell + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) cell_start_[c + 1] += cell_start_[c];
  ids_.resize(n);
  positions_.resize(n);
  std::vector<uint32_t> next(cell_start_.begin(), cell_start_.end() - 1);
  for (RowId id = 0; id < n; ++id) {
    const uint32_t slot = next[cell_of[id]]++;
    ids_[slot] = id;
    positions_[slot] = table.PositionOf(id);
  }
  cell_bounds_.assign(num_cells, Rect::Empty());
  for (size_t c = 0; c < num_cells; ++c) {
    if (cell_start_[c] == cell_start_[c + 1]) continue;
    double x_lo = std::numeric_limits<double>::infinity();
    double y_lo = x_lo;
    double x_hi = -x_lo;
    double y_hi = -x_lo;
    for (size_t i = cell_start_[c]; i < cell_start_[c + 1]; ++i) {
      x_lo = std::min(x_lo, positions_[i].x);
      y_lo = std::min(y_lo, positions_[i].y);
      x_hi = std::max(x_hi, positions_[i].x);
      y_hi = std::max(y_hi, positions_[i].y);
    }
    cell_bounds_[c] = Rect(x_lo, y_lo, x_hi, y_hi);
  }
}

int GridIndex::ClampCellX(double x) const {
  return ClampCell(x, domain_.x_lo(), domain_.Width(), cells_x_);
}

int GridIndex::ClampCellY(double y) const {
  return ClampCell(y, domain_.y_lo(), domain_.Height(), cells_y_);
}

template <typename Visit>
void GridIndex::VisitCells(const Rect& rect, const Visit& visit) const {
  if (rect.IsEmpty()) return;
  const int cx_lo = ClampCellX(rect.x_lo());
  const int cx_hi = ClampCellX(rect.x_hi());
  const int cy_lo = ClampCellY(rect.y_lo());
  const int cy_hi = ClampCellY(rect.y_hi());
  for (int cy = cy_lo; cy <= cy_hi; ++cy) {
    for (int cx = cx_lo; cx <= cx_hi; ++cx) {
      const size_t cell = CellIndex(cx, cy);
      const Rect& bounds = cell_bounds_[cell];
      if (!rect.Intersects(bounds)) continue;
      visit(cell_start_[cell], cell_start_[cell + 1], rect.Contains(bounds));
    }
  }
}

std::vector<RowId> GridIndex::Query(const Rect& rect) const {
  std::vector<RowId> out;
  // Each cell's run is ascending, so its first and last ids bound it.
  RowId min_id = std::numeric_limits<RowId>::max();
  RowId max_id = 0;
  auto note_run = [&](size_t first) {
    if (first == out.size()) return;
    min_id = std::min(min_id, out[first]);
    max_id = std::max(max_id, out.back());
  };
  VisitCells(rect, [&](size_t begin, size_t end, bool whole) {
    const size_t first = out.size();
    if (whole) {
      out.insert(out.end(), ids_.begin() + static_cast<ptrdiff_t>(begin),
                 ids_.begin() + static_cast<ptrdiff_t>(end));
      note_run(first);
      return;
    }
    // Write every candidate and advance past the ones inside.
    size_t k = first;
    out.resize(k + (end - begin));
    for (size_t i = begin; i < end; ++i) {
      out[k] = ids_[i];
      k += rect.Contains(positions_[i]);
    }
    out.resize(k);
    note_run(first);
  });
  if (out.empty()) return out;
  if (!OrdersByBitmap(min_id, max_id, out.size())) {
    std::sort(out.begin(), out.end());
    return out;
  }
  // Every id occurs once (each row sits in one cell), so the set bits
  // read back in order are the answer. Reading a word clears it, which
  // leaves the buffer all zero for the thread's next query.
  thread_local std::vector<uint64_t> bits;
  const size_t words = BitmapWords(min_id, max_id);
  if (bits.size() < words) bits.resize(words, 0);
  for (const RowId id : out) {
    const RowId offset = id - min_id;
    bits[offset >> 6] |= uint64_t{1} << (offset & 63);
  }
  size_t k = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = bits[w];
    if (word == 0) continue;
    bits[w] = 0;
    const RowId base = min_id + static_cast<RowId>(w << 6);
    do {
      out[k++] = base + static_cast<RowId>(std::countr_zero(word));
      word &= word - 1;
    } while (word != 0);
  }
  return out;
}

size_t GridIndex::Count(const Rect& rect) const {
  size_t count = 0;
  VisitCells(rect, [&](size_t begin, size_t end, bool whole) {
    if (whole) {
      count += end - begin;
      return;
    }
    for (size_t i = begin; i < end; ++i) count += rect.Contains(positions_[i]);
  });
  return count;
}

}  // namespace qsp
