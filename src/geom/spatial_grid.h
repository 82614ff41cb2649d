#ifndef QSP_GEOM_SPATIAL_GRID_H_
#define QSP_GEOM_SPATIAL_GRID_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.h"

namespace qsp {

/// Uniform spatial hash grid over axis-aligned rectangles, the candidate
/// index behind the planner's subquadratic merge pruning (DESIGN.md §8).
/// Each inserted id is bucketed into every cell its rectangle overlaps
/// (clamped to the grid bounds, so rectangles outside the bounds land in
/// the edge cells and are never lost). Queries return candidate ids by
/// cell overlap — a superset of the true rectangle overlaps — which is
/// exactly what a conservative pruning layer needs.
///
/// Every entry carries a weight (the planners store
/// plan::BenefitBounder::PartnerWeight: the group's exact cost, plus its
/// share of the irrelevant-data term when the bounds charge it), and the
/// grid keeps the exact maximum weight of each cell and of each kBlock x
/// kBlock block of cells, so a query can dismiss whole blocks and cells
/// by a test on their extent and heaviest entry (QueryPassing).
///
/// Empty rectangles have no position, so they are kept in a dedicated
/// "boundless" bucket that every query returns: an id the index cannot
/// localize must never be pruned by distance.
///
/// Deterministic by construction: a query returns each id once, in an
/// order fixed by the grid's contents (the cells' visit order, then the
/// boundless ids), so planners seeded from this index make the same
/// decisions on every run and thread count. Query results are unordered:
/// a caller that visits candidates against a running best sorts them
/// itself (IncrementalMerger::CandidateSlots, which every directed-search
/// restart runs); PairMerger's partner rows, clustering's intersecting
/// pairs and FreshPlanCostLowerBound do not depend on the order.
class SpatialGrid {
 public:
  /// Caller-owned deduplication scratch for the queries: one flag per
  /// id, all clear between queries (a query clears every flag it sets).
  /// Reusing one across queries keeps a query's cost proportional to the
  /// cells it visits and the ids it returns, and keeps the grid free of
  /// mutable state.
  using Seen = std::vector<uint8_t>;

  /// Side of a block, in cells.
  static constexpr int kBlock = 8;
  static_assert(kBlock <= 32, "a block row's test outcomes form one mask");

  /// Grid of `cells_x` x `cells_y` cells over `bounds` (both clamped to
  /// >= 1; an empty `bounds` degenerates to a single cell holding
  /// everything, which stays correct — just unselective).
  SpatialGrid(const Rect& bounds, int cells_x, int cells_y);

  /// Sizes a grid for a rectangle population: bounds = bounding union,
  /// cell edge ~ the average rectangle extent (the classic spatial-join
  /// heuristic: each rect overlaps O(1) cells, each cell holds O(1)
  /// rects on non-adversarial data), cell count clamped to keep memory
  /// linear in `rects.size()`. Join sizing suits queries whose reach is
  /// about one rectangle: Query(rect), LoadInRange.
  ///
  /// A positive `min_cell_edge` coarsens that grid so its cell edge is
  /// ~max(join edge, min_cell_edge) on each axis (+infinity gives one
  /// cell), for a QueryPassing walk that accepts cells far beyond one
  /// rectangle: it then tests fewer cells and blocks for the same ids.
  /// Coarsening never adds cells on either axis. The planners' partner
  /// walk sizes its grid this way (plan::BenefitBounder::PartnerGrid).
  static SpatialGrid ForRects(const std::vector<Rect>& rects,
                              double min_cell_edge = 0.0);

  /// Inserts `id` under `rect` with `weight`. Ids may repeat only after
  /// Remove.
  void Insert(uint32_t id, const Rect& rect, double weight = 0.0);

  /// Removes a previously inserted (id, rect) pair; `rect` must equal
  /// the rectangle given to Insert. The maxima of the cells and blocks
  /// it leaves are recomputed, so they stay exact.
  void Remove(uint32_t id, const Rect& rect);

  /// Appends to `out` the ids whose cell range overlaps `window`, plus
  /// every boundless id; the appended ids are unique and unordered. An
  /// empty window still returns the boundless ids.
  void Query(const Rect& window, Seen* seen, std::vector<uint32_t>* out) const;

  /// Appends to `out` the ids of the entries in every cell that `pass`
  /// accepts, plus every boundless id; the appended ids are unique and
  /// unordered. `pass(region, max_weight)` is asked about each
  /// block, then about each cell of an accepted block, row by row.
  /// `region` is a box that every rectangle bucketed there meets — the
  /// cells' extent, widened by a rounding slack and opened outward along
  /// the grid's edges, where CellOf clamps everything beyond the bounds —
  /// and `max_weight` is the largest weight inside (-inf for no entries).
  /// `pass` must be monotone: a block it rejects would have every cell
  /// in it rejected too. Query(window) is this walk over the window's
  /// cells with a test that accepts everything.
  template <typename Pass>
  void QueryPassing(const Pass& pass, Seen* seen,
                    std::vector<uint32_t>* out) const {
    Walk(0, 0, cells_x_ - 1, cells_y_ - 1, pass, seen, out);
  }

  /// Candidate load of `rect`: the number of (entry, cell) incidences in
  /// the cells `rect` covers, plus the boundless bucket — an O(cells
  /// covered) upper-bound proxy for how many candidate pairs a planner
  /// would enumerate around `rect`. Entries spanning several covered
  /// cells count once per cell (a walk over the cells visits them that
  /// often), which is exactly the property a planning-cost weight wants.
  /// An empty rect has no position, so its load is every inserted id:
  /// size().
  double LoadInRange(const Rect& rect) const;

  int cells_x() const { return cells_x_; }
  int cells_y() const { return cells_y_; }
  size_t size() const { return size_; }

 private:
  struct Entry {
    uint32_t id;
    double weight;
  };

  /// Cell coordinates covered by `rect`, clamped into the grid.
  void CellRange(const Rect& rect, int* cx_lo, int* cy_lo, int* cx_hi,
                 int* cy_hi) const;
  /// Cell containing point (x, y), clamped into the grid.
  void CellOf(double x, double y, int* cx, int* cy) const;
  size_t CellIndex(int cx, int cy) const {
    return static_cast<size_t>(cy) * cells_x_ + cx;
  }
  size_t BlockIndex(int cx, int cy) const {
    return static_cast<size_t>(cy / kBlock) * blocks_x_ + cx / kBlock;
  }
  /// The region QueryPassing reports for cells [cx_lo, cx_hi] x
  /// [cy_lo, cy_hi].
  Rect Region(int cx_lo, int cy_lo, int cx_hi, int cy_hi) const {
    return Rect(col_lo_[cx_lo], row_lo_[cy_lo], col_hi_[cx_hi],
                row_hi_[cy_hi]);
  }

  /// The one query walk: blocks of [cx_lo, cx_hi] x [cy_lo, cy_hi] that
  /// pass, then their cells that pass, deduplicated through `seen`.
  template <typename Pass>
  void Walk(int cx_lo, int cy_lo, int cx_hi, int cy_hi, const Pass& pass,
            Seen* seen, std::vector<uint32_t>* out) const;

  Rect bounds_;
  int cells_x_;
  int cells_y_;
  int blocks_x_;
  double cell_w_;
  double cell_h_;
  size_t size_ = 0;
  /// One past the largest placed id ever inserted: the size `seen` needs.
  size_t id_limit_ = 0;
  std::vector<std::vector<Entry>> cells_;
  std::vector<double> cell_max_;
  std::vector<double> block_max_;
  /// Column and row extents Region reports.
  std::vector<double> col_lo_, col_hi_, row_lo_, row_hi_;
  std::vector<uint32_t> boundless_;
};

template <typename Pass>
void SpatialGrid::Walk(int cx_lo, int cy_lo, int cx_hi, int cy_hi,
                       const Pass& pass, Seen* seen,
                       std::vector<uint32_t>* out) const {
  if (cells_.size() == 1) {
    // One cell holds each placed id once: nothing to deduplicate.
    if (pass(Region(0, 0, 0, 0), cell_max_[0])) {
      for (const Entry& e : cells_[0]) out->push_back(e.id);
    }
    out->insert(out->end(), boundless_.begin(), boundless_.end());
    return;
  }
  const size_t base = out->size();
  if (seen->size() < id_limit_) seen->resize(id_limit_, 0);
  uint8_t* flags = seen->data();
  for (int by0 = cy_lo - cy_lo % kBlock; by0 <= cy_hi; by0 += kBlock) {
    const int y0 = std::max(cy_lo, by0);
    const int y1 = std::min(cy_hi, by0 + kBlock - 1);
    for (int bx0 = cx_lo - cx_lo % kBlock; bx0 <= cx_hi; bx0 += kBlock) {
      const int x0 = std::max(cx_lo, bx0);
      const int x1 = std::min(cx_hi, bx0 + kBlock - 1);
      if (!pass(Region(x0, y0, x1, y1), block_max_[BlockIndex(bx0, by0)])) {
        continue;
      }
      for (int cy = y0; cy <= y1; ++cy) {
        // Test the row's cells without branching on the outcomes (they
        // are close to coin flips), then visit the cells that passed.
        uint32_t passing = 0;
        for (int cx = x0; cx <= x1; ++cx) {
          passing |= static_cast<uint32_t>(pass(Region(cx, cy, cx, cy),
                                                cell_max_[CellIndex(cx, cy)]))
                     << (cx - x0);
        }
        while (passing != 0) {
          const int cx = x0 + std::countr_zero(passing);
          passing &= passing - 1;
          for (const Entry& e : cells_[CellIndex(cx, cy)]) {
            if (flags[e.id] != 0) continue;
            flags[e.id] = 1;
            out->push_back(e.id);
          }
        }
      }
    }
  }
  for (size_t k = base; k < out->size(); ++k) flags[(*out)[k]] = 0;
  out->insert(out->end(), boundless_.begin(), boundless_.end());
}

}  // namespace qsp

#endif  // QSP_GEOM_SPATIAL_GRID_H_
