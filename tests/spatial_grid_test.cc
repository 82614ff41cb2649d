// SpatialGrid (geom/spatial_grid.h): the candidate index behind the
// planner's pruning. Candidate generation must be conservative — Query
// returns a superset of the true window overlaps plus every boundless id
// (an id the index cannot localize is a candidate against everything),
// and QueryPassing sees exact per-cell and per-block weight maxima — and
// deterministic (deduplicated, each id once).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "geom/spatial_grid.h"
#include "util/rng.h"

namespace qsp {
namespace {

std::vector<Rect> RandomRects(size_t n, uint64_t seed, double empty_prob) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.UniformDouble(0, 1) < empty_prob) {
      rects.push_back(Rect::Empty());
      continue;
    }
    const double x = rng.UniformDouble(0, 900);
    const double y = rng.UniformDouble(0, 900);
    rects.push_back(Rect(x, y, x + rng.UniformDouble(0.1, 120),
                         y + rng.UniformDouble(0.1, 120)));
  }
  return rects;
}

TEST(SpatialGridTest, QueryReturnsSupersetOfTrueOverlaps) {
  const std::vector<Rect> rects = RandomRects(300, 7, 0.05);
  SpatialGrid grid = SpatialGrid::ForRects(rects);
  for (size_t i = 0; i < rects.size(); ++i) {
    grid.Insert(static_cast<uint32_t>(i), rects[i]);
  }
  EXPECT_EQ(grid.size(), rects.size());

  Rng rng(8);
  std::vector<uint32_t> out;
  SpatialGrid::Seen seen;
  for (int trial = 0; trial < 50; ++trial) {
    const double x = rng.UniformDouble(-50, 950);
    const double y = rng.UniformDouble(-50, 950);
    const Rect window(x, y, x + rng.UniformDouble(1, 300),
                      y + rng.UniformDouble(1, 300));
    out.clear();
    grid.Query(window, &seen, &out);
    // Deduplicated (the ids come unordered, so check a sorted copy).
    std::vector<uint32_t> sorted = out;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    // Superset of the brute-force overlaps; empty rects always present.
    const std::set<uint32_t> returned(out.begin(), out.end());
    for (size_t i = 0; i < rects.size(); ++i) {
      if (rects[i].IsEmpty() || rects[i].Intersects(window)) {
        EXPECT_TRUE(returned.count(static_cast<uint32_t>(i)))
            << "id " << i << " missing for window " << window.ToString();
      }
    }
  }
}

TEST(SpatialGridTest, RemoveDropsIdFromQueriesAndWalks) {
  SpatialGrid grid(Rect(0, 0, 100, 100), 8, 8);
  grid.Insert(0, Rect(10, 10, 30, 30));
  grid.Insert(1, Rect(20, 20, 40, 40));
  grid.Insert(2, Rect::Empty());
  EXPECT_EQ(grid.size(), 3u);

  grid.Remove(1, Rect(20, 20, 40, 40));
  grid.Remove(2, Rect::Empty());
  EXPECT_EQ(grid.size(), 1u);

  std::vector<uint32_t> out;
  SpatialGrid::Seen seen;
  grid.Query(Rect(0, 0, 100, 100), &seen, &out);
  EXPECT_EQ(out, std::vector<uint32_t>({0}));
  out.clear();
  grid.QueryPassing([](const Rect&, double) { return true; }, &seen, &out);
  EXPECT_EQ(out, std::vector<uint32_t>({0}));

  // Reinsert under a different rect; the id is live again.
  grid.Insert(1, Rect(25, 25, 35, 35));
  out.clear();
  grid.Query(Rect(24, 24, 26, 26), &seen, &out);
  EXPECT_EQ(out, std::vector<uint32_t>({0, 1}));
}

TEST(SpatialGridTest, OutOfBoundsRectsClampToEdgeCellsAndAreFound) {
  SpatialGrid grid(Rect(0, 0, 100, 100), 10, 10);
  grid.Insert(0, Rect(-500, -500, -400, -400));
  grid.Insert(1, Rect(400, 400, 500, 500));
  std::vector<uint32_t> out;
  SpatialGrid::Seen seen;
  grid.Query(Rect(-450, -450, -440, -440), &seen, &out);
  EXPECT_TRUE(std::count(out.begin(), out.end(), 0u));
  out.clear();
  grid.Query(Rect(440, 440, 450, 450), &seen, &out);
  EXPECT_TRUE(std::count(out.begin(), out.end(), 1u));
}

TEST(SpatialGridTest, DegenerateBoundsCollapseToOneCell) {
  SpatialGrid grid(Rect::Empty(), 16, 16);
  EXPECT_EQ(grid.cells_x(), 1);
  EXPECT_EQ(grid.cells_y(), 1);
  grid.Insert(0, Rect(0, 0, 1, 1));
  grid.Insert(1, Rect(1000, 1000, 1001, 1001));
  std::vector<uint32_t> out;
  SpatialGrid::Seen seen;
  grid.Query(Rect(500, 500, 501, 501), &seen, &out);
  // One cell holds everything: unselective but never wrong.
  EXPECT_EQ(out, std::vector<uint32_t>({0, 1}));
}

TEST(SpatialGridTest, InfiniteAndEmptyWindowsAreSafe) {
  const std::vector<Rect> rects = RandomRects(50, 9, 0.0);
  SpatialGrid grid = SpatialGrid::ForRects(rects);
  for (size_t i = 0; i < rects.size(); ++i) {
    grid.Insert(static_cast<uint32_t>(i), rects[i]);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<uint32_t> out;
  SpatialGrid::Seen seen;
  // The unbounded window a non-distance-aware bounder produces.
  grid.Query(Rect(-kInf, -kInf, kInf, kInf), &seen, &out);
  EXPECT_EQ(out.size(), rects.size());
  // An empty window returns only boundless ids — here, none.
  out.clear();
  grid.Query(Rect::Empty(), &seen, &out);
  EXPECT_TRUE(out.empty());
  grid.Insert(99, Rect::Empty());
  grid.Query(Rect::Empty(), &seen, &out);
  EXPECT_EQ(out, std::vector<uint32_t>({99}));
}

TEST(SpatialGridTest, ForRectsHandlesDegeneratePopulations) {
  // All empty.
  {
    SpatialGrid grid = SpatialGrid::ForRects(
        {Rect::Empty(), Rect::Empty(), Rect::Empty()});
    grid.Insert(0, Rect::Empty());
    std::vector<uint32_t> out;
    SpatialGrid::Seen seen;
    grid.Query(Rect(0, 0, 1, 1), &seen, &out);
    EXPECT_EQ(out, std::vector<uint32_t>({0}));
  }
  // No rects at all.
  {
    SpatialGrid grid = SpatialGrid::ForRects({});
    std::vector<uint32_t> out;
    SpatialGrid::Seen seen;
    grid.Query(Rect(0, 0, 1, 1), &seen, &out);
    EXPECT_TRUE(out.empty());
  }
  // One point-like rect.
  {
    SpatialGrid grid = SpatialGrid::ForRects({Rect(5, 5, 5, 5)});
    grid.Insert(0, Rect(5, 5, 5, 5));
    std::vector<uint32_t> out;
    SpatialGrid::Seen seen;
    grid.Query(Rect(4, 4, 6, 6), &seen, &out);
    EXPECT_EQ(out, std::vector<uint32_t>({0}));
  }
}

// Brute-force model of a weighted grid over [0, 100]^2 in 20 x 12 cells:
// blocks of 8 x 8 cells, so the last block column and row are partial.
// Cell membership replays CellOf's arithmetic on the same bounds.
struct GridModel {
  static constexpr int kCellsX = 20;
  static constexpr int kCellsY = 12;
  struct Item {
    uint32_t id;
    Rect rect;
    double weight;
  };
  std::vector<Item> items;

  static int Cell(double v, double step, int n) {
    double f = std::floor(v / step);
    if (!(f > 0.0)) f = 0.0;
    return static_cast<int>(std::min(f, static_cast<double>(n - 1)));
  }
  static bool Covers(const Rect& r, int cx, int cy) {
    constexpr double kW = 100.0 / kCellsX;
    constexpr double kH = 100.0 / kCellsY;
    return !r.IsEmpty() && Cell(r.x_lo(), kW, kCellsX) <= cx &&
           cx <= Cell(r.x_hi(), kW, kCellsX) &&
           Cell(r.y_lo(), kH, kCellsY) <= cy &&
           cy <= Cell(r.y_hi(), kH, kCellsY);
  }
  std::vector<const Item*> InCell(int cx, int cy) const {
    std::vector<const Item*> in;
    for (const Item& it : items) {
      if (Covers(it.rect, cx, cy)) in.push_back(&it);
    }
    return in;
  }
  static double MaxOf(const std::vector<const Item*>& in) {
    double m = -std::numeric_limits<double>::infinity();
    for (const Item* it : in) m = std::max(m, it->weight);
    return m;
  }
};

// Weighted grid under random Insert/Remove churn, with ids reused after
// removal, out-of-bounds, zero-width and empty rectangles. After every
// operation the walk must report each block's and each cell's exact
// maximum weight, in walk order, with a region every rectangle in the
// cell meets; and a weight-filtered query must return exactly the
// unique ids of the entries in passing cells plus every boundless id, in
// any order, leaving the caller's flags clear.
TEST(SpatialGridTest, WeightedMaximaStayExactUnderChurn) {
  using Model = GridModel;
  SpatialGrid grid(Rect(0, 0, 100, 100), Model::kCellsX, Model::kCellsY);
  Model model;
  Rng rng(31);
  SpatialGrid::Seen seen;
  std::vector<uint32_t> free_ids;
  uint32_t next_id = 0;
  for (int op = 0; op < 600; ++op) {
    if (model.items.empty() || rng.UniformDouble(0, 1) < 0.6) {
      Rect rect = Rect::Empty();
      const double kind = rng.UniformDouble(0, 1);
      if (kind >= 0.1) {
        const double x = rng.UniformDouble(-30, 120);
        const double y = rng.UniformDouble(-30, 120);
        const double w = kind < 0.2 ? 0.0 : rng.UniformDouble(0, 40);
        rect = Rect(x, y, x + w, y + rng.UniformDouble(0, 25));
      }
      uint32_t id = next_id;
      if (!free_ids.empty() && rng.UniformDouble(0, 1) < 0.5) {
        id = free_ids.back();
        free_ids.pop_back();
      } else {
        ++next_id;
      }
      const double weight = std::floor(rng.UniformDouble(0, 50));
      grid.Insert(id, rect, weight);
      model.items.push_back({id, rect, weight});
    } else {
      const size_t k = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(model.items.size()) - 1));
      grid.Remove(model.items[k].id, model.items[k].rect);
      free_ids.push_back(model.items[k].id);
      model.items.erase(model.items.begin() + static_cast<ptrdiff_t>(k));
    }
    ASSERT_EQ(grid.size(), model.items.size());

    // The expected walk: blocks in row-major order, each followed by its
    // cells in row-major order.
    std::vector<double> want_max;
    std::vector<std::pair<int, int>> want_cell;  // (-1, -1) for a block
    for (int by = 0; by < Model::kCellsY; by += SpatialGrid::kBlock) {
      for (int bx = 0; bx < Model::kCellsX; bx += SpatialGrid::kBlock) {
        std::vector<const Model::Item*> block;
        for (int cy = by; cy < std::min(by + 8, Model::kCellsY); ++cy) {
          for (int cx = bx; cx < std::min(bx + 8, Model::kCellsX); ++cx) {
            for (const Model::Item* it : model.InCell(cx, cy)) {
              block.push_back(it);
            }
          }
        }
        want_max.push_back(Model::MaxOf(block));
        want_cell.push_back({-1, -1});
        for (int cy = by; cy < std::min(by + 8, Model::kCellsY); ++cy) {
          for (int cx = bx; cx < std::min(bx + 8, Model::kCellsX); ++cx) {
            want_max.push_back(Model::MaxOf(model.InCell(cx, cy)));
            want_cell.push_back({cx, cy});
          }
        }
      }
    }
    std::vector<double> got_max;
    std::vector<uint32_t> out;
    grid.QueryPassing(
        [&](const Rect& region, double max_weight) {
          const size_t k = got_max.size();
          got_max.push_back(max_weight);
          if (k < want_cell.size() && want_cell[k].first >= 0) {
            for (const Model::Item* it :
                 model.InCell(want_cell[k].first, want_cell[k].second)) {
              EXPECT_TRUE(it->rect.Intersects(region))
                  << "op " << op << ": id " << it->id << " "
                  << it->rect.ToString() << " misses its cell's region "
                  << region.ToString();
            }
          }
          return true;
        },
        &seen, &out);
    ASSERT_EQ(got_max, want_max) << "op " << op;
    std::vector<uint32_t> all;
    for (const Model::Item& it : model.items) all.push_back(it.id);
    std::sort(all.begin(), all.end());
    std::sort(out.begin(), out.end());
    ASSERT_EQ(out, all) << "op " << op;

    // Filtered: a cell passes when its heaviest entry reaches the
    // threshold (monotone: a block's maximum is its cells' maximum).
    const double threshold = std::floor(rng.UniformDouble(0, 55));
    std::vector<uint32_t> want;
    for (const Model::Item& it : model.items) {
      bool passes = it.rect.IsEmpty();
      for (int cy = 0; cy < Model::kCellsY && !passes; ++cy) {
        for (int cx = 0; cx < Model::kCellsX && !passes; ++cx) {
          passes = Model::Covers(it.rect, cx, cy) &&
                   Model::MaxOf(model.InCell(cx, cy)) >= threshold;
        }
      }
      if (passes) want.push_back(it.id);
    }
    std::sort(want.begin(), want.end());
    out.assign({7u});  // queries append after what the caller holds
    grid.QueryPassing(
        [threshold](const Rect&, double max_weight) {
          return max_weight >= threshold;
        },
        &seen, &out);
    ASSERT_EQ(out.front(), 7u);
    std::vector<uint32_t> got(out.begin() + 1, out.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "op " << op << " threshold " << threshold;
    ASSERT_EQ(std::count(seen.begin(), seen.end(), 0),
              static_cast<ptrdiff_t>(seen.size()))
        << "op " << op << ": the query left flags set";
  }
}

// Coarsened sizings of `rects` (the planners' reach-sized partner
// grids, down to one cell) terminate on any population, never add cells
// on either axis over join sizing, and still find every placed rect.
void ExpectCoarseningsSound(const std::vector<Rect>& rects) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const SpatialGrid join = SpatialGrid::ForRects(rects);
  for (const double edge : {1e-300, 1.0, 1e6, 1e300, kInf,
                            std::numeric_limits<double>::quiet_NaN()}) {
    SpatialGrid grid = SpatialGrid::ForRects(rects, edge);
    EXPECT_GE(grid.cells_x(), 1) << "edge " << edge;
    EXPECT_GE(grid.cells_y(), 1) << "edge " << edge;
    EXPECT_LE(grid.cells_x(), join.cells_x()) << "edge " << edge;
    EXPECT_LE(grid.cells_y(), join.cells_y()) << "edge " << edge;
    if (edge == kInf) {
      EXPECT_EQ(grid.cells_x() * grid.cells_y(), 1);
    }
    for (size_t i = 0; i < rects.size(); ++i) {
      grid.Insert(static_cast<uint32_t>(i), rects[i]);
    }
    SpatialGrid::Seen seen;
    for (size_t i = 0; i < rects.size(); ++i) {
      std::vector<uint32_t> out;
      grid.Query(rects[i], &seen, &out);
      EXPECT_TRUE(std::count(out.begin(), out.end(), static_cast<uint32_t>(i)))
          << "edge " << edge << " rect " << i;
    }
  }
}

// Regression (ISSUE 8): the cell-cap loop halves cx/cy with (c + 1) / 2,
// which is a fixed point at 1, and the ideal counts used to be cast to
// int before any finiteness check — sizing must provably terminate (and
// stay within the ~4n memory cap) for pathological aspect ratios and
// overflowing coordinate spans.
TEST(SpatialGridTest, ForRectsTerminatesOnDegenerateAspectRatios) {
  // Two point rects at a huge separation: per-axis extents are 0, so the
  // sliver floor (bounds/1024) drives the ideal counts to their 1024
  // maximum on both axes while the cap is only 16 — the halving loop
  // must converge from far above the cap.
  {
    std::vector<Rect> rects = {Rect(0, 0, 0, 0),
                               Rect(1e300, 1e300, 1e300, 1e300)};
    SpatialGrid grid = SpatialGrid::ForRects(rects);
    EXPECT_GE(grid.cells_x(), 1);
    EXPECT_GE(grid.cells_y(), 1);
    EXPECT_LE(static_cast<double>(grid.cells_x()) * grid.cells_y(), 16.0);
    for (size_t i = 0; i < rects.size(); ++i) {
      grid.Insert(static_cast<uint32_t>(i), rects[i]);
    }
    std::vector<uint32_t> out;
    SpatialGrid::Seen seen;
    grid.Query(Rect(-1, -1, 1, 1), &seen, &out);
    EXPECT_TRUE(std::count(out.begin(), out.end(), 0u));
    ExpectCoarseningsSound(rects);
  }
  // Coordinate span that overflows double subtraction: the bounding
  // union's Width() is +inf, so the ideal count is ceil(inf / inf) = NaN
  // — which the old code cast straight to int (undefined behavior). The
  // sized grid degenerates to one safe, unselective cell.
  {
    std::vector<Rect> rects = {Rect(-1e308, -1e308, 1e308, 1e308),
                               Rect(0, 0, 1, 1)};
    SpatialGrid grid = SpatialGrid::ForRects(rects);
    EXPECT_EQ(grid.cells_x(), 1);
    EXPECT_EQ(grid.cells_y(), 1);
    for (size_t i = 0; i < rects.size(); ++i) {
      grid.Insert(static_cast<uint32_t>(i), rects[i]);
    }
    std::vector<uint32_t> out;
    SpatialGrid::Seen seen;
    grid.Query(Rect(0, 0, 2, 2), &seen, &out);
    EXPECT_EQ(out, std::vector<uint32_t>({0, 1}));
    ExpectCoarseningsSound(rects);
  }
  // Hairline strip: denormal heights must not break sizing or lookups.
  {
    std::vector<Rect> rects;
    for (int i = 0; i < 64; ++i) {
      const double x = static_cast<double>(i) * 1e6;
      rects.push_back(Rect(x, 0.0, x + 1e6, 1e-307));
    }
    SpatialGrid grid = SpatialGrid::ForRects(rects);
    EXPECT_GE(grid.cells_x(), 1);
    EXPECT_GE(grid.cells_y(), 1);
    EXPECT_LE(static_cast<double>(grid.cells_x()) * grid.cells_y(),
              std::max(4.0 * static_cast<double>(rects.size()), 16.0));
    for (size_t i = 0; i < rects.size(); ++i) {
      grid.Insert(static_cast<uint32_t>(i), rects[i]);
    }
    std::vector<uint32_t> out;
    SpatialGrid::Seen seen;
    grid.Query(Rect(0, -1, 2e6, 1), &seen, &out);
    EXPECT_TRUE(std::count(out.begin(), out.end(), 0u));
    EXPECT_TRUE(std::count(out.begin(), out.end(), 1u));
    ExpectCoarseningsSound(rects);
  }
  // A random population with empty rects.
  ExpectCoarseningsSound(RandomRects(200, 7, 0.1));
}

}  // namespace
}  // namespace qsp
