// RectSoA (geom/rect_soa.h): structure-of-arrays rect storage behind the
// sharded planner's batch kernels. Every batch kernel must agree exactly
// with the scalar Rect call it mirrors — the SoA layout is a speed
// change, never a semantics change.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "geom/rect_soa.h"
#include "geom/spatial_grid.h"
#include "util/rng.h"

namespace qsp {
namespace {

std::vector<Rect> MixedRects(size_t n, uint64_t seed, double empty_prob) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.UniformDouble(0, 1) < empty_prob) {
      rects.push_back(Rect::Empty());
      continue;
    }
    const double x = rng.UniformDouble(-100, 900);
    const double y = rng.UniformDouble(-100, 900);
    rects.push_back(Rect(x, y, x + rng.UniformDouble(0.0, 150),
                         y + rng.UniformDouble(0.0, 150)));
  }
  return rects;
}

TEST(RectSoATest, RoundTripsRectsLosslessly) {
  const std::vector<Rect> rects = MixedRects(200, 11, 0.1);
  RectSoA soa(rects);
  ASSERT_EQ(soa.size(), rects.size());
  for (size_t i = 0; i < rects.size(); ++i) {
    EXPECT_EQ(soa.Get(i), rects[i]) << "index " << i;
    EXPECT_EQ(soa.IsEmpty(i), rects[i].IsEmpty()) << "index " << i;
  }
}

TEST(RectSoATest, BatchIntersectsMatchesScalar) {
  const std::vector<Rect> rects = MixedRects(300, 12, 0.1);
  RectSoA soa(rects);
  Rng rng(13);
  std::vector<unsigned char> hits(rects.size());
  for (int trial = 0; trial < 40; ++trial) {
    Rect window = Rect::Empty();
    if (trial > 0) {
      const double x = rng.UniformDouble(-150, 950);
      const double y = rng.UniformDouble(-150, 950);
      window = Rect(x, y, x + rng.UniformDouble(0, 400),
                    y + rng.UniformDouble(0, 400));
    }
    soa.BatchIntersects(window, hits.data());
    size_t scalar_count = 0;
    for (size_t i = 0; i < rects.size(); ++i) {
      const bool scalar = rects[i].Intersects(window);
      EXPECT_EQ(hits[i] != 0, scalar)
          << "rect " << rects[i].ToString() << " window "
          << window.ToString();
      scalar_count += static_cast<size_t>(scalar);
    }
    EXPECT_EQ(soa.CountIntersecting(window), scalar_count);
  }
}

TEST(RectSoATest, BatchAreaMatchesScalar) {
  const std::vector<Rect> rects = MixedRects(300, 14, 0.15);
  RectSoA soa(rects);
  std::vector<double> areas(rects.size());
  soa.BatchArea(areas.data());
  for (size_t i = 0; i < rects.size(); ++i) {
    EXPECT_EQ(areas[i], rects[i].Area()) << "index " << i;
  }
}

TEST(RectSoATest, BoundingUnionAllMatchesScalarFold) {
  const std::vector<Rect> rects = MixedRects(250, 15, 0.2);
  RectSoA soa(rects);
  Rect want = Rect::Empty();
  for (const Rect& r : rects) {
    if (!r.IsEmpty()) want = want.BoundingUnion(r);
  }
  EXPECT_EQ(soa.BoundingUnionAll(), want);

  RectSoA all_empty(std::vector<Rect>(5, Rect::Empty()));
  EXPECT_TRUE(all_empty.BoundingUnionAll().IsEmpty());
  EXPECT_TRUE(RectSoA().BoundingUnionAll().IsEmpty());
}

TEST(RectSoATest, BatchShardOfMatchesGridCellOfCenters) {
  const std::vector<Rect> rects = MixedRects(400, 16, 0.1);
  RectSoA soa(rects);
  const Rect bounds = soa.BoundingUnionAll();
  const int cells_x = 4, cells_y = 3;
  std::vector<int32_t> shard(rects.size());
  soa.BatchShardOf(bounds, cells_x, cells_y, shard.data());

  // Oracle: a SpatialGrid over the same bounds; a point rect at each
  // center must land in exactly the cell the batch kernel computed.
  SpatialGrid grid(bounds, cells_x, cells_y);
  SpatialGrid::Seen seen;
  for (size_t i = 0; i < rects.size(); ++i) {
    if (rects[i].IsEmpty()) {
      EXPECT_EQ(shard[i], RectSoA::kBoundlessShard) << "index " << i;
      continue;
    }
    ASSERT_GE(shard[i], 0) << "index " << i;
    ASSERT_LT(shard[i], cells_x * cells_y) << "index " << i;
    const Point c = rects[i].Center();
    grid.Insert(static_cast<uint32_t>(i), Rect(c.x, c.y, c.x, c.y));
    std::vector<uint32_t> out;
    grid.Query(Rect(c.x, c.y, c.x, c.y), &seen, &out);
    EXPECT_TRUE(std::count(out.begin(), out.end(),
                           static_cast<uint32_t>(i)))
        << "center lookup disagrees at index " << i;
    grid.Remove(static_cast<uint32_t>(i), Rect(c.x, c.y, c.x, c.y));
  }

  // Determinism: same input, same assignment.
  std::vector<int32_t> again(rects.size());
  soa.BatchShardOf(bounds, cells_x, cells_y, again.data());
  EXPECT_EQ(shard, again);

  // Non-finite centers clamp instead of invoking UB.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RectSoA wild(std::vector<Rect>{Rect(-kInf, -kInf, kInf, kInf)});
  int32_t s = 99;
  wild.BatchShardOf(bounds, cells_x, cells_y, &s);
  EXPECT_GE(s, 0);
  EXPECT_LT(s, cells_x * cells_y);
}

}  // namespace
}  // namespace qsp
