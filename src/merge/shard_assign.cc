#include "merge/shard_assign.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "geom/spatial_grid.h"

namespace qsp {
namespace {

/// Cut-quality controls. A cut's damage is the weight of rects that
/// physically straddle the cut line: every such rect couples the two
/// sides, lands its group on the seam, and lets the shard-local greedy
/// merges commit to groupings a global planner would not have made.
///
/// kBalanceSlack widens the set of candidate cut indices to everything
/// within this fraction of one shard's fair cost of perfect balance, so
/// the cut can snap to a low-straddle position (a density valley, a
/// cluster edge) instead of slicing through the thickest mass. The
/// slack is bounded per level, so leaf costs stay within the 2.0
/// imbalance acceptance.
///
/// kMaxStraddle refuses the cut outright when even the best candidate
/// has more than this fraction of the node's weight straddling it —
/// true once slivers are narrower than the rects they host. The node
/// becomes a leaf and the surplus shard budget lapses: the effective
/// shard count adapts to what the data can absorb.
constexpr double kBalanceSlack = 0.4;
constexpr double kMaxStraddle = 0.8;

/// A candidate bisection cut along one axis: ids[lo, lo+k) go left,
/// cut coordinate, and the node-weight fraction straddling the line.
struct CutChoice {
  size_t k = 0;
  double cut = 0.0;
  double straddle = 0.0;
};

/// Recursive cost-balanced bisection over placed-rect centers. Operates
/// on an index range of `ids` (reordered in place) and writes shard
/// membership, boxes, seam sides, and accounting straight into the
/// layout. Leaves take their shard id from `next_shard`, so ids are
/// dense [0, num_shards) even when extent-floored nodes return budget.
/// Returns the child encoding for the parent cut node.
struct Bisector {
  const std::vector<Rect>& rects;
  /// Rect::Center() coordinates of the placed rects, one array per axis.
  const std::vector<double>& cx;
  const std::vector<double>& cy;
  const std::vector<double>& weight;
  ShardLayout* layout;
  int next_shard = 0;

  int32_t Leaf(const std::vector<uint32_t>& ids, size_t lo, size_t hi,
               const Rect& box, ShardLayout::SeamSides open) {
    const int shard = next_shard++;
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t id = ids[i];
      layout->shard_of[id] = shard;
      layout->shard_cost[shard] += weight[id];
      ++layout->shard_queries[shard];
    }
    layout->shard_box[shard] = box;
    layout->shard_open[shard] = open;
    return -static_cast<int32_t>(shard) - 1;
  }

  /// Best near-balanced cut along `axis` for ids[lo, hi), which it
  /// leaves sorted by (center, id) on that axis — the id tie-break
  /// makes all-same-center populations split deterministically instead
  /// of degenerating. Finds the weight-balance optimum for a
  /// shards/2 : shards - shards/2 split, widens to every cut index
  /// within the balance slack, and among those picks the cut with the
  /// least straddling weight (ties: wider center gap, then smaller k).
  /// Serial arithmetic throughout, so the choice is identical at every
  /// thread count.
  CutChoice FindCut(std::vector<uint32_t>* ids, size_t lo, size_t hi,
                    int axis, int shards) const {
    const size_t n = hi - lo;
    const size_t s_left = static_cast<size_t>(shards / 2);
    const size_t s_right = static_cast<size_t>(shards) - s_left;
    const std::vector<double>& c = axis == 0 ? cx : cy;
    std::sort(ids->begin() + static_cast<ptrdiff_t>(lo),
              ids->begin() + static_cast<ptrdiff_t>(hi),
              [&c](uint32_t a, uint32_t b) {
                if (c[a] != c[b]) return c[a] < c[b];
                return a < b;
              });
    double total = 0.0;
    for (size_t i = lo; i < hi; ++i) total += weight[(*ids)[i]];
    const double target =
        total * (static_cast<double>(s_left) / static_cast<double>(shards));
    // Pass 1: the best achievable balance, with the cut index clamped
    // so each side keeps at least one query per shard it must host.
    double best_err = std::numeric_limits<double>::infinity();
    double prefix = 0.0;
    for (size_t k = 1; k <= n - s_right; ++k) {
      prefix += weight[(*ids)[lo + k - 1]];
      if (k < s_left) continue;
      best_err = std::min(best_err, std::abs(prefix - target));
    }
    const double slack = std::max(
        best_err, kBalanceSlack * total / static_cast<double>(shards));
    // Straddle lookups: sorted rect-side coordinates with weight prefix
    // sums, so straddle(t) = total - weight(hi <= t) - weight(lo >= t)
    // in two binary searches. A degenerate rect sitting exactly on the
    // cut would count negative; the clamp keeps zero-extent same-center
    // populations splitting as before.
    std::vector<std::pair<double, double>> lo_ev, hi_ev;
    lo_ev.reserve(n);
    hi_ev.reserve(n);
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t id = (*ids)[i];
      const Rect& r = rects[id];
      lo_ev.emplace_back(axis == 0 ? r.x_lo() : r.y_lo(), weight[id]);
      hi_ev.emplace_back(axis == 0 ? r.x_hi() : r.y_hi(), weight[id]);
    }
    std::sort(lo_ev.begin(), lo_ev.end());
    std::sort(hi_ev.begin(), hi_ev.end());
    std::vector<double> lo_coord(n), hi_coord(n);
    std::vector<double> hi_le(n + 1, 0.0), lo_ge(n + 1, 0.0);
    for (size_t i = 0; i < n; ++i) {
      lo_coord[i] = lo_ev[i].first;
      hi_coord[i] = hi_ev[i].first;
      hi_le[i + 1] = hi_le[i] + hi_ev[i].second;
    }
    for (size_t i = n; i > 0; --i) {
      lo_ge[i - 1] = lo_ge[i] + lo_ev[i - 1].second;
    }
    // Pass 2: minimum-straddle cut among the near-balanced candidates.
    // At least one candidate exists (slack >= best_err).
    CutChoice best;
    double best_straddle = std::numeric_limits<double>::infinity();
    double best_gap = -1.0;
    prefix = 0.0;
    for (size_t k = 1; k <= n - s_right; ++k) {
      prefix += weight[(*ids)[lo + k - 1]];
      if (k < s_left) continue;
      if (std::abs(prefix - target) > slack) continue;
      const double t = 0.5 * (c[(*ids)[lo + k - 1]] + c[(*ids)[lo + k]]);
      const size_t n_hi_le = static_cast<size_t>(
          std::upper_bound(hi_coord.begin(), hi_coord.end(), t) -
          hi_coord.begin());
      const size_t n_lo_lt = static_cast<size_t>(
          std::lower_bound(lo_coord.begin(), lo_coord.end(), t) -
          lo_coord.begin());
      const double straddle =
          std::max(0.0, total - hi_le[n_hi_le] - lo_ge[n_lo_lt]);
      const double gap = c[(*ids)[lo + k]] - c[(*ids)[lo + k - 1]];
      if (straddle < best_straddle ||
          (straddle == best_straddle && gap > best_gap)) {
        best_straddle = straddle;
        best_gap = gap;
        best = CutChoice{k, t, total > 0.0 ? straddle / total : 0.0};
      }
    }
    return best;
  }

  int32_t Build(std::vector<uint32_t>* ids, size_t lo, size_t hi, int shards,
                const Rect& box, ShardLayout::SeamSides open) {
    if (shards <= 1) return Leaf(*ids, lo, hi, box, open);
    // Prefer the axis with the larger center spread (ties pick x):
    // cutting the long direction keeps leaf boxes square-ish, which
    // keeps seam frontiers short. Fall back to the other axis when the
    // preferred cut would be mostly straddled; when both would, the
    // node is done splitting.
    double min_x = cx[(*ids)[lo]], max_x = min_x;
    double min_y = cy[(*ids)[lo]], max_y = min_y;
    for (size_t i = lo + 1; i < hi; ++i) {
      const uint32_t id = (*ids)[i];
      min_x = std::min(min_x, cx[id]);
      max_x = std::max(max_x, cx[id]);
      min_y = std::min(min_y, cy[id]);
      max_y = std::max(max_y, cy[id]);
    }
    const int primary = (max_x - min_x >= max_y - min_y) ? 0 : 1;
    int axis = primary;
    CutChoice choice = FindCut(ids, lo, hi, primary, shards);
    if (choice.straddle > kMaxStraddle) {
      const CutChoice alt = FindCut(ids, lo, hi, 1 - primary, shards);
      if (alt.straddle > kMaxStraddle) return Leaf(*ids, lo, hi, box, open);
      axis = 1 - primary;
      choice = alt;
    }
    const size_t s_left = static_cast<size_t>(shards / 2);
    const size_t s_right = static_cast<size_t>(shards) - s_left;
    const size_t best_k = choice.k;
    const double cut = choice.cut;
    const int32_t node = static_cast<int32_t>(layout->cuts.size());
    layout->cuts.push_back(ShardCutNode{axis, cut, 0, 0});
    Rect left_box(box.x_lo(), box.y_lo(), box.x_hi(), box.y_hi());
    Rect right_box = left_box;
    ShardLayout::SeamSides left_open = open;
    ShardLayout::SeamSides right_open = open;
    if (axis == 0) {
      left_box = Rect(box.x_lo(), box.y_lo(), cut, box.y_hi());
      right_box = Rect(cut, box.y_lo(), box.x_hi(), box.y_hi());
      left_open.x_hi = true;
      right_open.x_lo = true;
    } else {
      left_box = Rect(box.x_lo(), box.y_lo(), box.x_hi(), cut);
      right_box = Rect(box.x_lo(), cut, box.x_hi(), box.y_hi());
      left_open.y_hi = true;
      right_open.y_lo = true;
    }
    const int32_t left = Build(ids, lo, lo + best_k, static_cast<int>(s_left),
                               left_box, left_open);
    const int32_t right = Build(ids, lo + best_k, hi,
                                static_cast<int>(s_right), right_box,
                                right_open);
    layout->cuts[static_cast<size_t>(node)].left = left;
    layout->cuts[static_cast<size_t>(node)].right = right;
    return node;
  }
};

}  // namespace

double ShardLayout::MaxCost() const {
  double max_cost = 0.0;
  for (double c : shard_cost) max_cost = std::max(max_cost, c);
  return max_cost;
}

double ShardLayout::Imbalance() const {
  if (num_shards <= 0 || total_cost <= 0.0) return 0.0;
  return MaxCost() / (total_cost / static_cast<double>(num_shards));
}

std::vector<double> PlanningCostWeights(const std::vector<Rect>& rects) {
  SpatialGrid grid = SpatialGrid::ForRects(rects);
  for (size_t i = 0; i < rects.size(); ++i) {
    grid.Insert(static_cast<uint32_t>(i), rects[i]);
  }
  std::vector<double> weights(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) {
    weights[i] = 1.0 + grid.LoadInRange(rects[i]);
  }
  return weights;
}

ShardLayout AssignShards(const std::vector<Rect>& rects, int shards) {
  const size_t n = rects.size();
  ShardLayout layout;
  layout.shard_of.assign(n, ShardLayout::kBoundlessShard);
  const std::vector<double> weight = PlanningCostWeights(rects);
  for (double w : weight) layout.total_cost += w;

  // Bisection runs over placed rects only; boundless queries keep
  // kBoundlessShard and are accounted to shard 0 below, mirroring where
  // the planner parks them.
  std::vector<uint32_t> placed;
  placed.reserve(n);
  Rect bounds = Rect::Empty();
  for (size_t i = 0; i < n; ++i) {
    if (rects[i].IsEmpty()) continue;
    placed.push_back(static_cast<uint32_t>(i));
    bounds = bounds.BoundingUnion(rects[i]);
  }
  const int shard_budget =
      std::min<int>(std::max(1, shards),
                    static_cast<int>(std::max<size_t>(1, placed.size())));
  // Allocate at the budget; the bisection may consume less (extent
  // floor), so the per-shard arrays are trimmed to the leaves actually
  // created.
  const size_t budget_count = static_cast<size_t>(shard_budget);
  layout.shard_cost.assign(budget_count, 0.0);
  layout.shard_queries.assign(budget_count, 0);
  layout.shard_box.assign(budget_count, bounds);
  layout.shard_open.assign(budget_count, ShardLayout::SeamSides{});

  if (shard_budget <= 1) {
    layout.num_shards = 1;
    for (uint32_t id : placed) {
      layout.shard_of[id] = 0;
      layout.shard_cost[0] += weight[id];
      ++layout.shard_queries[0];
    }
  } else {
    std::vector<double> center_x(n), center_y(n);
    for (uint32_t id : placed) {
      const Point center = rects[id].Center();
      center_x[id] = center.x;
      center_y[id] = center.y;
    }
    Bisector bisector{rects, center_x, center_y, weight, &layout};
    bisector.Build(&placed, 0, placed.size(), shard_budget, bounds,
                   ShardLayout::SeamSides{});
    layout.num_shards = bisector.next_shard;
    const size_t shard_count = static_cast<size_t>(layout.num_shards);
    layout.shard_cost.resize(shard_count);
    layout.shard_queries.resize(shard_count);
    layout.shard_box.resize(shard_count);
    layout.shard_open.resize(shard_count);
  }
  for (size_t i = 0; i < n; ++i) {
    if (layout.shard_of[i] == ShardLayout::kBoundlessShard) {
      layout.shard_cost[0] += weight[i];
      ++layout.shard_queries[0];
    }
  }
  return layout;
}

}  // namespace qsp
