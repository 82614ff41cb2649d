#ifndef QSP_MERGE_SHARD_ASSIGN_H_
#define QSP_MERGE_SHARD_ASSIGN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.h"

namespace qsp {

/// How ShardedPlanner maps queries to shards (DESIGN.md §13). There is
/// one assignment, cost-balanced recursive bisection; the type survives
/// only because ShardedPlanner::Options still names it.
enum class ShardAssign {
  /// KD-style cuts over rectangle centers where every cut equalizes the
  /// *estimated planning cost* on each side, so a cluster holding 40% of
  /// the cost is split across many shards instead of inheriting one.
  kBalanced,
};

/// One internal node of the bisection cut tree. Children are
/// encoded as int32: >= 0 is an index into ShardLayout::cuts, < 0 is a
/// leaf holding shard id -(child) - 1.
struct ShardCutNode {
  int axis = 0;  ///< 0 = vertical cut (x = coord), 1 = horizontal.
  double coord = 0.0;
  int32_t left = 0;
  int32_t right = 0;
};

/// A complete shard assignment: per-query shard ids plus the per-shard
/// accounting the planner needs for scheduling (largest-estimated-cost
/// first), seam classification (shard boxes + which sides face a
/// neighbor), and observability (imbalance gauge, EXPLAIN cut tree).
/// Everything here is a deterministic function of the input rectangles
/// and the requested shard count — assignment is serial arithmetic, so
/// it is identical at every thread count.
struct ShardLayout {
  /// shard_of value of an empty (boundless) rect, which has no center.
  static constexpr int32_t kBoundlessShard = -1;

  /// Actual shard count: the request capped at the placed-rect count,
  /// and lower still when straddle refusal stops the bisection early
  /// (cutting finer than the rects are wide only manufactures seam
  /// work).
  int num_shards = 1;
  /// Per-query shard id; kBoundlessShard for empty rects (the planner
  /// parks those in shard 0, and the accounting below already counts
  /// them there).
  std::vector<int32_t> shard_of;
  /// Estimated planning cost per shard: sum of per-query candidate-pair
  /// density weights (PlanningCostWeights). Drives scheduling order and
  /// the plan.shard.imbalance gauge.
  std::vector<double> shard_cost;
  /// Queries per shard, boundless queries counted in shard 0 — exactly
  /// the sub-problem sizes the planner will build.
  std::vector<size_t> shard_queries;
  /// Region each shard owns (its bisection leaf box). Groups whose MBR
  /// reaches a box side that faces a neighbor are seam candidates.
  std::vector<Rect> shard_box;
  /// Which sides of shard_box[s] face another shard (a cut line). A
  /// side on the domain boundary has no neighbor, so groups touching it
  /// stay interior.
  struct SeamSides {
    bool x_lo = false;
    bool x_hi = false;
    bool y_lo = false;
    bool y_hi = false;
  };
  std::vector<SeamSides> shard_open;
  /// Bisection cut tree; empty for a single shard. cuts[0] is the root
  /// when non-empty.
  std::vector<ShardCutNode> cuts;
  /// Sum of all per-query weights (== sum of shard_cost).
  double total_cost = 0.0;

  double MaxCost() const;
  /// Largest shard estimated cost / mean over num_shards (empty shards
  /// count as zero cost); 0 when there is no cost at all. 1.0 is a
  /// perfect balance.
  double Imbalance() const;
};

/// Estimated planning cost per query: 1 + the candidate load around the
/// query's rectangle read off a SpatialGrid over the population
/// (SpatialGrid::LoadInRange). Planning a shard is dominated by
/// enumerating and costing candidate pairs, and a query in a dense
/// cluster participates in ~density pairs, so summed load is a faithful
/// relative proxy for shard planning time. The +1 keeps sparse queries
/// from being free. Boundless rects get 1 + population size (they pair
/// with everything). Deterministic; O(n) grid build + O(cells covered)
/// per query.
std::vector<double> PlanningCostWeights(const std::vector<Rect>& rects);

/// Computes the shard layout for `rects`. `shards` is the requested
/// count; see ShardLayout::num_shards for what it was capped to. The
/// layout is a recursive bisection: at each node the split axis is the
/// one with the larger center spread (ties pick x), queries are
/// ordered by (center, id) — the id tie-break makes all-same-center
/// populations split deterministically — and the cut index is chosen so
/// the weight prefix best matches the left subtree's fair share of the
/// node's total, clamped so every leaf keeps at least one query, then
/// snapped to the *minimum-straddle* line among near-balanced cuts:
/// within a bounded balance slack the cut with the least weight of
/// rects physically spanning it wins (ties: wider center gap, then
/// smaller index), steering cuts into density valleys instead of
/// through clusters. If even the best candidate is straddled by most of
/// the node's weight — true once slivers are narrower than the rects
/// they host — the cut is refused, the other axis is tried, and when
/// both refuse the node becomes a leaf and the surplus budget lapses,
/// so num_shards can undershoot the request on tightly clustered data.
/// Termination is structural: every recursion strictly shrinks the
/// shard budget, queries never vanish.
ShardLayout AssignShards(const std::vector<Rect>& rects, int shards);

}  // namespace qsp

#endif  // QSP_MERGE_SHARD_ASSIGN_H_
