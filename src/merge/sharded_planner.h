#ifndef QSP_MERGE_SHARDED_PLANNER_H_
#define QSP_MERGE_SHARDED_PLANNER_H_

#include <cstdint>
#include <vector>

#include "cost/cost_model.h"
#include "merge/merger.h"
#include "merge/shard_assign.h"
#include "query/merge_context.h"
#include "util/status.h"

namespace qsp {

/// Result of ShardedPlanner::Plan: the standard MergeOutcome plus the
/// shard attribution EXPLAIN and the benches consume.
struct ShardedMergeOutcome {
  /// Attribution value for groups (re)formed by the boundary pass.
  static constexpr int32_t kSeamGroup = -1;

  MergeOutcome outcome;
  /// Parallel to outcome.partition: the shard that produced each group,
  /// or kSeamGroup for groups that went through the boundary pass.
  std::vector<int32_t> group_shard;
  /// Full shard assignment (boxes, costs, cut tree) — what EXPLAIN and
  /// the scaling bench render. Default-constructed (num_shards == 1,
  /// empty shard_of) when the planner delegated.
  ShardLayout layout;
  /// layout.Imbalance(), surfaced so benches read it without obs:
  /// largest shard estimated cost over the per-shard mean (0 when
  /// delegated).
  double imbalance = 0.0;
  /// Groups entering the boundary pass, and how many merges it applied
  /// (groups in minus groups out).
  size_t seam_groups_in = 0;
  size_t seam_merges = 0;
};

/// Sharded parallel planning (DESIGN.md §12–§13): partitions the object
/// space into shards by cost-balanced recursive bisection
/// (merge/shard_assign), assigning each query by rectangle center,
/// plans every shard independently with the wrapped inner merger
/// (shards fan out across the qsp::exec pool largest estimated cost
/// first, so the heaviest shard never trails an otherwise-drained pool;
/// the inner merger's own parallel loops degrade serially inside
/// workers), then reconciles across shards with a boundary pass — a
/// greedy pair-merge restricted to groups whose MBRs touch a shard
/// seam (a bisection cut line that faces a neighbor), the only groups
/// that can profitably merge with a neighbor shard's work. Each shard
/// plans on a private context with the inner merger's ContextMemo()
/// (evaluate-only under a PairMerger, storing under the searches); the
/// boundary pass and the final costing run on the caller's context,
/// whichever policy it has.
///
/// This is the single-channel planning call: shards <= 1 delegates to
/// the inner merger outright — same call, same context, byte-identical
/// partition and cost — so callers need no unsharded branch of their
/// own. Multi-shard plans are a deterministic function of (queries,
/// model, shards) for every thread count: shard assignment is serial
/// arithmetic, per-shard merges are independent (scheduling order
/// changes wall-clock, never results), and the seam pass runs serially
/// over a canonically ordered start.
///
/// Does not own the inner merger; it must outlive the planner.
class ShardedPlanner {
 public:
  struct Options {
    /// Target shard count, capped at the query count. Assignment
    /// treats it as a budget and may stop short where cutting finer
    /// than the rects are wide would only manufacture seam work (see
    /// ShardLayout::num_shards).
    int shards = 1;
    /// Not read: balanced bisection is the only assignment. Kept so
    /// existing three-field Options initializers still compile.
    ShardAssign assign = ShardAssign::kBalanced;
    /// Pruning for the boundary-pass pair merger (the inner merger
    /// carries its own pruning configuration).
    bool pruning = true;
  };

  ShardedPlanner(const Merger* inner, Options options);

  /// Plans all queries in `ctx` under `model`. Errors propagate from the
  /// inner merger (first failing shard in index order wins).
  Result<ShardedMergeOutcome> Plan(const MergeContext& ctx,
                                   const CostModel& model) const;

 private:
  const Merger* inner_;
  Options options_;
};

}  // namespace qsp

#endif  // QSP_MERGE_SHARDED_PLANNER_H_
