#ifndef QSP_MERGE_PAIR_MERGER_H_
#define QSP_MERGE_PAIR_MERGER_H_

#include <utility>
#include <vector>

#include "merge/merger.h"

namespace qsp {

/// The greedy Pair Merging Algorithm of Section 6.2.1. Starts from
/// singleton groups, repeatedly merges the pair of groups with the largest
/// positive benefit Cost_old - Cost_new, and stops when no merge helps.
/// Equal benefits go to the smallest pair of stable group indices.
///
/// `use_heap = false` runs the paper's Profit Table: every pair's benefit
/// is evaluated exactly, only the pairs involving the freshly merged
/// group are re-evaluated each round, and each round rescans the table
/// for the best pair. O(|Q|^2) group evaluations; it is the reference
/// the heap is tested against.
///
/// `use_heap = true` (the default, which every planner runs) applies the
/// identical merge sequence through lazily refined admissible benefit
/// bounds (DESIGN.md §8): candidate pairs come from a spatial grid over
/// group bounding boxes, each live group owns a partner row (a max-heap
/// of its pairs' plan::BenefitBounder upper bounds), a global heap holds
/// one entry per row (its head), and a pair's exact benefit is evaluated
/// only when its bound surfaces at the global top. The partition and
/// cost equal the table's; only the number of exact evaluations differs.
/// `pruning = false`, or a cost model the bounder cannot bound, runs the
/// same loop with bounds that prune nothing, so every pair is evaluated.
///
/// Guaranteed optimal for |Q| <= 2.
class PairMerger : public Merger {
 public:
  explicit PairMerger(bool use_heap = true, bool pruning = true)
      : use_heap_(use_heap), pruning_(pruning) {}

  /// Runs the same greedy loop starting from an arbitrary partition of
  /// canonical (ascending, duplicate-free) groups instead of singletons
  /// (used by clustering, the seam pass and the channel allocator).
  MergeOutcome MergeFrom(const MergeContext& ctx, const CostModel& model,
                         Partition start) const;

  /// The Profit Table construction kernel: the benefit of merging
  /// groups[i] with groups[j] for every requested (i, j), given each
  /// group's precomputed cost. Evaluations fan out across the qsp::exec
  /// default executor; result k corresponds to pairs[k] for any thread
  /// count. Only the Profit Table (`use_heap = false`) runs it; exposed
  /// for bench_parallel_speedup, which measures exactly this kernel.
  static std::vector<double> EvaluatePairBenefits(
      const MergeContext& ctx, const CostModel& model,
      const std::vector<QueryGroup>& groups,
      const std::vector<double>& group_cost,
      const std::vector<std::pair<size_t, size_t>>& pairs);

  std::string name() const override { return "pair-merging"; }

  /// Evaluate-only: each candidate pair is refined at most once, and a
  /// merge reuses its refinement's statistics, so no group is looked up
  /// again.
  GroupMemo ContextMemo() const override { return GroupMemo::kEvaluateOnly; }

 protected:
  Result<MergeOutcome> DoMerge(const MergeContext& ctx,
                               const CostModel& model) const override;

 private:
  MergeOutcome MergeFromTable(const MergeContext& ctx, const CostModel& model,
                              Partition start) const;
  MergeOutcome MergeFromHeap(const MergeContext& ctx, const CostModel& model,
                             Partition start) const;

  bool use_heap_;
  bool pruning_;
};

}  // namespace qsp

#endif  // QSP_MERGE_PAIR_MERGER_H_
