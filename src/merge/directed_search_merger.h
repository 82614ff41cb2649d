#ifndef QSP_MERGE_DIRECTED_SEARCH_MERGER_H_
#define QSP_MERGE_DIRECTED_SEARCH_MERGER_H_

#include <cstdint>

#include "merge/merger.h"

namespace qsp {

/// The Directed Search Algorithm of Section 6.2.2: restarted steepest-
/// descent local search over partitions. Each restart begins at a random
/// partition and repeatedly applies the best of two move kinds —
/// merging two groups, or extracting one query out of its group into a
/// singleton — until no move lowers the cost. The best of T restarts is
/// returned; the first restart starts from singletons so the result is
/// never worse than plain pair merging. O(T * |Q|^2) per descent step.
///
/// A restart is IncrementalMerger::Reset(start) followed by Repair(), the
/// one bounded descent (DESIGN.md §8): merge partners come from a spatial
/// grid over group bounding boxes, rebuilt every step, and a merge or an
/// extract is evaluated exactly only when its plan::BenefitBounder bound
/// beats the best move found so far, so every descent walks the move
/// sequence a scan evaluating every move would. `pruning = false`, or a
/// cost model the bounder cannot bound, runs the same descent with bounds
/// that prune nothing. MergeOutcome::candidates (= bounds_refined) counts
/// the descents' exact group evaluations, bounds_pruned the moves they
/// skipped; summarizing each start is not counted. Restarts fan out over
/// the exec pool. `restarts` < 1 is rejected with InvalidArgument.
class DirectedSearchMerger : public Merger {
 public:
  explicit DirectedSearchMerger(int restarts = 8, uint64_t seed = 42,
                                bool pruning = true)
      : restarts_(restarts), seed_(seed), pruning_(pruning) {}

  std::string name() const override { return "directed-search"; }

 protected:
  Result<MergeOutcome> DoMerge(const MergeContext& ctx,
                               const CostModel& model) const override;

 private:
  int restarts_;
  uint64_t seed_;
  bool pruning_;
};

}  // namespace qsp

#endif  // QSP_MERGE_DIRECTED_SEARCH_MERGER_H_
