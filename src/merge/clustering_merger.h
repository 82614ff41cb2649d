#ifndef QSP_MERGE_CLUSTERING_MERGER_H_
#define QSP_MERGE_CLUSTERING_MERGER_H_

#include <memory>

#include "merge/merger.h"

namespace qsp {

/// The Clustering Algorithm of Section 6.3: divide and conquer. Two
/// queries whose optimistic co-merge benefit bound (CostModel::
/// CoMergeBenefitBound) is non-positive are "far apart" and never need to
/// share a merged group; connected components of the remaining
/// "mergeable" graph are solved independently — exactly (PartitionMerger)
/// when a component has at most kExactComponentLimit queries, greedily
/// (PairMerger) otherwise. The merged-size floor in the bound is
/// size(q1 ∪ q2), the paper's refinement via query intersection.
///
/// `pruning` accelerates the O(n^2) mergeable-graph construction
/// (DESIGN.md §8): intersecting pairs come from one spatial-grid walk per
/// placed rectangle, and disjoint pairs (those with an empty rectangle
/// among them) are enumerated by ascending size sum only while the
/// (monotone decreasing) co-merge bound at the disjoint size floor stays
/// positive — pairs skipped either way are provably non-mergeable, and
/// the surviving pairs are evaluated with the identical expression, so
/// the components (and the final partition) are unchanged. Falls back to
/// evaluating every pair when the cost model cannot justify the
/// shortcuts. Greedy subsolves run PairMerger's bounded heap with the
/// same `pruning` setting; off, its bounds prune nothing.
class ClusteringMerger : public Merger {
 public:
  /// The largest component solved exactly (Bell(10) = 115,975
  /// partitions); larger ones go to the pair merger.
  static constexpr size_t kExactComponentLimit = 10;

  explicit ClusteringMerger(bool pruning = true) : pruning_(pruning) {}

  std::string name() const override { return "clustering"; }

 protected:
  Result<MergeOutcome> DoMerge(const MergeContext& ctx,
                               const CostModel& model) const override;

 private:
  bool pruning_;
};

}  // namespace qsp

#endif  // QSP_MERGE_CLUSTERING_MERGER_H_
