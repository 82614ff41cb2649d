#ifndef QSP_MERGE_INCREMENTAL_MERGER_H_
#define QSP_MERGE_INCREMENTAL_MERGER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cost/cost_model.h"
#include "geom/rect.h"
#include "geom/spatial_grid.h"
#include "merge/plan_bounds.h"
#include "query/merge_context.h"
#include "query/query.h"

namespace qsp {

/// Dynamic-scenario merging (future work, Section 11): maintains a
/// partition as subscriptions arrive and depart, without re-running a
/// merge algorithm from scratch.
///
///  * AddQuery: greedily place the new query into the existing group whose
///    cost increases least (or as a singleton).
///  * RemoveQuery: drop the query from its group; an emptied group is
///    erased. The MergeContext memo is left alone: its owner evicts the
///    entries of departed ids (the live service does, once per batch).
///  * Repair: steepest descent over merge and extract moves to undo
///    accumulated drift; call periodically. It is the one descent of the
///    code base: the Directed Search Algorithm (Section 6.2.2) runs each
///    of its restarts as Reset(start) followed by Repair().
///
/// Every scan is bounded the same way the one-shot planners are
/// (DESIGN.md §8): cached GroupSummary per live group, admissible
/// plan::BenefitBounder bounds skip candidates that provably cannot beat
/// the current best, and — when the bounder is distance-aware — a
/// SpatialGrid over group bounding boxes, weighted by
/// BenefitBounder::PartnerWeight, restricts candidates to the cells
/// BenefitBounder::PartnerTest lets through. Candidates are visited in
/// ascending slot order and skipped only when the bound proves they
/// cannot *strictly* improve, so every decision (and tie-break) is the
/// one a scan evaluating every candidate would make; only evaluations()
/// and bounds_pruned() depend on the bounds. With pruning off, or under
/// a cost model the bounder cannot bound, nothing is skipped. Because
/// the query population grows after construction, the merger maintains
/// the bounding union of every id it has seen and re-derives its bounder
/// as that universe grows, dropping the distance term the moment a query
/// escapes the estimator's density-floor support.
///
/// The underlying MergeContext must wrap the same QuerySet that grows as
/// ids are added; ids passed to AddQuery must already exist in the set.
/// Not thread-safe; the live service serializes calls under its own lock,
/// and the directed search gives each restart its own merger over the
/// shared (thread-safe) context.
class IncrementalMerger {
 public:
  /// `pruning = false` runs every scan with bounds that prune nothing
  /// (plan::BenefitBounder): the same decisions, every candidate
  /// evaluated exactly.
  IncrementalMerger(const MergeContext* ctx, const CostModel& model,
                    bool pruning = true);

  /// Places a new query; returns the resulting total cost.
  double AddQuery(QueryId id);

  /// Removes a subscribed query; returns the resulting total cost.
  /// No-op if the id is not currently placed. Memo entries that mention
  /// the id stay: a removed id is in no group, so none of them is read
  /// again, and MergeContext::EvictGroupsContaining drops them in one
  /// pass whenever the owner chooses.
  double RemoveQuery(QueryId id);

  /// Steepest descent; returns the improved cost. Each step applies the
  /// best strict improvement among every merge of two groups and every
  /// extract of one query into a singleton, and rebuilds the partner
  /// grid first, so its cells fit the groups the step scans.
  /// `max_moves` bounds the number of applied moves (0 = until a local
  /// minimum).
  double Repair(int max_moves = 0);

  /// Replaces the maintained partition wholesale (the live service
  /// adopts a background from-scratch replan through this). The
  /// partition is canonicalized; it must cover only ids that exist in
  /// the underlying QuerySet.
  void Reset(Partition partition);

  const Partition& partition() const { return partition_; }
  double cost() const { return cost_; }

  /// True when `id` is currently placed in the maintained partition.
  bool Contains(QueryId id) const {
    return id < key_of_query_.size() && key_of_query_[id] != kNoKey;
  }

  const MergeContext* context() const { return ctx_; }

  /// Group evaluations performed so far (work metric vs from-scratch).
  uint64_t evaluations() const { return evaluations_; }

  /// Candidates not evaluated exactly, whether the partner walk or an
  /// admissible bound dismissed them; independent of the grid's cells.
  uint64_t bounds_pruned() const { return bounds_pruned_; }

 private:
  static constexpr uint32_t kNoKey = 0xffffffffu;
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Summarize + evaluation accounting: every exact group cost the
  /// merger computes goes through here.
  plan::GroupSummary Summarize(const QueryGroup& group);
  /// Exact singleton cost without touching the group memo: a singleton's
  /// stats are by construction {messages 1, size(q), irrelevant 0}, and
  /// the arithmetic matches CostModel::GroupCost(stats) bit-for-bit.
  double SingletonCost(QueryId id) const;
  plan::GroupSummary SingletonSummary(QueryId id) const;

  /// Folds rect(id) into the seen-universe and re-derives the bounder.
  void ExtendUniverse(QueryId id);
  /// (Re)builds the grid over live group bboxes, compacting stale keys.
  void RebuildGrid();
  /// Appends a new group (fresh key) with its summary.
  void AppendGroup(QueryGroup group, plan::GroupSummary summary);
  /// Installs a changed group's summary at `slot`, moving its grid entry.
  void UpdateGroup(size_t slot, plan::GroupSummary summary);
  /// Erases the group at `slot` (must already be removed from the grid);
  /// fixes the key->slot map for the shifted tail.
  void EraseGroup(size_t slot);
  /// Ascending slots of the groups a probe with `summary` must consider;
  /// every slot omitted provably has UpperBound(group, probe) <= 0.
  void CandidateSlots(const plan::GroupSummary& summary,
                      std::vector<size_t>* out);

  const MergeContext* ctx_;
  CostModel model_;
  bool pruning_;
  /// Bounding union of every id ever added; only grows.
  Rect universe_ = Rect::Empty();
  /// Re-derived from universe_ whenever it grows.
  plan::BenefitBounder bounder_;
  Partition partition_;
  double cost_ = 0.0;
  uint64_t evaluations_ = 0;
  uint64_t bounds_pruned_ = 0;

  /// Stable group identity: partition slots shift on erase, so the grid
  /// and the id->group map speak stable keys. Keys are assigned in
  /// creation order and groups are only appended, so key order == slot
  /// order — candidate keys sorted ascending are slots sorted ascending,
  /// which is what keeps grid-driven scans in ascending slot order.
  std::vector<uint32_t> key_of_slot_;
  std::vector<size_t> slot_of_key_;
  std::vector<uint32_t> key_of_query_;
  uint32_t next_key_ = 0;

  /// Summary of each live group, parallel to partition_.
  std::vector<plan::GroupSummary> summaries_;
  /// Built only while the bounder is distance-aware.
  std::optional<SpatialGrid> grid_;
  size_t grid_built_groups_ = 0;
  /// Deduplication and output scratch of the grid's partner queries.
  SpatialGrid::Seen seen_;
  std::vector<uint32_t> keys_;
};

}  // namespace qsp

#endif  // QSP_MERGE_INCREMENTAL_MERGER_H_
