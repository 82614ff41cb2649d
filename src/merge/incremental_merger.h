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
///    erased and the MergeContext memo entries mentioning the dead id are
///    evicted (ids are never reused, so they could only waste memory) —
///    at once, or for a whole batch of departures in one pass over the
///    memo (BeginBatch / EndBatch).
///  * Repair: one steepest-descent pass (merge / extract moves, as the
///    directed search) to undo accumulated drift; call periodically.
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
/// depends on the bounds. Under a cost
/// model the bounder cannot bound, nothing is skipped. Because the query
/// population grows after construction, the merger maintains the
/// bounding union of every id it has seen and re-derives its bounder as
/// that universe grows, dropping the distance term the moment a query
/// escapes the estimator's density-floor support.
///
/// The underlying MergeContext must wrap the same QuerySet that grows as
/// ids are added; ids passed to AddQuery must already exist in the set.
/// Not thread-safe; the live service serializes calls under its own lock.
class IncrementalMerger {
 public:
  IncrementalMerger(const MergeContext* ctx, const CostModel& model);

  /// Places a new query; returns the resulting total cost.
  double AddQuery(QueryId id);

  /// Removes a subscribed query; returns the resulting total cost.
  /// No-op if the id is not currently placed. The memo entries that
  /// mention the id are evicted at once, or by EndBatch inside a batch.
  double RemoveQuery(QueryId id);

  /// Opens a batch of arrivals and departures: until EndBatch,
  /// RemoveQuery leaves the memo alone. Each eviction scans the whole
  /// memo, so a service retiring many subscriptions per tick pays one
  /// scan per tick instead of one per departure.
  void BeginBatch();

  /// Closes the batch, evicting every memo entry that mentions an id
  /// removed since BeginBatch in one pass. The memo is then what per-id
  /// eviction leaves: a removed id is in no group, so no group holding it
  /// is evaluated after its removal.
  void EndBatch();

  /// Local-search repair; returns the improved cost. `max_moves` bounds
  /// the number of applied moves (0 = until local minimum).
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
  /// Deduplication scratch of the grid's partner queries.
  SpatialGrid::Seen seen_;

  /// True between BeginBatch and EndBatch; `departed_` holds the ids
  /// removed since BeginBatch, whose memo entries EndBatch evicts.
  bool batching_ = false;
  std::vector<QueryId> departed_;
};

}  // namespace qsp

#endif  // QSP_MERGE_INCREMENTAL_MERGER_H_
