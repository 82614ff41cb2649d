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
///  * RemoveQuery: drop the query from its group; an emptied group
///    leaves its slot empty. The MergeContext memo is left alone: its
///    owner evicts the entries of departed ids (the live service does,
///    once per batch).
///  * Repair: steepest descent over merge and extract moves to undo
///    accumulated drift; call periodically. It is the one descent of the
///    code base: the Directed Search Algorithm (Section 6.2.2) runs each
///    of its restarts as Reset(start) followed by Repair().
///
/// Every scan is bounded the same way the one-shot planners are
/// (DESIGN.md §8): cached GroupSummary per live group, admissible
/// plan::BenefitBounder bounds skip candidates that provably cannot beat
/// the current best, and a SpatialGrid over group bounding boxes, weighted
/// by BenefitBounder::PartnerWeight, restricts candidates to the cells
/// BenefitBounder::PartnerTest lets through (one accept-all cell when the
/// bounder has no distance term). Groups are stored as PairMerger stores
/// them: a group keeps its slot until the next grid rebuild, a removed or
/// merged-away group leaves its slot empty, new groups append, and the
/// grid's ids are the slots, so ascending slots are creation order.
/// Candidates are visited in that order and skipped only when the bound
/// proves they cannot *strictly* improve, so every decision (and
/// tie-break) is the one a scan evaluating every candidate would make;
/// only evaluations() and bounds_pruned() depend on the bounds. With
/// pruning off, or under a cost model the bounder cannot bound, nothing
/// is skipped. Because the query population grows after construction,
/// the merger maintains the bounding union of every id it has seen and
/// re-derives its bounder as that universe grows, dropping the distance
/// term the moment a query escapes the estimator's density-floor support.
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

  /// The live groups in slot (creation) order.
  Partition partition() const;
  double cost() const { return cost_; }

  /// True when `id` is currently placed in the maintained partition.
  bool Contains(QueryId id) const {
    return id < slot_of_query_.size() && slot_of_query_[id] != kNoSlot;
  }

  const MergeContext* context() const { return ctx_; }

  /// Group evaluations performed so far (work metric vs from-scratch).
  uint64_t evaluations() const { return evaluations_; }

  /// Candidates not evaluated exactly, whether the partner walk or an
  /// admissible bound dismissed them; independent of the grid's cells.
  uint64_t bounds_pruned() const { return bounds_pruned_; }

 private:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  /// Summarize + evaluation accounting: every exact group cost the
  /// merger computes goes through here.
  plan::GroupSummary Summarize(const QueryGroup& group);
  /// A singleton's exact stats without touching the group memo: by
  /// construction {messages 1, size(q), irrelevant 0}, so the cost and
  /// summary built from them match the memoized ones bit-for-bit.
  GroupStats SingletonStats(QueryId id) const;
  double SingletonCost(QueryId id) const;
  plan::GroupSummary SingletonSummary(QueryId id) const;

  /// Folds rect(id) into the seen-universe and re-derives the bounder.
  void ExtendUniverse(QueryId id);
  /// Compacts the empty slots (live groups keep their order) and builds
  /// the grid over the live groups.
  void RebuildGrid();
  /// Appends a new group in a fresh slot with its summary.
  void AppendGroup(QueryGroup group, plan::GroupSummary summary);
  /// Installs a changed group's summary at `slot`, moving its grid entry.
  void UpdateGroup(uint32_t slot, plan::GroupSummary summary);
  /// Empties `slot`, dropping its grid entry.
  void VacateSlot(uint32_t slot);
  /// Ascending slots of the groups a probe with `summary` must consider;
  /// every slot omitted provably has UpperBound(group, probe) <= 0.
  void CandidateSlots(const plan::GroupSummary& summary,
                      std::vector<uint32_t>* out);

  const MergeContext* ctx_;
  CostModel model_;
  bool pruning_;
  /// Bounding union of every id ever added; only grows.
  Rect universe_ = Rect::Empty();
  /// Re-derived from universe_ whenever it grows.
  plan::BenefitBounder bounder_;
  double cost_ = 0.0;
  uint64_t evaluations_ = 0;
  uint64_t bounds_pruned_ = 0;

  /// The groups by slot; an empty group is a vacated slot. Parallel to
  /// summaries_.
  std::vector<QueryGroup> groups_;
  std::vector<plan::GroupSummary> summaries_;
  size_t live_groups_ = 0;
  /// Slot of each placed query id, kNoSlot when the id is not placed.
  std::vector<uint32_t> slot_of_query_;
  /// Partner grid over the occupied slots; dropped by a Repair move and
  /// by Reset, and rebuilt (compacting the slots) before the next scan.
  std::optional<SpatialGrid> grid_;
  /// Slots at the last rebuild; an arrival rebuilds once the slots,
  /// vacated ones included, pass twice this plus 8.
  size_t grid_built_slots_ = 0;
  /// Deduplication and output scratch of the grid's partner queries.
  SpatialGrid::Seen seen_;
  std::vector<uint32_t> cands_;
};

}  // namespace qsp

#endif  // QSP_MERGE_INCREMENTAL_MERGER_H_
