#include "merge/incremental_merger.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/float_compare.h"
#include "util/status.h"

namespace qsp {

namespace {

const MergeContext& NonNull(const MergeContext* ctx) {
  QSP_CHECK(ctx != nullptr);
  return *ctx;
}

}  // namespace

IncrementalMerger::IncrementalMerger(const MergeContext* ctx,
                                     const CostModel& model, bool pruning)
    : ctx_(ctx),
      model_(model),
      pruning_(pruning),
      bounder_(NonNull(ctx), model_, universe_, pruning) {}

plan::GroupSummary IncrementalMerger::Summarize(const QueryGroup& group) {
  ++evaluations_;
  obs::Count("merge.incremental.evaluations");
  return bounder_.Summarize(group);
}

GroupStats IncrementalMerger::SingletonStats(QueryId id) const {
  // A singleton's stats are {messages 1, size(q), irrelevant 0} by
  // construction (MergeContext::Compute short-circuits), so costs built
  // from them are the exact memoized values, arithmetic identical.
  GroupStats stats;
  stats.messages = 1.0;
  stats.size = ctx_->Size(id);
  stats.irrelevant = 0.0;
  return stats;
}

double IncrementalMerger::SingletonCost(QueryId id) const {
  return model_.GroupCost(SingletonStats(id));
}

plan::GroupSummary IncrementalMerger::SingletonSummary(QueryId id) const {
  return bounder_.Summarize({id}, SingletonStats(id));
}

void IncrementalMerger::ExtendUniverse(QueryId id) {
  const Rect grown = universe_.BoundingUnion(ctx_->queries().rect(id));
  if (universe_.Contains(grown)) return;
  universe_ = grown;
  // Distance-awareness is monotone non-increasing as the universe grows;
  // a bounder without the distance term accepts every cell, so the grid
  // stays valid, and PartnerWeight does not depend on the universe, so
  // neither do its weights.
  bounder_ = plan::BenefitBounder(*ctx_, model_, universe_, pruning_);
}

Partition IncrementalMerger::partition() const {
  Partition live;
  live.reserve(live_groups_);
  for (const QueryGroup& group : groups_) {
    if (!group.empty()) live.push_back(group);
  }
  return live;
}

void IncrementalMerger::RebuildGrid() {
  uint32_t live = 0;
  for (size_t slot = 0; slot < groups_.size(); ++slot) {
    if (groups_[slot].empty()) continue;
    if (slot != live) {
      groups_[live] = std::move(groups_[slot]);
      summaries_[live] = std::move(summaries_[slot]);
    }
    for (QueryId q : groups_[live]) slot_of_query_[q] = live;
    ++live;
  }
  groups_.resize(live);
  summaries_.resize(live);
  grid_ = bounder_.PartnerGrid(summaries_);
  grid_built_slots_ = live;
  obs::Count("merge.incremental.grid_rebuilds");
}

void IncrementalMerger::AppendGroup(QueryGroup group,
                                    plan::GroupSummary summary) {
  const uint32_t slot = static_cast<uint32_t>(groups_.size());
  for (QueryId q : group) slot_of_query_[q] = slot;
  groups_.push_back(std::move(group));
  ++live_groups_;
  if (grid_) grid_->Insert(slot, summary.bbox, bounder_.PartnerWeight(summary));
  summaries_.push_back(std::move(summary));
}

void IncrementalMerger::UpdateGroup(uint32_t slot,
                                    plan::GroupSummary summary) {
  if (grid_) {
    grid_->Remove(slot, summaries_[slot].bbox);
    grid_->Insert(slot, summary.bbox, bounder_.PartnerWeight(summary));
  }
  summaries_[slot] = std::move(summary);
}

void IncrementalMerger::VacateSlot(uint32_t slot) {
  if (grid_) grid_->Remove(slot, summaries_[slot].bbox);
  QueryGroup().swap(groups_[slot]);
  --live_groups_;
}

void IncrementalMerger::CandidateSlots(const plan::GroupSummary& summary,
                                       std::vector<uint32_t>* out) {
  out->clear();
  grid_->QueryPassing(bounder_.PartnerTestFor(summary), &seen_, out);
  // The walk returns slots unordered; ascending slots are creation
  // order, the order a scan of every group visits them in.
  if (out->size() != live_groups_) {
    std::sort(out->begin(), out->end());
  } else if (!std::is_sorted(out->begin(), out->end())) {
    // Every live group: list the occupied slots. A one-cell grid (every
    // grid without the distance term) returns them in insertion order,
    // ascending until an update moves an entry.
    out->clear();
    for (uint32_t slot = 0; slot < groups_.size(); ++slot) {
      if (!groups_[slot].empty()) out->push_back(slot);
    }
  }
}

double IncrementalMerger::AddQuery(QueryId id) {
  obs::Count("merge.incremental.adds");
  if (slot_of_query_.size() <= id) slot_of_query_.resize(id + 1, kNoSlot);
  ExtendUniverse(id);
  plan::GroupSummary single = SingletonSummary(id);
  // Candidate 0: a new singleton group.
  double best_delta = single.cost;
  uint32_t best_slot = kNoSlot;
  plan::GroupSummary best_summary;
  if (!grid_ || groups_.size() > 2 * grid_built_slots_ + 8) RebuildGrid();
  CandidateSlots(single, &cands_);
  size_t evaluated = 0;
  for (uint32_t slot : cands_) {
    // Skip when the admissible benefit bound proves delta >= best_delta
    // (delta = singleton_cost - benefit >= singleton_cost - ub): the
    // strict `<` below could never pick this group.
    const double ub = bounder_.UpperBound(summaries_[slot], single);
    if (ub <= single.cost - best_delta) continue;
    ++evaluated;
    QueryGroup grown = groups_[slot];
    grown.push_back(id);
    CanonicalizeGroup(&grown);
    plan::GroupSummary gs = Summarize(grown);
    const double delta = gs.cost - summaries_[slot].cost;
    if (delta < best_delta) {
      best_delta = delta;
      best_slot = slot;
      best_summary = std::move(gs);
    }
  }
  // Every group not evaluated exactly is pruned, whether the partner
  // walk or the bound dismissed it, so the count does not depend on the
  // grid.
  const size_t pruned = live_groups_ - evaluated;
  bounds_pruned_ += pruned;
  obs::Count("merge.incremental.bounds_pruned", pruned);

  if (best_slot == kNoSlot) {
    AppendGroup({id}, std::move(single));
  } else {
    groups_[best_slot].push_back(id);
    CanonicalizeGroup(&groups_[best_slot]);
    slot_of_query_[id] = best_slot;
    UpdateGroup(best_slot, std::move(best_summary));
  }
  cost_ += best_delta;
  return cost_;
}

double IncrementalMerger::RemoveQuery(QueryId id) {
  obs::Count("merge.incremental.removes");
  if (!Contains(id)) return cost_;
  const uint32_t slot = slot_of_query_[id];
  QueryGroup& group = groups_[slot];
  auto it = std::find(group.begin(), group.end(), id);
  QSP_CHECK(it != group.end());
  const double old_cost = summaries_[slot].cost;
  group.erase(it);
  slot_of_query_[id] = kNoSlot;
  if (group.empty()) {
    cost_ -= old_cost;
    VacateSlot(slot);
  } else {
    plan::GroupSummary gs = Summarize(group);
    cost_ += gs.cost - old_cost;
    UpdateGroup(slot, std::move(gs));
  }
  return cost_;
}

double IncrementalMerger::Repair(int max_moves) {
  obs::Count("merge.incremental.repairs");
  const uint64_t pruned_before = bounds_pruned_;
  int moves = 0;
  while (max_moves == 0 || moves < max_moves) {
    // Every move reshapes the groups; a grid sized for the partition of
    // an earlier step (a random scatter's domain-wide boxes, say) would
    // stay one coarse cell as the boxes shrink. The rebuild also
    // compacts the slots, so slots 0..m-1 hold the m live groups.
    RebuildGrid();
    double best_delta = 0.0;
    enum class Kind { kNone, kMerge, kExtract };
    Kind best_kind = Kind::kNone;
    uint32_t best_i = 0, best_j = 0;
    QueryId best_q = 0;
    plan::GroupSummary best_merged;
    plan::GroupSummary best_rest;

    const size_t m = groups_.size();
    size_t merges_evaluated = 0;
    for (uint32_t i = 0; i < m; ++i) {
      CandidateSlots(summaries_[i], &cands_);
      for (uint32_t j : cands_) {
        if (j <= i) continue;
        // best_delta >= 0 throughout, so pairs the partner query drops
        // (bound <= 0) and pairs whose bound cannot *strictly* beat the
        // current best are exactly the pairs the lexicographic scan
        // would never select.
        const double ub = bounder_.UpperBound(summaries_[i], summaries_[j]);
        if (ub <= best_delta) continue;
        ++merges_evaluated;
        plan::GroupSummary ms =
            Summarize(UnionGroups(groups_[i], groups_[j]));
        const double delta = summaries_[i].cost + summaries_[j].cost - ms.cost;
        // IsImprovement filters rounding-level "gains" that would make a
        // merge and its inverse extract move both look beneficial.
        if (delta > best_delta && IsImprovement(delta, cost_)) {
          best_delta = delta;
          best_kind = Kind::kMerge;
          best_i = i;
          best_j = j;
          best_merged = std::move(ms);
        }
      }
    }
    // As in AddQuery: every pair not evaluated exactly is pruned.
    bounds_pruned_ += m * (m - 1) / 2 - merges_evaluated;
    for (uint32_t i = 0; i < m; ++i) {
      const QueryGroup& group = groups_[i];
      if (group.size() < 2) continue;
      const double group_cost = summaries_[i].cost;
      const plan::BenefitBounder::ExtractBound extract_ub =
          bounder_.ExtractBoundFor(group, group_cost);
      for (QueryId q : group) {
        const double q_cost = SingletonCost(q);
        if (extract_ub(ctx_->Size(q), q_cost) <= best_delta) {
          ++bounds_pruned_;
          continue;
        }
        QueryGroup rest;
        for (QueryId other : group) {
          if (other != q) rest.push_back(other);
        }
        plan::GroupSummary rs = Summarize(rest);
        const double delta = group_cost - rs.cost - q_cost;
        if (delta > best_delta && IsImprovement(delta, cost_)) {
          best_delta = delta;
          best_kind = Kind::kExtract;
          best_i = i;
          best_q = q;
          best_rest = std::move(rs);
        }
      }
    }

    if (best_kind == Kind::kNone) break;
    // The next step (or the next arrival's probe) rebuilds the grid, so
    // the move need not maintain it.
    grid_.reset();
    if (best_kind == Kind::kMerge) {
      // best_i < best_j: the merged group keeps the older slot.
      QueryGroup merged = UnionGroups(groups_[best_i], groups_[best_j]);
      for (QueryId q : groups_[best_j]) slot_of_query_[q] = best_i;
      VacateSlot(best_j);
      groups_[best_i] = std::move(merged);
      UpdateGroup(best_i, std::move(best_merged));
    } else {
      QueryGroup& group = groups_[best_i];
      QueryGroup rest;
      for (QueryId other : group) {
        if (other != best_q) rest.push_back(other);
      }
      group = std::move(rest);
      UpdateGroup(best_i, std::move(best_rest));
      AppendGroup({best_q}, SingletonSummary(best_q));
    }
    cost_ -= best_delta;
    ++moves;
  }
  obs::Count("merge.incremental.repair_moves",
             static_cast<uint64_t>(moves));
  obs::Count("merge.incremental.bounds_pruned",
             bounds_pruned_ - pruned_before);
  return cost_;
}

void IncrementalMerger::Reset(Partition partition) {
  partition.erase(
      std::remove_if(partition.begin(), partition.end(),
                     [](const QueryGroup& g) { return g.empty(); }),
      partition.end());
  CanonicalizePartition(&partition);
  groups_ = std::move(partition);
  live_groups_ = groups_.size();
  slot_of_query_.assign(ctx_->num_queries(), kNoSlot);
  universe_ = Rect::Empty();
  for (uint32_t slot = 0; slot < groups_.size(); ++slot) {
    for (QueryId q : groups_[slot]) {
      slot_of_query_[q] = slot;
      universe_ = universe_.BoundingUnion(ctx_->queries().rect(q));
    }
  }
  bounder_ = plan::BenefitBounder(*ctx_, model_, universe_, pruning_);
  grid_.reset();  // Rebuilt before the first scan.
  cost_ = 0.0;
  summaries_.clear();
  summaries_.reserve(groups_.size());
  for (const QueryGroup& group : groups_) {
    summaries_.push_back(Summarize(group));
    cost_ += summaries_.back().cost;
  }
}

}  // namespace qsp
