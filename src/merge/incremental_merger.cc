#include "merge/incremental_merger.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "util/float_compare.h"
#include "util/status.h"

namespace qsp {

IncrementalMerger::IncrementalMerger(const MergeContext* ctx,
                                     const CostModel& model, bool pruning)
    : ctx_(ctx),
      model_(model),
      use_bounds_(pruning && model.SupportsBenefitBounds()) {
  QSP_CHECK(ctx != nullptr);
  if (use_bounds_) bounder_.emplace(*ctx_, model_, universe_);
}

double IncrementalMerger::GroupCost(const QueryGroup& group) {
  ++evaluations_;
  obs::Count("merge.incremental.evaluations");
  return model_.GroupCost(*ctx_, group);
}

plan::GroupSummary IncrementalMerger::Summarize(const QueryGroup& group) {
  ++evaluations_;
  obs::Count("merge.incremental.evaluations");
  return bounder_->Summarize(group);
}

double IncrementalMerger::SingletonCost(QueryId id) const {
  // A singleton's stats are {messages 1, size(q), irrelevant 0} by
  // construction (MergeContext::Compute short-circuits), so this is the
  // exact memoized value, arithmetic identical to GroupCost(stats).
  GroupStats stats;
  stats.messages = 1.0;
  stats.size = ctx_->Size(id);
  stats.irrelevant = 0.0;
  return model_.GroupCost(stats);
}

plan::GroupSummary IncrementalMerger::SingletonSummary(QueryId id) const {
  plan::GroupSummary s;
  const double size = ctx_->Size(id);
  s.cost = SingletonCost(id);
  s.size = size;
  s.size_lb = size;
  s.members = 1.0;
  s.member_size_sum = size;
  s.bbox = Rect::Empty().BoundingUnion(ctx_->queries().rect(id));
  return s;
}

void IncrementalMerger::ExtendUniverse(QueryId id) {
  const Rect grown = universe_.BoundingUnion(ctx_->queries().rect(id));
  if (universe_.Contains(grown)) return;
  universe_ = grown;
  bounder_.emplace(*ctx_, model_, universe_);
  // Distance-awareness is monotone non-increasing as the universe grows;
  // once a query escapes the density-floor support the grid is dead
  // weight (candidates fall back to the full scan order).
  if (!bounder_->distance_aware()) grid_.reset();
}

bool IncrementalMerger::DistanceAware() const {
  return use_bounds_ && bounder_.has_value() && bounder_->distance_aware();
}

void IncrementalMerger::RebuildGrid() {
  const size_t m = partition_.size();
  // Compact keys to 0..m-1 in slot order: preserves the key-order ==
  // slot-order invariant and garbage-collects dead keys.
  key_of_slot_.resize(m);
  slot_of_key_.assign(m, kNoSlot);
  for (size_t i = 0; i < m; ++i) {
    key_of_slot_[i] = static_cast<uint32_t>(i);
    slot_of_key_[i] = i;
  }
  next_key_ = static_cast<uint32_t>(m);
  for (size_t i = 0; i < m; ++i) {
    for (QueryId q : partition_[i]) {
      key_of_query_[q] = static_cast<uint32_t>(i);
    }
  }
  std::vector<Rect> bboxes(m);
  for (size_t i = 0; i < m; ++i) bboxes[i] = summaries_[i].bbox;
  grid_ = SpatialGrid::ForRects(bboxes);
  for (size_t i = 0; i < m; ++i) {
    grid_->Insert(static_cast<uint32_t>(i), bboxes[i], summaries_[i].cost);
  }
  grid_built_groups_ = m;
  obs::Count("merge.incremental.grid_rebuilds");
}

void IncrementalMerger::AppendGroup(QueryGroup group,
                                    plan::GroupSummary summary) {
  const size_t slot = partition_.size();
  const uint32_t key = next_key_++;
  QSP_CHECK(slot_of_key_.size() == key);
  slot_of_key_.push_back(slot);
  key_of_slot_.push_back(key);
  for (QueryId q : group) key_of_query_[q] = key;
  partition_.push_back(std::move(group));
  if (use_bounds_) {
    if (grid_) grid_->Insert(key, summary.bbox, summary.cost);
    summaries_.push_back(std::move(summary));
  }
}

void IncrementalMerger::UpdateGroup(size_t slot, plan::GroupSummary summary) {
  if (grid_) {
    const uint32_t key = key_of_slot_[slot];
    grid_->Remove(key, summaries_[slot].bbox);
    grid_->Insert(key, summary.bbox, summary.cost);
  }
  summaries_[slot] = std::move(summary);
}

void IncrementalMerger::EraseGroup(size_t slot) {
  const uint32_t key = key_of_slot_[slot];
  if (use_bounds_) {
    if (grid_) grid_->Remove(key, summaries_[slot].bbox);
    summaries_.erase(summaries_.begin() + static_cast<ptrdiff_t>(slot));
  }
  slot_of_key_[key] = kNoSlot;
  partition_.erase(partition_.begin() + static_cast<ptrdiff_t>(slot));
  key_of_slot_.erase(key_of_slot_.begin() + static_cast<ptrdiff_t>(slot));
  for (size_t j = slot; j < key_of_slot_.size(); ++j) {
    slot_of_key_[key_of_slot_[j]] = j;
  }
}

void IncrementalMerger::CandidateSlots(const plan::GroupSummary& summary,
                                       std::vector<size_t>* out) {
  out->clear();
  if (DistanceAware()) {
    if (!grid_ || partition_.size() > 2 * grid_built_groups_ + 8) {
      RebuildGrid();
    }
    std::vector<uint32_t> keys;
    grid_->QueryPassing(bounder_->PartnerTestFor(summary), &seen_, &keys);
    // Keys ascend in creation order which equals slot order, so the
    // result visits groups in the exhaustive scan's ascending order.
    for (uint32_t key : keys) {
      const size_t slot = slot_of_key_[key];
      if (slot != kNoSlot) out->push_back(slot);
    }
  } else {
    for (size_t i = 0; i < partition_.size(); ++i) out->push_back(i);
  }
}

double IncrementalMerger::AddQuery(QueryId id) {
  obs::Count("merge.incremental.adds");
  if (key_of_query_.size() <= id) key_of_query_.resize(id + 1, kNoKey);
  double best_delta = 0.0;
  size_t best_group = partition_.size();  // Sentinel: singleton.
  plan::GroupSummary single;
  plan::GroupSummary best_summary;

  if (use_bounds_) {
    ExtendUniverse(id);
    single = SingletonSummary(id);
    best_delta = single.cost;
    const uint64_t pruned_before = bounds_pruned_;
    std::vector<size_t> cands;
    CandidateSlots(single, &cands);
    for (size_t slot : cands) {
      // Skip when the admissible benefit bound proves delta >= best_delta
      // (delta = singleton_cost - benefit >= singleton_cost - ub): the
      // exhaustive scan's strict `<` could never pick this group, so the
      // pruned scan makes the identical placement, same tie-breaks.
      const double ub = bounder_->UpperBound(summaries_[slot], single);
      if (ub <= single.cost - best_delta) {
        ++bounds_pruned_;
        continue;
      }
      QueryGroup grown = partition_[slot];
      grown.push_back(id);
      CanonicalizeGroup(&grown);
      plan::GroupSummary gs = Summarize(grown);
      const double delta = gs.cost - summaries_[slot].cost;
      if (delta < best_delta) {
        best_delta = delta;
        best_group = slot;
        best_summary = std::move(gs);
      }
    }
    obs::Count("merge.incremental.bounds_pruned",
               bounds_pruned_ - pruned_before);
  } else {
    // Candidate 0: a new singleton group.
    best_delta = GroupCost({id});
    for (size_t i = 0; i < partition_.size(); ++i) {
      const double old_cost = GroupCost(partition_[i]);
      QueryGroup grown = partition_[i];
      grown.push_back(id);
      CanonicalizeGroup(&grown);
      const double delta = GroupCost(grown) - old_cost;
      if (delta < best_delta) {
        best_delta = delta;
        best_group = i;
      }
    }
  }

  if (best_group == partition_.size()) {
    AppendGroup({id}, single);
  } else {
    partition_[best_group].push_back(id);
    CanonicalizeGroup(&partition_[best_group]);
    key_of_query_[id] = key_of_slot_[best_group];
    if (use_bounds_) UpdateGroup(best_group, std::move(best_summary));
  }
  cost_ += best_delta;
  return cost_;
}

double IncrementalMerger::RemoveQuery(QueryId id) {
  obs::Count("merge.incremental.removes");
  const uint32_t key =
      id < key_of_query_.size() ? key_of_query_[id] : kNoKey;
  if (key == kNoKey) return cost_;
  const size_t slot = slot_of_key_[key];
  QSP_CHECK(slot != kNoSlot);
  QueryGroup& group = partition_[slot];
  auto it = std::find(group.begin(), group.end(), id);
  QSP_CHECK(it != group.end());
  const double old_cost =
      use_bounds_ ? summaries_[slot].cost : GroupCost(group);
  group.erase(it);
  key_of_query_[id] = kNoKey;
  if (group.empty()) {
    cost_ -= old_cost;
    EraseGroup(slot);
  } else if (use_bounds_) {
    plan::GroupSummary gs = Summarize(group);
    cost_ += gs.cost - old_cost;
    UpdateGroup(slot, std::move(gs));
  } else {
    cost_ += GroupCost(group) - old_cost;
  }
  // Ids are never reused (QuerySet is append-only), so every memoized
  // group mentioning the dead id is garbage; evicting bounds the memo's
  // footprint under sustained churn.
  ctx_->EvictGroupsContaining(id);
  return cost_;
}

double IncrementalMerger::Repair(int max_moves) {
  obs::Count("merge.incremental.repairs");
  const uint64_t pruned_before = bounds_pruned_;
  int moves = 0;
  while (max_moves == 0 || moves < max_moves) {
    double best_delta = 0.0;
    enum class Kind { kNone, kMerge, kExtract };
    Kind best_kind = Kind::kNone;
    size_t best_i = 0, best_j = 0;
    QueryId best_q = 0;
    plan::GroupSummary best_merged;
    plan::GroupSummary best_rest;

    if (use_bounds_) {
      std::vector<size_t> cands;
      for (size_t i = 0; i < partition_.size(); ++i) {
        CandidateSlots(summaries_[i], &cands);
        for (size_t j : cands) {
          if (j <= i) continue;
          // best_delta >= 0 throughout, so pairs outside the search
          // window (bound <= 0) and pairs whose bound cannot *strictly*
          // beat the current best are exactly the pairs the exhaustive
          // lexicographic scan would never select.
          const double ub = bounder_->UpperBound(summaries_[i], summaries_[j]);
          if (ub <= best_delta) {
            ++bounds_pruned_;
            continue;
          }
          plan::GroupSummary ms =
              Summarize(UnionGroups(partition_[i], partition_[j]));
          const double delta =
              summaries_[i].cost + summaries_[j].cost - ms.cost;
          // IsImprovement filters rounding-level "gains" that would make
          // a merge and its inverse extract move both look beneficial.
          if (delta > best_delta && IsImprovement(delta, cost_)) {
            best_delta = delta;
            best_kind = Kind::kMerge;
            best_i = i;
            best_j = j;
            best_merged = std::move(ms);
          }
        }
      }
      for (size_t i = 0; i < partition_.size(); ++i) {
        const QueryGroup& group = partition_[i];
        if (group.size() < 2) continue;
        const double group_cost = summaries_[i].cost;
        // Max and second-max member sizes: removing q leaves a group
        // whose merged size is at least the largest surviving member.
        double max1 = -std::numeric_limits<double>::infinity();
        double max2 = max1;
        size_t max_count = 0;
        for (QueryId q : group) {
          const double s = ctx_->Size(q);
          if (s > max1) {
            max2 = max1;
            max1 = s;
            max_count = 1;
          } else if (s == max1) {
            ++max_count;
          } else if (s > max2) {
            max2 = s;
          }
        }
        for (QueryId q : group) {
          const double sq = ctx_->Size(q);
          const double rest_lb =
              std::max(0.0, (sq == max1 && max_count == 1) ? max2 : max1);
          const double ub =
              group_cost -
              model_.MergedCostLowerBound(plan::BenefitBounder::kSlack *
                                          rest_lb) -
              SingletonCost(q);
          if (ub <= best_delta) {
            ++bounds_pruned_;
            continue;
          }
          QueryGroup rest;
          for (QueryId other : group) {
            if (other != q) rest.push_back(other);
          }
          plan::GroupSummary rs = Summarize(rest);
          const double delta = group_cost - rs.cost - SingletonCost(q);
          if (delta > best_delta && IsImprovement(delta, cost_)) {
            best_delta = delta;
            best_kind = Kind::kExtract;
            best_i = i;
            best_q = q;
            best_rest = std::move(rs);
          }
        }
      }
    } else {
      for (size_t i = 0; i < partition_.size(); ++i) {
        for (size_t j = i + 1; j < partition_.size(); ++j) {
          const double delta =
              GroupCost(partition_[i]) + GroupCost(partition_[j]) -
              GroupCost(UnionGroups(partition_[i], partition_[j]));
          // IsImprovement filters rounding-level "gains" that would make a
          // merge and its inverse extract move both look beneficial.
          if (delta > best_delta && IsImprovement(delta, cost_)) {
            best_delta = delta;
            best_kind = Kind::kMerge;
            best_i = i;
            best_j = j;
          }
        }
      }
      for (size_t i = 0; i < partition_.size(); ++i) {
        const QueryGroup& group = partition_[i];
        if (group.size() < 2) continue;
        const double group_cost = GroupCost(group);
        for (QueryId q : group) {
          QueryGroup rest;
          for (QueryId other : group) {
            if (other != q) rest.push_back(other);
          }
          const double delta =
              group_cost - GroupCost(rest) - GroupCost({q});
          if (delta > best_delta && IsImprovement(delta, cost_)) {
            best_delta = delta;
            best_kind = Kind::kExtract;
            best_i = i;
            best_q = q;
          }
        }
      }
    }

    if (best_kind == Kind::kNone) break;
    if (best_kind == Kind::kMerge) {
      QueryGroup merged = UnionGroups(partition_[best_i], partition_[best_j]);
      for (QueryId q : partition_[best_j]) {
        key_of_query_[q] = key_of_slot_[best_i];
      }
      if (use_bounds_) UpdateGroup(best_i, std::move(best_merged));
      EraseGroup(best_j);  // best_i < best_j, so best_i's slot is stable.
      partition_[best_i] = std::move(merged);
    } else {
      QueryGroup& group = partition_[best_i];
      QueryGroup rest;
      for (QueryId other : group) {
        if (other != best_q) rest.push_back(other);
      }
      group = std::move(rest);
      if (use_bounds_) {
        UpdateGroup(best_i, std::move(best_rest));
        AppendGroup({best_q}, SingletonSummary(best_q));
      } else {
        AppendGroup({best_q}, plan::GroupSummary{});
      }
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
  partition_ = std::move(partition);
  const size_t m = partition_.size();
  key_of_slot_.resize(m);
  slot_of_key_.assign(m, kNoSlot);
  for (size_t i = 0; i < m; ++i) {
    key_of_slot_[i] = static_cast<uint32_t>(i);
    slot_of_key_[i] = i;
  }
  next_key_ = static_cast<uint32_t>(m);
  key_of_query_.assign(ctx_->num_queries(), kNoKey);
  for (size_t i = 0; i < m; ++i) {
    for (QueryId q : partition_[i]) {
      key_of_query_[q] = static_cast<uint32_t>(i);
    }
  }
  cost_ = 0.0;
  if (use_bounds_) {
    universe_ = Rect::Empty();
    for (const QueryGroup& g : partition_) {
      for (QueryId q : g) {
        universe_ = universe_.BoundingUnion(ctx_->queries().rect(q));
      }
    }
    bounder_.emplace(*ctx_, model_, universe_);
    summaries_.clear();
    summaries_.reserve(m);
    grid_.reset();
    grid_built_groups_ = 0;  // Grid is rebuilt lazily on first probe.
    for (size_t i = 0; i < m; ++i) {
      summaries_.push_back(Summarize(partition_[i]));
      cost_ += summaries_.back().cost;
    }
  } else {
    for (const QueryGroup& g : partition_) cost_ += GroupCost(g);
  }
}

}  // namespace qsp
