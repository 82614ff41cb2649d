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
  bounder_ = plan::BenefitBounder(*ctx_, model_, universe_, pruning_);
  // Distance-awareness is monotone non-increasing as the universe grows;
  // once a query escapes the density-floor support the grid is dead
  // weight (candidates fall back to the full scan order). PartnerWeight
  // does not depend on the universe, so the grid's weights stay valid.
  if (!bounder_.distance_aware()) grid_.reset();
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
  grid_ = bounder_.PartnerGrid(summaries_);
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
  if (grid_) grid_->Insert(key, summary.bbox, bounder_.PartnerWeight(summary));
  summaries_.push_back(std::move(summary));
}

void IncrementalMerger::UpdateGroup(size_t slot, plan::GroupSummary summary) {
  if (grid_) {
    const uint32_t key = key_of_slot_[slot];
    grid_->Remove(key, summaries_[slot].bbox);
    grid_->Insert(key, summary.bbox, bounder_.PartnerWeight(summary));
  }
  summaries_[slot] = std::move(summary);
}

void IncrementalMerger::EraseGroup(size_t slot) {
  const uint32_t key = key_of_slot_[slot];
  if (grid_) grid_->Remove(key, summaries_[slot].bbox);
  summaries_.erase(summaries_.begin() + static_cast<ptrdiff_t>(slot));
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
  if (bounder_.distance_aware()) {
    if (!grid_ || partition_.size() > 2 * grid_built_groups_ + 8) {
      RebuildGrid();
    }
    keys_.clear();
    grid_->QueryPassing(bounder_.PartnerTestFor(summary), &seen_, &keys_);
    // The grid returns keys unordered. Keys ascend in creation order,
    // which equals slot order, so sorted keys visit groups in ascending
    // slot order: the order of the full scan below.
    std::sort(keys_.begin(), keys_.end());
    for (uint32_t key : keys_) {
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
  ExtendUniverse(id);
  plan::GroupSummary single = SingletonSummary(id);
  // Candidate 0: a new singleton group.
  double best_delta = single.cost;
  size_t best_group = partition_.size();  // Sentinel: singleton.
  plan::GroupSummary best_summary;
  std::vector<size_t> cands;
  CandidateSlots(single, &cands);
  size_t evaluated = 0;
  for (size_t slot : cands) {
    // Skip when the admissible benefit bound proves delta >= best_delta
    // (delta = singleton_cost - benefit >= singleton_cost - ub): the
    // strict `<` below could never pick this group.
    const double ub = bounder_.UpperBound(summaries_[slot], single);
    if (ub <= single.cost - best_delta) continue;
    ++evaluated;
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
  // Every group not evaluated exactly is pruned, whether the partner
  // walk or the bound dismissed it, so the count does not depend on the
  // grid.
  const size_t pruned = partition_.size() - evaluated;
  bounds_pruned_ += pruned;
  obs::Count("merge.incremental.bounds_pruned", pruned);

  if (best_group == partition_.size()) {
    AppendGroup({id}, std::move(single));
  } else {
    partition_[best_group].push_back(id);
    CanonicalizeGroup(&partition_[best_group]);
    key_of_query_[id] = key_of_slot_[best_group];
    UpdateGroup(best_group, std::move(best_summary));
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
  const double old_cost = summaries_[slot].cost;
  group.erase(it);
  key_of_query_[id] = kNoKey;
  if (group.empty()) {
    cost_ -= old_cost;
    EraseGroup(slot);
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
  std::vector<size_t> cands;
  while (max_moves == 0 || moves < max_moves) {
    // Every move reshapes the groups; a grid sized for the partition of
    // an earlier step (a random scatter's domain-wide boxes, say) would
    // stay one coarse cell as the boxes shrink.
    if (bounder_.distance_aware()) RebuildGrid();
    double best_delta = 0.0;
    enum class Kind { kNone, kMerge, kExtract };
    Kind best_kind = Kind::kNone;
    size_t best_i = 0, best_j = 0;
    QueryId best_q = 0;
    plan::GroupSummary best_merged;
    plan::GroupSummary best_rest;

    const size_t m = partition_.size();
    size_t merges_evaluated = 0;
    for (size_t i = 0; i < m; ++i) {
      CandidateSlots(summaries_[i], &cands);
      for (size_t j : cands) {
        if (j <= i) continue;
        // best_delta >= 0 throughout, so pairs the partner query drops
        // (bound <= 0) and pairs whose bound cannot *strictly* beat the
        // current best are exactly the pairs the lexicographic scan
        // would never select.
        const double ub = bounder_.UpperBound(summaries_[i], summaries_[j]);
        if (ub <= best_delta) continue;
        ++merges_evaluated;
        plan::GroupSummary ms =
            Summarize(UnionGroups(partition_[i], partition_[j]));
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
    for (size_t i = 0; i < partition_.size(); ++i) {
      const QueryGroup& group = partition_[i];
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
      QueryGroup merged = UnionGroups(partition_[best_i], partition_[best_j]);
      for (QueryId q : partition_[best_j]) {
        key_of_query_[q] = key_of_slot_[best_i];
      }
      UpdateGroup(best_i, std::move(best_merged));
      EraseGroup(best_j);  // best_i < best_j, so best_i's slot is stable.
      partition_[best_i] = std::move(merged);
    } else {
      QueryGroup& group = partition_[best_i];
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
  universe_ = Rect::Empty();
  for (const QueryGroup& g : partition_) {
    for (QueryId q : g) {
      universe_ = universe_.BoundingUnion(ctx_->queries().rect(q));
    }
  }
  bounder_ = plan::BenefitBounder(*ctx_, model_, universe_, pruning_);
  summaries_.clear();
  summaries_.reserve(m);
  grid_.reset();
  grid_built_groups_ = 0;  // Grid is rebuilt lazily on first probe.
  for (size_t i = 0; i < m; ++i) {
    summaries_.push_back(Summarize(partition_[i]));
    cost_ += summaries_.back().cost;
  }
}

}  // namespace qsp
