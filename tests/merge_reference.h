// Exhaustive reference implementations of the bounded merge loops, kept
// as test oracles (DESIGN.md §8). Each evaluates every candidate move
// exactly, in the scan order and with the tie-breaks the production loop
// documents, so a production loop whose bounds ever skip a candidate that
// could have won disagrees with its reference:
//
//  * ExhaustiveDescent — the steepest descent of IncrementalMerger::Repair
//    from a given partition: every merge and every extract move, best
//    strict improvement first. DirectedSearchMerger (Section 6.2.2) runs
//    that descent from each restart's start (Reset, then Repair);
//  * ExhaustiveIncrementalMerger — IncrementalMerger's AddQuery,
//    RemoveQuery and Repair (Section 11) over the same slot layout. Its
//    Repair is the same descent with a move budget, scaled by the
//    maintained cost rather than a fresh PartitionCost.
//
// Pair merging's reference is in the library: PairMerger(/*use_heap=*/
// false) runs the paper's Profit Table; ProfitTableEvaluations counts
// its exact evaluations.

#ifndef QSP_TESTS_MERGE_REFERENCE_H_
#define QSP_TESTS_MERGE_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <utility>

#include "cost/cost_model.h"
#include "query/merge_context.h"
#include "query/query.h"
#include "util/float_compare.h"

namespace qsp {
namespace reference {

/// Exact evaluations of the Profit Table when `n` singletons end in
/// `groups` groups: every pair of singletons, then after each of the
/// n - groups merges the fresh group against every other live group.
inline uint64_t ProfitTableEvaluations(uint64_t n, uint64_t groups) {
  uint64_t evaluations = n * (n - 1) / 2;
  for (uint64_t live = groups; live < n; ++live) evaluations += live - 1;
  return evaluations;
}

/// Steepest descent from `*partition` to a local minimum, evaluating
/// every merge pair (i < j, ascending) and every extract move; returns
/// the local cost. Same move order, argmax and improvement filter as
/// IncrementalMerger::Repair, which every directed-search restart runs.
inline double ExhaustiveDescent(const MergeContext& ctx, const CostModel& model,
                                Partition* partition) {
  double cost = model.PartitionCost(ctx, *partition);
  while (true) {
    double best_delta = 0.0;
    enum class Kind { kNone, kMerge, kExtract };
    Kind best_kind = Kind::kNone;
    size_t best_i = 0, best_j = 0;
    QueryId best_q = 0;
    for (size_t i = 0; i < partition->size(); ++i) {
      for (size_t j = i + 1; j < partition->size(); ++j) {
        const double delta =
            model.MergeBenefit(ctx, (*partition)[i], (*partition)[j]);
        if (delta > best_delta && IsImprovement(delta, cost)) {
          best_delta = delta;
          best_kind = Kind::kMerge;
          best_i = i;
          best_j = j;
        }
      }
    }
    for (size_t i = 0; i < partition->size(); ++i) {
      const QueryGroup& group = (*partition)[i];
      if (group.size() < 2) continue;
      const double group_cost = model.GroupCost(ctx, group);
      for (QueryId q : group) {
        QueryGroup rest;
        for (QueryId other : group) {
          if (other != q) rest.push_back(other);
        }
        const double delta = group_cost - model.GroupCost(ctx, rest) -
                             model.GroupCost(ctx, {q});
        if (delta > best_delta && IsImprovement(delta, cost)) {
          best_delta = delta;
          best_kind = Kind::kExtract;
          best_i = i;
          best_q = q;
        }
      }
    }
    if (best_kind == Kind::kNone) return cost;
    if (best_kind == Kind::kMerge) {
      QueryGroup merged =
          UnionGroups((*partition)[best_i], (*partition)[best_j]);
      partition->erase(partition->begin() + static_cast<ptrdiff_t>(best_j));
      (*partition)[best_i] = std::move(merged);
    } else {
      QueryGroup& group = (*partition)[best_i];
      QueryGroup rest;
      for (QueryId other : group) {
        if (other != best_q) rest.push_back(other);
      }
      group = std::move(rest);
      partition->push_back({best_q});
    }
    cost -= best_delta;
  }
}

/// IncrementalMerger with every scan exhaustive: the same decisions, slot
/// layout and tie-breaks, and evaluations() counting every exact group
/// cost it computes.
class ExhaustiveIncrementalMerger {
 public:
  ExhaustiveIncrementalMerger(const MergeContext* ctx, const CostModel& model)
      : ctx_(ctx), model_(model) {}

  /// Places `id` where the total cost grows least: the first existing
  /// group with a strictly smaller increase than a new singleton.
  double AddQuery(QueryId id) {
    double best_delta = GroupCost({id});
    size_t best_group = partition_.size();  // Sentinel: singleton.
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
    if (best_group == partition_.size()) {
      partition_.push_back({id});
    } else {
      partition_[best_group].push_back(id);
      CanonicalizeGroup(&partition_[best_group]);
    }
    cost_ += best_delta;
    return cost_;
  }

  /// Drops `id` from its group, erasing the group if it empties.
  double RemoveQuery(QueryId id) {
    for (size_t i = 0; i < partition_.size(); ++i) {
      QueryGroup& group = partition_[i];
      auto it = std::find(group.begin(), group.end(), id);
      if (it == group.end()) continue;
      const double old_cost = GroupCost(group);
      group.erase(it);
      if (group.empty()) {
        cost_ -= old_cost;
        partition_.erase(partition_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        cost_ += GroupCost(group) - old_cost;
      }
      break;
    }
    return cost_;
  }

  /// Steepest-descent repair over merge and extract moves; `max_moves`
  /// caps the applied moves (0 = until a local minimum).
  double Repair(int max_moves = 0) {
    int moves = 0;
    while (max_moves == 0 || moves < max_moves) {
      double best_delta = 0.0;
      enum class Kind { kNone, kMerge, kExtract };
      Kind best_kind = Kind::kNone;
      size_t best_i = 0, best_j = 0;
      QueryId best_q = 0;
      for (size_t i = 0; i < partition_.size(); ++i) {
        for (size_t j = i + 1; j < partition_.size(); ++j) {
          const double delta =
              GroupCost(partition_[i]) + GroupCost(partition_[j]) -
              GroupCost(UnionGroups(partition_[i], partition_[j]));
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
          const double delta = group_cost - GroupCost(rest) - GroupCost({q});
          if (delta > best_delta && IsImprovement(delta, cost_)) {
            best_delta = delta;
            best_kind = Kind::kExtract;
            best_i = i;
            best_q = q;
          }
        }
      }
      if (best_kind == Kind::kNone) break;
      if (best_kind == Kind::kMerge) {
        QueryGroup merged = UnionGroups(partition_[best_i], partition_[best_j]);
        partition_.erase(partition_.begin() + static_cast<ptrdiff_t>(best_j));
        partition_[best_i] = std::move(merged);
      } else {
        QueryGroup& group = partition_[best_i];
        QueryGroup rest;
        for (QueryId other : group) {
          if (other != best_q) rest.push_back(other);
        }
        group = std::move(rest);
        partition_.push_back({best_q});
      }
      cost_ -= best_delta;
      ++moves;
    }
    return cost_;
  }

  const Partition& partition() const { return partition_; }
  double cost() const { return cost_; }
  uint64_t evaluations() const { return evaluations_; }

 private:
  double GroupCost(const QueryGroup& group) {
    ++evaluations_;
    return model_.GroupCost(*ctx_, group);
  }

  const MergeContext* ctx_;
  CostModel model_;
  Partition partition_;
  double cost_ = 0.0;
  uint64_t evaluations_ = 0;
};

}  // namespace reference
}  // namespace qsp

#endif  // QSP_TESTS_MERGE_REFERENCE_H_
