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
//    RemoveQuery and Repair (Section 11), visiting the live groups in the
//    same creation order. Its Repair is the same descent with a move
//    budget, scaled by the maintained cost rather than a fresh
//    PartitionCost.
//
// ExhaustiveMerger, the doubly exponential S(S(Q)) cover search of
// Section 6.1, is the oracle of a different claim: the single-allocation
// property, that the cheapest cover of Q is always a partition.
//
// Pair merging's reference is in the library: PairMerger(/*use_heap=*/
// false) runs the paper's Profit Table; ProfitTableEvaluations counts
// its exact evaluations.

#ifndef QSP_TESTS_MERGE_REFERENCE_H_
#define QSP_TESTS_MERGE_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "merge/merger.h"
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

/// The doubly exponential exhaustive algorithm of Section 6.1: enumerate
/// every element of S(S(Q)) — every collection of query subsets — keep the
/// ones that cover Q (members may overlap: a query may be allocated to
/// several merged sets), and pick the cheapest. O(2^(2^|Q|)); refuses
/// |Q| > max_queries (default 4, already 2^15 candidate collections).
/// Its optimum is always a partition under this cost model, which makes
/// it the ground truth for PartitionMerger on tiny inputs.
class ExhaustiveMerger : public Merger {
 public:
  explicit ExhaustiveMerger(int max_queries = 4) : max_queries_(max_queries) {}

  std::string name() const override { return "exhaustive"; }

 protected:
  Result<MergeOutcome> DoMerge(const MergeContext& ctx,
                               const CostModel& model) const override {
    const int n = static_cast<int>(ctx.num_queries());
    if (n == 0) return MergeOutcome{};
    if (n > max_queries_) {
      return Status::ResourceExhausted(
          "exhaustive S(S(Q)) search is limited to " +
          std::to_string(max_queries_) + " queries, got " + std::to_string(n));
    }
    // Subset s (1-based) is the query-id mask s.
    const uint32_t num_subsets = (1u << n) - 1;
    const uint32_t full_cover = (1u << n) - 1;
    std::vector<double> subset_cost(num_subsets + 1, 0.0);
    for (uint32_t s = 1; s <= num_subsets; ++s) {
      subset_cost[s] = model.GroupCost(ctx, MaskToGroup(s));
    }
    MergeOutcome best;
    best.cost = std::numeric_limits<double>::infinity();
    // Enumerate S(S(Q)): every collection of non-empty subsets.
    const uint64_t num_collections = 1ull << num_subsets;
    for (uint64_t collection = 1; collection < num_collections;
         ++collection) {
      uint32_t covered = 0;
      double cost = 0.0;
      for (uint32_t s = 1; s <= num_subsets; ++s) {
        if (collection & (1ull << (s - 1))) {
          covered |= s;
          cost += subset_cost[s];
        }
      }
      ++best.candidates;
      if (covered != full_cover) continue;  // Not a total cover of Q.
      if (cost < best.cost) {
        best.cost = cost;
        best.partition.clear();
        for (uint32_t s = 1; s <= num_subsets; ++s) {
          if (collection & (1ull << (s - 1))) {
            best.partition.push_back(MaskToGroup(s));
          }
        }
      }
    }
    CanonicalizePartition(&best.partition);
    return best;
  }

 private:
  static QueryGroup MaskToGroup(uint32_t mask) {
    QueryGroup group;
    for (uint32_t i = 0; mask != 0; ++i, mask >>= 1) {
      if (mask & 1u) group.push_back(i);
    }
    return group;
  }

  int max_queries_;
};

}  // namespace reference
}  // namespace qsp

#endif  // QSP_TESTS_MERGE_REFERENCE_H_
