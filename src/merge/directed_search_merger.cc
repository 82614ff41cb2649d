#include "merge/directed_search_merger.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "geom/spatial_grid.h"
#include "merge/plan_bounds.h"
#include "obs/metrics.h"
#include "util/float_compare.h"
#include "util/rng.h"

namespace qsp {
namespace {

/// Uniform random assignment of queries to up to n blocks (not uniform
/// over set partitions, but a cheap scattering start as the paper's
/// "random state").
Partition RandomPartition(size_t n, Rng* rng) {
  Partition groups(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t block =
        static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
    groups[block].push_back(static_cast<QueryId>(i));
  }
  CanonicalizePartition(&groups);
  return groups;
}

/// Search-effort counters of one restart, flushed into the obs registry
/// by DoMerge (locals are free; registry lookups are not).
struct DescentCounters {
  uint64_t iterations = 0;
  uint64_t accepted_merges = 0;
  uint64_t accepted_extracts = 0;
  /// Merge candidates not evaluated exactly: dismissed by the partner
  /// walk or by the benefit bound.
  uint64_t bounds_pruned = 0;
  /// Merge candidates whose bound survived and were evaluated exactly.
  uint64_t bounds_refined = 0;
};

/// Steepest-descent to a local minimum; returns the local cost and the
/// number of candidate moves evaluated. The bounder prunes the merge-move
/// scan: a pair whose admissible upper bound cannot beat the running best
/// delta (or pass the improvement filter) is skipped without an exact
/// evaluation — it could never have been selected, so the chosen move
/// (i-then-ascending-j scan order, strict-> argmax) is the one a scan
/// evaluating every pair would choose. A bounder that prunes nothing
/// evaluates every pair.
double Descend(const MergeContext& ctx, const CostModel& model,
               Partition* partition, uint64_t* candidates,
               DescentCounters* counters,
               const plan::BenefitBounder& bounder) {
  double cost = model.PartitionCost(ctx, *partition);
  std::vector<uint32_t> cands;
  SpatialGrid::Seen seen;
  while (true) {
    ++counters->iterations;
    double best_delta = 0.0;
    enum class Kind { kNone, kMerge, kExtract };
    Kind best_kind = Kind::kNone;
    size_t best_i = 0, best_j = 0;
    QueryId best_q = 0;

    // Merge moves. Summaries and grid are rebuilt per step: every
    // accepted move reshapes the partition, and group costs are memoized
    // so the rebuild is O(p) cheap lookups.
    const size_t p = partition->size();
    std::vector<plan::GroupSummary> sums(p);
    for (size_t i = 0; i < p; ++i) sums[i] = bounder.Summarize((*partition)[i]);
    const SpatialGrid grid = bounder.PartnerGrid(sums);
    const uint64_t refined_before = counters->bounds_refined;
    for (size_t i = 0; i < p; ++i) {
      cands.clear();
      grid.QueryPassing(bounder.PartnerTestFor(sums[i]), &seen, &cands);
      // Ascending j, the scan order the running best depends on.
      std::sort(cands.begin(), cands.end());
      for (uint32_t j : cands) {
        if (j <= i) continue;
        const double ub = bounder.UpperBound(sums[i], sums[j]);
        if (ub <= best_delta || !IsImprovement(ub, cost)) continue;
        ++counters->bounds_refined;
        ++*candidates;
        const double delta =
            model.MergeBenefit(ctx, (*partition)[i], (*partition)[j]);
        // IsImprovement filters rounding-level "gains" that would make a
        // merge and its inverse extract move both look beneficial.
        if (delta > best_delta && IsImprovement(delta, cost)) {
          best_delta = delta;
          best_kind = Kind::kMerge;
          best_i = i;
          best_j = j;
        }
      }
    }
    // Every pair not evaluated exactly is pruned, whether the partner
    // walk or the bound dismissed it, so the count does not depend on
    // the grid.
    counters->bounds_pruned +=
        p * (p - 1) / 2 - (counters->bounds_refined - refined_before);
    // Extract moves: pull one query out of a multi-query group.
    for (size_t i = 0; i < partition->size(); ++i) {
      const QueryGroup& group = (*partition)[i];
      if (group.size() < 2) continue;
      const double group_cost = model.GroupCost(ctx, group);
      for (QueryId q : group) {
        ++*candidates;
        QueryGroup rest;
        rest.reserve(group.size() - 1);
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
      ++counters->accepted_merges;
      QueryGroup merged =
          UnionGroups((*partition)[best_i], (*partition)[best_j]);
      partition->erase(partition->begin() +
                       static_cast<ptrdiff_t>(best_j));
      (*partition)[best_i] = std::move(merged);
    } else {
      ++counters->accepted_extracts;
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

}  // namespace

Result<MergeOutcome> DirectedSearchMerger::DoMerge(
    const MergeContext& ctx, const CostModel& model) const {
  const size_t n = ctx.num_queries();
  MergeOutcome best;
  best.cost = std::numeric_limits<double>::infinity();
  if (n == 0) {
    best.cost = 0.0;
    return best;
  }
  // Restart 0 descends from the no-merging state; later restarts from
  // random scatters. All starts are drawn up front from the single seeded
  // stream (the draw order never depends on how descents are scheduled),
  // then the independent descents fan out across the exec pool.
  const plan::BenefitBounder bounder(ctx, model, pruning_);
  Rng rng(seed_);
  const size_t restarts = static_cast<size_t>(restarts_);
  std::vector<Partition> starts(restarts);
  for (size_t t = 0; t < restarts; ++t) {
    starts[t] = (t == 0) ? SingletonPartition(n) : RandomPartition(n, &rng);
  }

  struct RestartResult {
    Partition partition;
    double cost = 0.0;
    uint64_t candidates = 0;
    DescentCounters counters;
  };
  std::vector<RestartResult> results =
      exec::ParallelMap<RestartResult>(restarts, [&](size_t t) {
        RestartResult result;
        result.partition = std::move(starts[t]);
        result.cost = Descend(ctx, model, &result.partition,
                              &result.candidates, &result.counters,
                              bounder);
        return result;
      });

  // Reduce in restart order with a strict `<`: the earliest restart wins
  // cost ties, exactly as the sequential loop did — the fixed tie-break
  // that keeps the outcome identical for any thread count.
  DescentCounters counters;
  for (RestartResult& result : results) {
    best.candidates += result.candidates;
    counters.iterations += result.counters.iterations;
    counters.accepted_merges += result.counters.accepted_merges;
    counters.accepted_extracts += result.counters.accepted_extracts;
    counters.bounds_pruned += result.counters.bounds_pruned;
    counters.bounds_refined += result.counters.bounds_refined;
    if (result.cost < best.cost) {
      best.cost = result.cost;
      best.partition = std::move(result.partition);
    }
  }
  obs::Count("merge.directed-search.restarts",
             static_cast<uint64_t>(restarts_));
  obs::Count("merge.directed-search.descent_iterations",
             counters.iterations);
  obs::Count("merge.directed-search.accepted_merges",
             counters.accepted_merges);
  obs::Count("merge.directed-search.accepted_extracts",
             counters.accepted_extracts);
  obs::Count("plan.bounds.pruned", counters.bounds_pruned);
  obs::Count("plan.bounds.refined", counters.bounds_refined);
  best.bounds_pruned = counters.bounds_pruned;
  best.bounds_refined = counters.bounds_refined;
  CanonicalizePartition(&best.partition);
  best.cost = model.PartitionCost(ctx, best.partition);
  return best;
}

}  // namespace qsp
