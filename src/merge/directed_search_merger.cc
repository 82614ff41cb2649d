#include "merge/directed_search_merger.h"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "merge/incremental_merger.h"
#include "obs/metrics.h"
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

}  // namespace

Result<MergeOutcome> DirectedSearchMerger::DoMerge(
    const MergeContext& ctx, const CostModel& model) const {
  if (restarts_ < 1) {
    return Status::InvalidArgument(
        "directed search needs at least one restart, got " +
        std::to_string(restarts_));
  }
  const size_t n = ctx.num_queries();
  MergeOutcome best;
  if (n == 0) return best;
  // Restart 0 descends from the no-merging state; later restarts from
  // random scatters. All starts are drawn up front from the single seeded
  // stream (the draw order never depends on how descents are scheduled),
  // then the independent descents fan out across the exec pool.
  Rng rng(seed_);
  const size_t restarts = static_cast<size_t>(restarts_);
  std::vector<Partition> starts(restarts);
  for (size_t t = 0; t < restarts; ++t) {
    starts[t] = (t == 0) ? SingletonPartition(n) : RandomPartition(n, &rng);
  }

  struct Descent {
    Partition partition;
    double cost = 0.0;
    /// Exact group evaluations and pruned candidates of the descent
    /// itself, not of summarizing its start.
    uint64_t evaluations = 0;
    uint64_t pruned = 0;
  };
  std::vector<Descent> results =
      exec::ParallelMap<Descent>(restarts, [&](size_t t) {
        IncrementalMerger descent(&ctx, model, pruning_);
        descent.Reset(std::move(starts[t]));
        const uint64_t evaluations_before = descent.evaluations();
        Descent result;
        result.cost = descent.Repair();
        result.evaluations = descent.evaluations() - evaluations_before;
        result.pruned = descent.bounds_pruned();
        result.partition = descent.partition();
        return result;
      });

  // Reduce in restart order with a strict `<`: the earliest restart wins
  // cost ties, exactly as the sequential loop did — the fixed tie-break
  // that keeps the outcome identical for any thread count.
  best.cost = std::numeric_limits<double>::infinity();
  for (Descent& result : results) {
    best.candidates += result.evaluations;
    best.bounds_pruned += result.pruned;
    if (result.cost < best.cost) {
      best.cost = result.cost;
      best.partition = std::move(result.partition);
    }
  }
  best.bounds_refined = best.candidates;
  obs::Count("merge.directed-search.restarts", restarts);
  obs::Count("plan.bounds.pruned", best.bounds_pruned);
  obs::Count("plan.bounds.refined", best.bounds_refined);
  CanonicalizePartition(&best.partition);
  best.cost = model.PartitionCost(ctx, best.partition);
  return best;
}

}  // namespace qsp
