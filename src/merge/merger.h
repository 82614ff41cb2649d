#ifndef QSP_MERGE_MERGER_H_
#define QSP_MERGE_MERGER_H_

#include <cstdint>
#include <string>

#include "cost/cost_model.h"
#include "query/merge_context.h"
#include "query/query.h"
#include "util/status.h"

namespace qsp {

/// Output of a query-merging algorithm: the chosen collection M, its total
/// cost under the model, and how much of the search space was touched.
struct MergeOutcome {
  Partition partition;
  double cost = 0.0;
  /// Candidate solutions (or local moves) evaluated; a search-effort
  /// metric used by the algorithm-comparison benchmarks.
  uint64_t candidates = 0;
  /// BenefitBounder effort accounting (zero for mergers that do not use
  /// bounds): candidate merges whose admissible bound had to be refined
  /// to an exact evaluation, and candidates pruned on the bound alone.
  /// Surfaced by PlanExplainer so an EXPLAIN shows how much exact work
  /// the bounds saved.
  uint64_t bounds_refined = 0;
  uint64_t bounds_pruned = 0;
};

/// Common interface of the query-merging algorithms of Section 6. All
/// implementations are deterministic given their configuration (stochastic
/// ones take an explicit seed).
class Merger {
 public:
  virtual ~Merger() = default;

  /// Solves (exactly or heuristically) the query merging problem for all
  /// queries in `ctx` under `model`. Returns an error only when the
  /// instance exceeds the algorithm's feasibility limits (the exhaustive
  /// searches refuse inputs whose enumeration would not terminate) or the
  /// merger's configuration is invalid (a directed search with no
  /// restarts).
  ///
  /// Non-virtual entry point: when telemetry is on (qsp::obs) it wraps
  /// the run in a `merge/<name>` span and records the standard per-merger
  /// metrics — merge.<name>.{runs,candidates,group_evals,latency_us} and
  /// the merge.<name>.last_{cost,groups} gauges — so every algorithm is
  /// observable without per-implementation boilerplate.
  Result<MergeOutcome> Merge(const MergeContext& ctx,
                             const CostModel& model) const;

  virtual std::string name() const = 0;

  /// The memo policy of a context built only to run this merger, as
  /// ShardedPlanner's shard contexts and the live replan snapshot are:
  /// kStore when one run asks again for groups it has already evaluated,
  /// kEvaluateOnly when it does not. The searches do — candidate
  /// partitions share subgroups, and clustering re-reads the pairs it
  /// bounds — so they keep the default.
  virtual GroupMemo ContextMemo() const { return GroupMemo::kStore; }

 protected:
  /// The actual algorithm; implemented by each merger.
  virtual Result<MergeOutcome> DoMerge(const MergeContext& ctx,
                                       const CostModel& model) const = 0;
};

}  // namespace qsp

#endif  // QSP_MERGE_MERGER_H_
