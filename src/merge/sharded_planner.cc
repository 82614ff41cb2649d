#include "merge/sharded_planner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "exec/thread_pool.h"
#include "merge/pair_merger.h"
#include "obs/metrics.h"
#include "obs/phase_tracer.h"
#include "util/status.h"

namespace qsp {
namespace {

/// One shard's planning sub-problem: a snapshot QuerySet with dense
/// local ids plus a context sharing the parent's estimator/procedure and
/// taking the inner merger's memo policy (it serves only that merge).
/// local id j <-> global id members[j].
struct ShardProblem {
  std::vector<QueryId> members;
  QuerySet queries;
  std::unique_ptr<MergeContext> ctx;
};

/// Default-constructible per-shard result for exec::ParallelMap.
struct ShardRun {
  MergeOutcome outcome;
  bool ok = true;
  std::string error;
};

/// Labeled canonicalization: CanonicalizePartition's ordering (groups
/// canonical-sorted, ordered by first element, empties dropped) with the
/// shard attribution carried through the sort.
void CanonicalizeLabeled(Partition* partition, std::vector<int32_t>* labels) {
  std::vector<std::pair<QueryGroup, int32_t>> entries;
  entries.reserve(partition->size());
  for (size_t i = 0; i < partition->size(); ++i) {
    if ((*partition)[i].empty()) continue;
    QueryGroup group = std::move((*partition)[i]);
    std::sort(group.begin(), group.end());
    entries.emplace_back(std::move(group), (*labels)[i]);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return a.first.front() < b.first.front();
            });
  partition->clear();
  labels->clear();
  for (auto& [group, label] : entries) {
    partition->push_back(std::move(group));
    labels->push_back(label);
  }
}

}  // namespace

ShardedPlanner::ShardedPlanner(const Merger* inner, Options options)
    : inner_(inner), options_(options) {
  QSP_CHECK(inner != nullptr);
}

Result<ShardedMergeOutcome> ShardedPlanner::Plan(const MergeContext& ctx,
                                                 const CostModel& model) const {
  const size_t n = ctx.num_queries();
  const int shards =
      std::min<int>(std::max(1, options_.shards),
                    static_cast<int>(std::max<size_t>(1, n)));
  ShardedMergeOutcome result;

  if (shards <= 1 || n <= 1) {
    // Delegation path: the exact call the unsharded planner makes, so
    // shards=1 output is byte-identical by construction.
    Result<MergeOutcome> outcome = inner_->Merge(ctx, model);
    if (!outcome.ok()) return outcome.status();
    result.outcome = std::move(outcome.value());
    result.group_shard.assign(result.outcome.partition.size(), 0);
    return result;
  }

  obs::ScopedSpan span("plan/sharded");
  // --- Shard assignment: cost-balanced bisection (merge/shard_assign),
  // with per-shard estimated planning costs for scheduling and the
  // imbalance gauge.
  std::vector<Rect> rects;
  rects.reserve(n);
  for (QueryId id = 0; id < n; ++id) rects.push_back(ctx.queries().rect(id));
  result.layout = AssignShards(rects, shards);
  const ShardLayout& layout = result.layout;
  const int num_shards = layout.num_shards;
  result.imbalance = layout.Imbalance();

  std::vector<ShardProblem> problems(static_cast<size_t>(num_shards));
  for (QueryId id = 0; id < n; ++id) {
    // Boundless queries have no center; park them in shard 0 (their
    // groups are always seam-classified, so reconciliation sees them).
    const int32_t s = layout.shard_of[id] == ShardLayout::kBoundlessShard
                          ? 0
                          : layout.shard_of[id];
    problems[static_cast<size_t>(s)].members.push_back(id);
  }
  for (ShardProblem& problem : problems) {
    for (QueryId id : problem.members) {
      problem.queries.Add(ctx.queries().rect(id));
    }
    if (!problem.members.empty()) {
      problem.ctx = std::make_unique<MergeContext>(
          &problem.queries, &ctx.estimator(), &ctx.procedure(),
          inner_->ContextMemo());
    }
  }

  // --- Independent per-shard merges across the exec pool, scheduled
  // largest estimated cost first: the pool's dynamic cursor hands out
  // work in index order, so fronting the heaviest shard stops it from
  // starting last and trailing an otherwise-drained pool. Results are
  // written back by shard id, and shard merges are independent, so
  // scheduling order changes wall-clock only — never outputs.
  std::vector<size_t> order(static_cast<size_t>(num_shards));
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&layout](size_t a, size_t b) {
    if (layout.shard_cost[a] != layout.shard_cost[b]) {
      return layout.shard_cost[a] > layout.shard_cost[b];
    }
    return a < b;
  });
  std::vector<ShardRun> ordered_runs = exec::ParallelMap<ShardRun>(
      static_cast<size_t>(num_shards), [&](size_t i) {
        const size_t s = order[i];
        ShardRun run;
        if (problems[s].members.empty()) return run;
        obs::ScopedTimer timer("planner.shard.latency_us");
        Result<MergeOutcome> merged =
            inner_->Merge(*problems[s].ctx, model);
        if (!merged.ok()) {
          run.ok = false;
          run.error = merged.status().ToString();
          return run;
        }
        run.outcome = std::move(merged.value());
        return run;
      });
  std::vector<ShardRun> runs(static_cast<size_t>(num_shards));
  for (size_t i = 0; i < order.size(); ++i) {
    runs[order[i]] = std::move(ordered_runs[i]);
  }
  for (size_t s = 0; s < runs.size(); ++s) {
    if (!runs[s].ok) {
      return Status::Internal("shard " + std::to_string(s) +
                              " merge failed: " + runs[s].error);
    }
  }

  // --- Seam classification. A group is interior when its MBR sits
  // strictly inside its shard's bisection leaf box on every side that
  // faces a neighbor across a cut line (box sides on the domain
  // boundary count as interior — there is no neighbor across them);
  // everything else, boundless groups included, enters the boundary
  // pass.
  Partition interior;
  std::vector<int32_t> interior_shard;
  Partition seam_start;
  for (size_t s = 0; s < runs.size(); ++s) {
    const ShardProblem& problem = problems[s];
    if (problem.members.empty()) continue;
    result.outcome.candidates += runs[s].outcome.candidates;
    result.outcome.bounds_refined += runs[s].outcome.bounds_refined;
    result.outcome.bounds_pruned += runs[s].outcome.bounds_pruned;
    const Rect& box = layout.shard_box[s];
    const ShardLayout::SeamSides& open = layout.shard_open[s];
    for (const QueryGroup& local_group : runs[s].outcome.partition) {
      QueryGroup group;
      group.reserve(local_group.size());
      Rect mbr = Rect::Empty();
      bool has_boundless = false;
      for (QueryId local : local_group) {
        group.push_back(problem.members[local]);
        const Rect& rect = problem.queries.rect(local);
        has_boundless = has_boundless || rect.IsEmpty();
        mbr = mbr.BoundingUnion(rect);
      }
      std::sort(group.begin(), group.end());
      // A boundless member makes the group's reach unbounded regardless
      // of the placed members' MBR: always a seam candidate.
      bool is_interior = !has_boundless && !mbr.IsEmpty();
      if (is_interior) {
        is_interior = (!open.x_lo || mbr.x_lo() > box.x_lo()) &&
                      (!open.x_hi || mbr.x_hi() < box.x_hi()) &&
                      (!open.y_lo || mbr.y_lo() > box.y_lo()) &&
                      (!open.y_hi || mbr.y_hi() < box.y_hi());
      }
      if (is_interior) {
        interior.push_back(std::move(group));
        interior_shard.push_back(static_cast<int32_t>(s));
      } else {
        seam_start.push_back(std::move(group));
      }
    }
  }
  result.seam_groups_in = seam_start.size();

  // --- Boundary pass: greedy pair-merge over the seam groups only,
  // against the caller's context (so cross-shard statistics come from
  // the context the final costing uses). Interior groups are untouched.
  if (seam_start.size() > 1) {
    CanonicalizePartition(&seam_start);
    const PairMerger seam_merger(/*use_heap=*/true, options_.pruning);
    const size_t groups_in = seam_start.size();
    obs::ScopedSpan seam_span("plan/seam");
    MergeOutcome seam =
        seam_merger.MergeFrom(ctx, model, std::move(seam_start));
    result.seam_merges = groups_in - seam.partition.size();
    result.outcome.candidates += seam.candidates;
    result.outcome.bounds_refined += seam.bounds_refined;
    result.outcome.bounds_pruned += seam.bounds_pruned;
    for (QueryGroup& group : seam.partition) {
      interior.push_back(std::move(group));
      interior_shard.push_back(ShardedMergeOutcome::kSeamGroup);
    }
  } else {
    for (QueryGroup& group : seam_start) {
      interior.push_back(std::move(group));
      interior_shard.push_back(ShardedMergeOutcome::kSeamGroup);
    }
  }

  CanonicalizeLabeled(&interior, &interior_shard);
  result.outcome.partition = std::move(interior);
  result.group_shard = std::move(interior_shard);
  result.outcome.cost = model.PartitionCost(ctx, result.outcome.partition);

  if (obs::Enabled()) {
    obs::SetGauge("plan.shard.count", static_cast<double>(num_shards));
    obs::SetGauge("plan.shard.seam_groups",
                  static_cast<double>(result.seam_groups_in));
    obs::SetGauge("plan.shard.seam_merges",
                  static_cast<double>(result.seam_merges));
    obs::SetGauge("plan.shard.groups",
                  static_cast<double>(result.outcome.partition.size()));
    // Skew accounting: largest shard's estimated planning cost over the
    // per-shard mean (1.0 = perfectly balanced), plus the per-shard
    // query-count distribution — one histogram observation per shard,
    // with min/max/mean mirrored as gauges for dashboards that can't
    // aggregate histograms.
    obs::SetGauge("plan.shard.imbalance", result.imbalance);
    size_t q_min = 0, q_max = 0, q_sum = 0;
    bool first = true;
    for (size_t q : layout.shard_queries) {
      obs::Observe("plan.shard.queries", static_cast<double>(q));
      q_min = first ? q : std::min(q_min, q);
      q_max = std::max(q_max, q);
      q_sum += q;
      first = false;
    }
    obs::SetGauge("plan.shard.queries.min", static_cast<double>(q_min));
    obs::SetGauge("plan.shard.queries.max", static_cast<double>(q_max));
    obs::SetGauge("plan.shard.queries.mean",
                  layout.shard_queries.empty()
                      ? 0.0
                      : static_cast<double>(q_sum) /
                            static_cast<double>(layout.shard_queries.size()));
  }
  return result;
}

}  // namespace qsp
