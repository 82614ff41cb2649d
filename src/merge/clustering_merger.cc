#include "merge/clustering_merger.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "geom/spatial_grid.h"
#include "merge/pair_merger.h"
#include "merge/partition_merger.h"
#include "merge/plan_bounds.h"
#include "obs/metrics.h"

namespace qsp {
namespace {

/// Union-find over query ids.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

Result<MergeOutcome> ClusteringMerger::DoMerge(const MergeContext& ctx,
                                               const CostModel& model) const {
  const size_t n = ctx.num_queries();
  MergeOutcome outcome;
  if (n == 0) return outcome;
  uint64_t pairs_pruned = 0;
  uint64_t subsolves_exact = 0;
  uint64_t subsolves_greedy = 0;

  // Build the "mergeable" graph: connect queries whose best-case co-merge
  // benefit is positive. The bound evaluations are independent, so they
  // fan out across the exec pool; the union-find is then fed serially in
  // ascending (a, b) order, making the components identical for any
  // thread count.
  //
  // With pruning, the O(n^2) pair list shrinks to provably-sufficient
  // candidates before any evaluation (DESIGN.md §8). The co-merge bound
  // is decreasing in the merged-size floor r, and r is never below
  //  * kSlack * max(s1, s2) for intersecting queries (the merged region
  //    covers both), and
  //  * kSlack * (s1 + s2) for disjoint queries (their coverage cannot
  //    overlap, so sizes add).
  // So intersecting pairs come from walks over a spatial grid with a
  // cheap max-size test, and disjoint pairs are enumerated by ascending
  // size sum only while the sum stays under s_cap, past which the bound
  // at the disjoint floor is negative with a margin far above fp noise.
  // Every skipped pair is non-mergeable under the exact test; every
  // surviving pair is evaluated with the identical expression — the
  // components are unchanged.
  const double slack = plan::BenefitBounder::kSlack;
  // Bound at the disjoint floor: k_m + (s1+s2) * coef. Usable only when
  // decreasing in the size sum (coef < 0; with k_u ~ 0 it is not, and
  // no disjoint pair can ever be ruled out by size alone).
  const double coef =
      model.k_t * (1.0 - slack) + model.k_u * (1.0 - 2.0 * slack);
  const bool pruned = pruning_ && model.SupportsBenefitBounds() && coef < 0.0;

  DisjointSets components(n);
  std::vector<std::pair<QueryId, QueryId>> pairs;
  if (pruned) {
    std::vector<double> sizes(n);
    std::vector<Rect> rects(n);
    for (QueryId id = 0; id < n; ++id) {
      sizes[id] = ctx.Size(id);
      rects[id] = ctx.queries().rect(id);
    }
    // Disjoint-floor cutoff for the size-sum enumeration below. The
    // 1e-6 headroom keeps the cutoff sound against the rounding
    // differences between this closed form and the exact evaluation.
    const double s_cap = model.k_m / -coef * (1.0 + 1e-6);
    // Intersecting pairs: one grid walk per placed rectangle, each pair
    // kept from its smaller id, then the cheap max-size test (prune iff
    // the bound is non-positive even at the smallest possible merged
    // size).
    SpatialGrid grid = SpatialGrid::ForRects(rects);
    for (QueryId id = 0; id < n; ++id) grid.Insert(id, rects[id]);
    std::vector<uint32_t> nearby;
    SpatialGrid::Seen seen;
    for (QueryId a = 0; a < n; ++a) {
      if (rects[a].IsEmpty()) continue;
      nearby.clear();
      grid.Query(rects[a], &seen, &nearby);
      for (uint32_t b : nearby) {
        if (b <= a || !rects[a].Intersects(rects[b])) continue;
        const double floor = slack * std::max(sizes[a], sizes[b]);
        if (model.CoMergeBenefitBound(sizes[a], sizes[b], floor) > 0.0) {
          pairs.emplace_back(a, b);
        }
      }
    }
    // Every other pair, those with an empty (boundless) rectangle
    // included, is disjoint: ascending size-sum enumeration with an
    // early cut.
    std::vector<QueryId> by_size(n);
    std::iota(by_size.begin(), by_size.end(), 0);
    std::sort(by_size.begin(), by_size.end(), [&](QueryId a, QueryId b) {
      if (sizes[a] != sizes[b]) return sizes[a] < sizes[b];
      return a < b;
    });
    for (size_t i = 0; i < n; ++i) {
      const QueryId a = by_size[i];
      for (size_t j = i + 1; j < n; ++j) {
        const QueryId b = by_size[j];
        if (sizes[a] + sizes[b] >= s_cap) break;  // sums only grow with j
        if (rects[a].Intersects(rects[b])) continue;  // grid pass owns it
        pairs.emplace_back(std::min(a, b), std::max(a, b));
      }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs_pruned += n * (n - 1) / 2 - pairs.size();
    obs::Count("plan.bounds.pruned", pairs_pruned);
  } else {
    pairs.reserve(n * (n - 1) / 2);
    for (QueryId a = 0; a < n; ++a) {
      for (QueryId b = a + 1; b < n; ++b) pairs.emplace_back(a, b);
    }
  }
  const std::vector<char> mergeable = exec::ParallelMap<char>(
      pairs.size(), [&](size_t k) {
        const auto& [a, b] = pairs[k];
        const double s1 = ctx.Size(a);
        const double s2 = ctx.Size(b);
        return static_cast<char>(
            model.CoMergeBenefitBound(s1, s2, ctx.UnionSize(a, b)) > 0.0);
      });
  outcome.candidates += pairs.size();
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (mergeable[k]) {
      components.Union(pairs[k].first, pairs[k].second);
    } else {
      ++pairs_pruned;
    }
  }

  // Collect components.
  std::vector<std::vector<QueryId>> clusters(n);
  for (QueryId id = 0; id < n; ++id) {
    clusters[components.Find(id)].push_back(id);
  }

  // Solve each cluster independently. Greedy subsolves inherit this
  // merger's pruning setting so that pruning = false evaluates every
  // pair end to end (the result is identical either way; only the
  // evaluation counts differ).
  const PairMerger pair_merger(/*use_heap=*/true, pruning_);
  for (const auto& cluster : clusters) {
    if (cluster.empty()) continue;
    if (cluster.size() == 1) {
      outcome.partition.push_back(cluster);
      continue;
    }
    if (cluster.size() <= kExactComponentLimit) {
      ++subsolves_exact;
      MergeOutcome sub = ExactPartitionSearch(ctx, model, cluster);
      outcome.candidates += sub.candidates;
      outcome.bounds_refined += sub.bounds_refined;
      outcome.bounds_pruned += sub.bounds_pruned;
      for (auto& group : sub.partition) {
        outcome.partition.push_back(std::move(group));
      }
    } else {
      ++subsolves_greedy;
      Partition start;
      start.reserve(cluster.size());
      for (QueryId id : cluster) start.push_back({id});
      MergeOutcome sub = pair_merger.MergeFrom(ctx, model, std::move(start));
      outcome.candidates += sub.candidates;
      outcome.bounds_refined += sub.bounds_refined;
      outcome.bounds_pruned += sub.bounds_pruned;
      for (auto& group : sub.partition) {
        outcome.partition.push_back(std::move(group));
      }
    }
  }
  CanonicalizePartition(&outcome.partition);
  outcome.cost = model.PartitionCost(ctx, outcome.partition);
  outcome.bounds_pruned += pairs_pruned;
  obs::Count("merge.clustering.pairs_pruned", pairs_pruned);
  obs::Count("merge.clustering.subsolves_exact", subsolves_exact);
  obs::Count("merge.clustering.subsolves_greedy", subsolves_greedy);
  return outcome;
}

}  // namespace qsp
