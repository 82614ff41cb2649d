#include "merge/pair_merger.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "geom/spatial_grid.h"
#include "merge/plan_bounds.h"
#include "obs/metrics.h"

namespace qsp {
namespace {

/// RowEntry::exact of a pair whose benefit is still an upper bound.
constexpr uint32_t kBound = std::numeric_limits<uint32_t>::max();

/// One pair in a partner row (DESIGN.md §8). `benefit` is the exact merge
/// benefit when `exact` indexes the merged group's statistics (kept for
/// the merge, which then evaluates nothing), else an admissible upper
/// bound on it. A row is a max-heap on benefit; equal benefits rank the
/// smaller partner first. Every pair in a row shares the row's group, so
/// this is the order of the pairs' (benefit, lo, hi) keys: the tie-break
/// comes from the stable group ids, never from push order, and picks
/// what the Profit Table's ordered scan picks.
struct RowEntry {
  double benefit;
  uint32_t partner;
  uint32_t exact;
};

bool RowBelow(const RowEntry& x, const RowEntry& y) {
  if (x.benefit != y.benefit) return x.benefit < y.benefit;
  return x.partner > y.partner;
}

/// The global heap's entry for one row: its head, as the pair (lo, hi).
/// Max-heap on benefit, equal keys ranking the smaller (lo, hi) first.
struct RowHead {
  double benefit;
  uint32_t lo;
  uint32_t hi;
  uint32_t row;
  bool operator<(const RowHead& other) const {
    if (benefit != other.benefit) return benefit < other.benefit;
    if (lo != other.lo) return lo > other.lo;
    return hi > other.hi;
  }
};

}  // namespace

std::vector<double> PairMerger::EvaluatePairBenefits(
    const MergeContext& ctx, const CostModel& model,
    const std::vector<QueryGroup>& groups,
    const std::vector<double>& group_cost,
    const std::vector<std::pair<size_t, size_t>>& pairs) {
  // The profit-table kernel: each pair is independent, so the evaluations
  // fan out across the exec pool; result k always belongs to pairs[k], so
  // the output is identical for any thread count (with threads=1 this is
  // the plain serial loop, in the same evaluation order as ever).
  return exec::ParallelMap<double>(pairs.size(), [&](size_t k) {
    const auto& [i, j] = pairs[k];
    const QueryGroup merged = UnionGroups(groups[i], groups[j]);
    return group_cost[i] + group_cost[j] - model.GroupCost(ctx, merged);
  });
}

MergeOutcome PairMerger::MergeFrom(const MergeContext& ctx,
                                   const CostModel& model,
                                   Partition start) const {
  return use_heap_ ? MergeFromHeap(ctx, model, std::move(start))
                   : MergeFromTable(ctx, model, std::move(start));
}

MergeOutcome PairMerger::MergeFromTable(const MergeContext& ctx,
                                        const CostModel& model,
                                        Partition start) const {
  // The paper's Profit Table: the benefit of merging each live pair,
  // rescanned for the best pair every round.
  MergeOutcome outcome;
  uint64_t merges_applied = 0;
  std::vector<QueryGroup> groups = std::move(start);
  std::vector<bool> alive(groups.size(), true);
  std::vector<double> group_cost(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    group_cost[i] = model.GroupCost(ctx, groups[i]);
  }
  std::map<std::pair<size_t, size_t>, double> table;

  // Benefits are evaluated in bulk (parallel across the exec pool), then
  // recorded serially, so the table never depends on scheduling.
  std::vector<std::pair<size_t, size_t>> pending;
  auto flush_pending = [&] {
    const std::vector<double> benefits =
        EvaluatePairBenefits(ctx, model, groups, group_cost, pending);
    outcome.candidates += pending.size();
    for (size_t k = 0; k < pending.size(); ++k) table[pending[k]] = benefits[k];
    pending.clear();
  };

  for (size_t i = 0; i < groups.size(); ++i) {
    for (size_t j = i + 1; j < groups.size(); ++j) pending.emplace_back(i, j);
  }
  flush_pending();

  while (true) {
    // std::map iterates keys in ascending (i, j) order, so the strict `>`
    // keeps the smallest pair among equal benefits.
    size_t best_a = 0, best_b = 0;
    double best_benefit = 0.0;
    for (const auto& [pair, benefit] : table) {
      if (benefit > best_benefit) {
        best_benefit = benefit;
        best_a = pair.first;
        best_b = pair.second;
      }
    }
    if (best_benefit <= 0.0) break;

    // Merge best_a and best_b into a fresh group. Entries referencing the
    // two dead groups are erased eagerly, so the table never carries
    // stale rows into the next argmax.
    ++merges_applied;
    QueryGroup merged = UnionGroups(groups[best_a], groups[best_b]);
    alive[best_a] = false;
    alive[best_b] = false;
    for (auto it = table.begin(); it != table.end();) {
      const auto& [i, j] = it->first;
      if (i == best_a || i == best_b || j == best_a || j == best_b) {
        it = table.erase(it);
      } else {
        ++it;
      }
    }
    const size_t new_index = groups.size();
    groups.push_back(std::move(merged));
    alive.push_back(true);
    group_cost.push_back(model.GroupCost(ctx, groups[new_index]));
    for (size_t i = 0; i < new_index; ++i) {
      if (alive[i]) pending.emplace_back(i, new_index);
    }
    flush_pending();
  }

  for (size_t i = 0; i < groups.size(); ++i) {
    if (alive[i]) outcome.partition.push_back(groups[i]);
  }
  CanonicalizePartition(&outcome.partition);
  outcome.cost = model.PartitionCost(ctx, outcome.partition);
  obs::Count("merge.pair-merging.merges_applied", merges_applied);
  return outcome;
}

MergeOutcome PairMerger::MergeFromHeap(const MergeContext& ctx,
                                       const CostModel& model,
                                       Partition start) const {
  // The bounded greedy loop (DESIGN.md §8). It applies the merges the
  // Profit Table would, in the same order:
  //  * candidate pairs come from a SpatialGrid over group bounding boxes
  //    weighted by the bounder's PartnerWeight — partners in cells the
  //    bounder's partner test rejects provably have a non-positive
  //    benefit bound, and the table never applies non-positive merges;
  //  * each live group owns a partner row, a small max-heap of its pairs'
  //    admissible upper bounds, and a global heap holds each row's head.
  //    Popping a bound refines it to the exact benefit (the identical
  //    arithmetic expression EvaluatePairBenefits uses) in its row, so
  //    only pairs whose bound ever reaches the global top pay an exact
  //    GroupCost. When the bounder prunes nothing every bound is
  //    +infinity, so every pair is refined;
  //  * refinement is inherently one-at-a-time, so this loop does not use
  //    the exec pool — its output is trivially thread-count-invariant.
  //
  // A row is changed only while its global entry is off the heap, and
  // is pushed back with its new head, so each live row has exactly one
  // global entry and it shows the row's current head. Rows never gain
  // entries after they are built: an entry is only dropped, or refined
  // from a bound to an exact value that is no larger. Hence the first
  // exact head to surface whose partner is alive is the largest entry
  // over all live pairs: the pair a heap of every pair would pick.
  MergeOutcome outcome;
  uint64_t merges_applied = 0;
  uint64_t stale_heap_pops = 0;
  uint64_t& bounds_pruned = outcome.bounds_pruned;
  uint64_t& bounds_refined = outcome.bounds_refined;
  uint64_t partner_returned = 0;
  const plan::BenefitBounder bounder(ctx, model, pruning_);
  std::vector<QueryGroup> groups = std::move(start);
  std::vector<bool> alive(groups.size(), true);
  std::vector<double> group_cost(groups.size());
  std::vector<plan::GroupSummary> summaries(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    summaries[i] = bounder.Summarize(groups[i]);
    group_cost[i] = summaries[i].cost;
  }

  // Sized for every start group but filled as the rows are seeded: a
  // group enters the grid after its own walk.
  SpatialGrid grid = bounder.EmptyPartnerGrid(summaries);

  std::vector<std::vector<RowEntry>> rows(groups.size());
  // Merged statistics of the exact row entries, by RowEntry::exact. A
  // slot is freed when its entry leaves a row, so the store holds only
  // the exact entries that rows still hold. A deque grows in small
  // blocks: a vector's doubling reallocations on dense inputs raised the
  // process's peak resident memory.
  std::deque<GroupStats> refined_stats;
  std::vector<uint32_t> free_slots;
  auto release = [&free_slots](const RowEntry& entry) {
    if (entry.exact != kBound) free_slots.push_back(entry.exact);
  };
  std::priority_queue<RowHead> heads;
  size_t live_count = groups.size();

  auto push_head = [&](size_t r) {
    if (rows[r].empty()) return;
    const uint32_t owner = static_cast<uint32_t>(r);
    const uint32_t partner = rows[r].front().partner;
    heads.push({rows[r].front().benefit, std::min(owner, partner),
                std::max(owner, partner), owner});
  };

  // Fills row i with the bounds of the pairs (i, j) for every candidate
  // partner j the walk returns, then enters i into the grid. The grid
  // holds exactly the live groups row i must pair with: at seeding, the
  // groups above i (rows cover each unordered pair once, from its
  // smaller side, and are seeded from the largest index down), and at a
  // merge every other live group (the fresh group is the largest index,
  // so its row owns every pair (j, i) it forms). Pairs skipped by the
  // walk or by a non-positive bound are counted against `possible`, the
  // number of live partners the Profit Table would have evaluated.
  std::vector<uint32_t> cands;
  SpatialGrid::Seen seen;
  auto fill_row = [&](size_t i, size_t possible) {
    cands.clear();
    grid.QueryPassing(bounder.PartnerTestFor(summaries[i]), &seen, &cands);
    partner_returned += cands.size();
    std::vector<RowEntry>& row = rows[i];
    for (uint32_t j : cands) {
      const size_t lo = std::min<size_t>(i, j);
      const size_t hi = std::max<size_t>(i, j);
      const double ub = bounder.UpperBound(summaries[lo], summaries[hi]);
      if (ub > 0.0) {
        row.push_back({ub, j, kBound});
      } else {
        ++bounds_pruned;
      }
    }
    bounds_pruned += possible - cands.size();
    std::make_heap(row.begin(), row.end(), RowBelow);
    push_head(i);
    grid.Insert(static_cast<uint32_t>(i), summaries[i].bbox,
                bounder.PartnerWeight(summaries[i]));
  };

  for (size_t i = groups.size(); i-- > 0;) {
    fill_row(i, /*possible=*/groups.size() - 1 - i);
  }

  while (!heads.empty()) {
    const RowHead top = heads.top();
    heads.pop();
    if (!alive[top.row]) {
      ++stale_heap_pops;
      continue;
    }
    std::vector<RowEntry>& row = rows[top.row];
    if (!alive[row.front().partner]) {
      // Pairs with a merged-away partner are dropped lazily, when they
      // reach their row's head.
      do {
        release(row.front());
        std::pop_heap(row.begin(), row.end(), RowBelow);
        row.pop_back();
      } while (!row.empty() && !alive[row.front().partner]);
      push_head(top.row);
      continue;
    }
    if (row.front().exact == kBound) {
      // Refine: the exact expression is the one EvaluatePairBenefits
      // uses, so the refined value is bit-identical to the Profit
      // Table's. Non-positive exact benefits are dropped: the table
      // never applies them.
      ++bounds_refined;
      ++outcome.candidates;
      const GroupStats stats =
          ctx.Stats(UnionGroups(groups[top.lo], groups[top.hi]));
      const double benefit = group_cost[top.lo] + group_cost[top.hi] -
                             model.GroupCost(stats);
      std::pop_heap(row.begin(), row.end(), RowBelow);
      if (benefit > 0.0) {
        uint32_t slot = static_cast<uint32_t>(refined_stats.size());
        if (free_slots.empty()) {
          refined_stats.push_back(stats);
        } else {
          slot = free_slots.back();
          free_slots.pop_back();
          refined_stats[slot] = stats;
        }
        row.back().benefit = benefit;
        row.back().exact = slot;
        std::push_heap(row.begin(), row.end(), RowBelow);
      } else {
        row.pop_back();
      }
      push_head(top.row);
      continue;
    }

    ++merges_applied;
    const GroupStats merged_stats = refined_stats[row.front().exact];
    QueryGroup merged = UnionGroups(groups[top.lo], groups[top.hi]);
    for (const uint32_t dead : {top.lo, top.hi}) {
      alive[dead] = false;
      grid.Remove(dead, summaries[dead].bbox);
      for (const RowEntry& entry : rows[dead]) release(entry);
      std::vector<RowEntry>().swap(rows[dead]);
    }
    --live_count;
    const size_t new_index = groups.size();
    groups.push_back(std::move(merged));
    alive.push_back(true);
    summaries.push_back(bounder.Summarize(groups[new_index], merged_stats));
    group_cost.push_back(summaries[new_index].cost);
    rows.emplace_back();
    fill_row(new_index, /*possible=*/live_count - 1);
  }

  // The survivors in canonical order, costed from group_cost: the
  // values, in the order, that PartitionCost would evaluate again. Every
  // group is canonical already (singletons, canonical start groups and
  // UnionGroups results); empty start groups are dropped, as
  // CanonicalizePartition drops them.
  std::vector<uint32_t> survivors;
  for (size_t i = 0; i < groups.size(); ++i) {
    if (alive[i] && !groups[i].empty()) {
      survivors.push_back(static_cast<uint32_t>(i));
    }
  }
  std::sort(survivors.begin(), survivors.end(), [&](uint32_t a, uint32_t b) {
    return groups[a].front() < groups[b].front();
  });
  for (const uint32_t i : survivors) {
    outcome.partition.push_back(std::move(groups[i]));
    outcome.cost += group_cost[i];
  }
  obs::Count("merge.pair-merging.merges_applied", merges_applied);
  obs::Count("merge.pair-merging.stale_heap_pops", stale_heap_pops);
  obs::Count("plan.bounds.pruned", bounds_pruned);
  obs::Count("plan.bounds.refined", bounds_refined);
  obs::Count("plan.partner.returned", partner_returned);
  return outcome;
}

Result<MergeOutcome> PairMerger::DoMerge(const MergeContext& ctx,
                                         const CostModel& model) const {
  return MergeFrom(ctx, model, SingletonPartition(ctx.num_queries()));
}

}  // namespace qsp
