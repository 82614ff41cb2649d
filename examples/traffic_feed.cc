// A civilian dissemination scenario (paper Section 1: "traffic
// information systems"): commuters subscribe to road-incident updates
// for the areas along their routes, subscriptions churn as trips start
// and end, and the service maintains its merge plan *incrementally*
// (future work, Section 11) instead of re-planning from scratch.
//
// Demonstrates: IncrementalMerger add/remove/repair, evicting finished
// trips from the group memo, and the gap between the maintained plan and
// a from-scratch pair merge.

#include <cstdio>
#include <deque>
#include <vector>

#include "cost/cost_model.h"
#include "merge/incremental_merger.h"
#include "merge/pair_merger.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "stats/size_estimator.h"
#include "util/rng.h"
#include "util/table_printer.h"

int main() {
  using namespace qsp;
  std::printf("Metro traffic feed: churning route subscriptions\n\n");

  // The metro area; density approximates incidents per km^2.
  const Rect metro(0, 0, 60, 60);
  QuerySet queries;
  UniformDensityEstimator estimator(2.0);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);
  const CostModel model{30.0, 1.0, 0.5, 0.0};

  IncrementalMerger live_plan(&ctx, model);
  const PairMerger scratch;

  Rng rng(88);
  std::deque<QueryId> active;  // FIFO of live trips.
  TablePrinter table({"tick", "active subs", "groups", "live cost",
                      "scratch cost", "gap %"});

  for (int tick = 1; tick <= 10; ++tick) {
    // Each tick: ~6 new commutes start near a few corridors, ~4 finish.
    for (int i = 0; i < 6; ++i) {
      const double corridor =
          10.0 + 10.0 * static_cast<double>(rng.UniformInt(0, 3));
      const double cx = rng.Normal(corridor, 3.0);
      const double cy = rng.Normal(30.0, 8.0);
      const double w = rng.UniformDouble(4, 10);
      const double h = rng.UniformDouble(4, 10);
      const Rect route =
          Rect(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
              .ClampTo(metro);
      const QueryId id = queries.Add(route);
      active.push_back(id);
      live_plan.AddQuery(id);
    }
    std::vector<QueryId> finished;
    for (int i = 0; i < 4 && active.size() > 6; ++i) {
      live_plan.RemoveQuery(active.front());
      finished.push_back(active.front());
      active.pop_front();
    }
    // Ids are never reused, so memoized groups holding a finished trip
    // can only waste memory: one pass per tick drops them.
    ctx.EvictGroupsContaining(finished);
    // Light repair pass each tick keeps drift bounded.
    live_plan.Repair(/*max_moves=*/3);

    // From-scratch baseline on the same active set.
    Partition start;
    for (QueryId q : active) start.push_back({q});
    const MergeOutcome baseline = scratch.MergeFrom(ctx, model, start);
    const double gap =
        baseline.cost > 0
            ? 100.0 * (live_plan.cost() - baseline.cost) / baseline.cost
            : 0.0;
    table.AddRow({std::to_string(tick), std::to_string(active.size()),
                  std::to_string(live_plan.partition().size()),
                  std::to_string(live_plan.cost()),
                  std::to_string(baseline.cost), std::to_string(gap)});
  }

  std::printf("%s\n", table.ToText().c_str());
  std::printf("Incremental maintenance evaluated %llu candidate groups in "
              "total;\nre-planning from scratch would repeat the whole "
              "O(n^2) pass on every tick.\n",
              static_cast<unsigned long long>(live_plan.evaluations()));
  return 0;
}
