#include "sim/continuous.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "core/live_plan.h"
#include "query/merge_context.h"
#include "stats/size_estimator.h"
#include "util/rng.h"

namespace qsp {
namespace {

/// A round's freshly inserted objects (positions only — payload does not
/// affect the delta-dissemination accounting).
struct Delta {
  std::vector<Point> points;

  size_t CountIn(const Rect& rect) const {
    size_t n = 0;
    for (const Point& p : points) {
      if (rect.Contains(p)) ++n;
    }
    return n;
  }
};

}  // namespace

Result<ContinuousOutcome> RunContinuous(const ContinuousConfig& config) {
  if (config.rounds <= 0) {
    return Status::InvalidArgument("rounds must be positive");
  }
  Rng rng(config.seed);

  // Hot spots for clustered object arrivals.
  std::vector<Point> hotspots;
  for (int i = 0; i < config.object_clusters; ++i) {
    hotspots.push_back(
        {rng.UniformDouble(config.domain.x_lo(), config.domain.x_hi()),
         rng.UniformDouble(config.domain.y_lo(), config.domain.y_hi())});
  }
  const double spread = 0.03 * config.domain.Width();

  QuerySet queries;
  UniformDensityEstimator estimator(
      static_cast<double>(config.inserts_per_round) /
      std::max(config.domain.Area(), 1.0));
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);

  // The scenario rides the live service loop: arrivals and departures go
  // through the lease/admission path and the plan is maintained by the
  // LivePlanManager. Batches are unbounded and leases never expire — the
  // harness drives churn explicitly, so backpressure and TTLs stay out
  // of the measurement.
  LiveServiceConfig opts;
  opts.enabled = true;
  opts.admission_batch_max = std::numeric_limits<size_t>::max();
  opts.admission_queue_limit = std::numeric_limits<size_t>::max();
  switch (config.maintenance) {
    case PlanMaintenance::kIncremental:
    case PlanMaintenance::kReplanEachRound:
      opts.repair_max_moves = -1;  // Greedy placement only.
      break;
    case PlanMaintenance::kIncrementalRepair:
      opts.repair_max_moves = 0;  // Repair to a local minimum per batch.
      break;
  }
  // kReplanEachRound is the *naive* baseline the incremental policies are
  // measured against, so its from-scratch replans run the pair merger
  // with bounds that prune nothing — their maintenance_evals then count
  // every pair evaluation, the work a replan fundamentally redoes each
  // round. (The pruned merger returns the identical partition while
  // evaluating almost nothing, which would make the baseline
  // meaningless.)
  opts.replan_pruning = false;
  LivePlanManager live(&queries, &ctx, config.cost_model, opts);

  // Active subscriptions, FIFO for departures.
  std::deque<QueryId> active;
  QueryGenConfig shape = config.query_shape;
  shape.domain = config.domain;
  shape.num_queries = 1;
  auto new_subscription = [&]() {
    const Rect rect = GenerateQueries(shape, &rng)[0];
    Result<QueryId> id = live.Subscribe(rect);
    QSP_CHECK(id.ok());  // Unbounded queue: never sheds.
    active.push_back(id.value());
  };
  for (size_t i = 0; i < config.initial_queries; ++i) new_subscription();
  QSP_IGNORE_RESULT(live.DrainAll());  // Initial placement, outside stats.

  ContinuousOutcome outcome;
  outcome.all_deltas_correct = true;
  uint64_t evals_before = live.evaluations();
  uint64_t replan_evals_before = live.Stats().replan_evaluations;

  for (int round = 0; round < config.rounds; ++round) {
    // --- Subscription churn.
    for (size_t i = 0; i < config.arrivals_per_round; ++i) new_subscription();
    for (size_t i = 0;
         i < config.departures_per_round && active.size() > 1; ++i) {
      QSP_CHECK(live.Unsubscribe(active.front()).ok());
      active.pop_front();
    }

    // --- Plan maintenance: drain the round's admissions (greedy
    // placement + per-batch repair per policy), then — for the naive
    // baseline — replace the plan from scratch.
    ContinuousRoundStats stats;
    stats.round = round;
    stats.active_queries = active.size();
    QSP_IGNORE_RESULT(live.DrainAll());
    if (config.maintenance == PlanMaintenance::kReplanEachRound) {
      QSP_CHECK(live.ReplanNow().ok());
      const uint64_t replan_evals = live.Stats().replan_evaluations;
      stats.maintenance_evals = replan_evals - replan_evals_before;
      replan_evals_before = replan_evals;
      evals_before = live.evaluations();
    } else {
      stats.maintenance_evals = live.evaluations() - evals_before;
      evals_before = live.evaluations();
    }
    stats.plan_cost = live.cost();
    const Partition plan = live.PlanSnapshot();
    stats.groups = plan.size();

    // --- New objects this round.
    Delta delta;
    for (size_t i = 0; i < config.inserts_per_round; ++i) {
      Point p;
      if (!hotspots.empty() &&
          rng.Bernoulli(config.object_clustered_fraction)) {
        const Point& c = hotspots[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(hotspots.size()) - 1))];
        p.x = std::clamp(rng.Normal(c.x, spread), config.domain.x_lo(),
                         config.domain.x_hi());
        p.y = std::clamp(rng.Normal(c.y, spread), config.domain.y_lo(),
                         config.domain.y_hi());
      } else {
        p.x = rng.UniformDouble(config.domain.x_lo(), config.domain.x_hi());
        p.y = rng.UniformDouble(config.domain.y_lo(), config.domain.y_hi());
      }
      delta.points.push_back(p);
    }

    // --- Delta dissemination per merged group. Continuous queries
    // receive only this round's new objects; one message per merged
    // query, extractor = original rectangle (Section 3.1).
    for (const QueryGroup& group : plan) {
      for (const MergedQuery& merged : procedure.Merge(queries, group)) {
        ++stats.messages;
        // Payload: delta points inside the merged region.
        std::vector<const Point*> payload;
        for (const Point& p : delta.points) {
          for (const Rect& piece : merged.region) {
            if (piece.Contains(p)) {
              payload.push_back(&p);
              break;
            }
          }
        }
        stats.delta_rows += payload.size();
        // Extraction + verification per member query.
        for (QueryId member : merged.members) {
          const Rect& rect = queries.rect(member);
          size_t extracted = 0;
          for (const Point* p : payload) {
            if (rect.Contains(*p)) ++extracted;
          }
          stats.irrelevant_rows += payload.size() - extracted;
          if (extracted != delta.CountIn(rect)) {
            outcome.all_deltas_correct = false;
          }
        }
      }
    }

    outcome.total_messages += stats.messages;
    outcome.total_delta_rows += stats.delta_rows;
    outcome.total_irrelevant_rows += stats.irrelevant_rows;
    outcome.total_maintenance_evals += stats.maintenance_evals;
    outcome.rounds.push_back(stats);
  }
  return outcome;
}

}  // namespace qsp
