// Lease, admission, repair, and replan semantics of the long-lived
// service loop (DESIGN.md §11), all under an injected FakeClock so
// every timing assertion is exact and every run is reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/live_plan.h"
#include "core/subscription_service.h"
#include "merge/incremental_merger.h"
#include "merge/pair_merger.h"
#include "merge/sharded_planner.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "relation/generator.h"
#include "sim/churn.h"
#include "stats/size_estimator.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

class LiveServiceTest : public ::testing::Test {
 protected:
  LiveServiceTest()
      : estimator_(0.0005), ctx_(&queries_, &estimator_, &procedure_),
        clock_(0.0) {}

  /// Live config wired to the frozen test clock: time only moves when a
  /// test calls clock_.AdvanceMicros.
  LiveServiceConfig Opts() {
    LiveServiceConfig opts;
    opts.enabled = true;
    opts.clock = &clock_;
    opts.default_ttl_ms = 30;
    return opts;
  }

  Rect At(double x, double y) const { return Rect(x, y, x + 10, y + 10); }

  QuerySet queries_;
  UniformDensityEstimator estimator_;
  BoundingRectProcedure procedure_;
  MergeContext ctx_;
  obs::FakeClock clock_;
  CostModel model_{10.0, 1.0, 0.5, 0.0};
};

TEST_F(LiveServiceTest, RenewalExtendsLease) {
  LivePlanManager live(&queries_, &ctx_, model_, Opts());
  Result<QueryId> id = live.Subscribe(At(0, 0), 30);
  ASSERT_TRUE(id.ok());
  live.DrainAll();

  clock_.AdvanceMicros(20000);  // t = 20ms, deadline 30ms.
  ASSERT_TRUE(live.Renew(id.value(), 30).ok());  // Deadline -> 50ms.
  clock_.AdvanceMicros(20000);                   // t = 40ms.
  EXPECT_EQ(live.SweepExpired(), 0u);
  EXPECT_EQ(live.LiveIds(), std::vector<QueryId>{id.value()});

  clock_.AdvanceMicros(10000);  // t = 50ms: exactly the renewed deadline.
  EXPECT_EQ(live.SweepExpired(), 1u);
  live.DrainAll();
  EXPECT_TRUE(live.LiveIds().empty());
  EXPECT_TRUE(live.PlanSnapshot().empty());
}

TEST_F(LiveServiceTest, MissedHeartbeatExpiresExactlyAtTtl) {
  LivePlanManager live(&queries_, &ctx_, model_, Opts());
  ASSERT_TRUE(live.Subscribe(At(0, 0), 30).ok());
  live.DrainAll();

  clock_.AdvanceMicros(29999);  // One microsecond before the deadline.
  EXPECT_EQ(live.SweepExpired(), 0u);
  clock_.AdvanceMicros(1);  // now == deadline: the lease is gone.
  EXPECT_EQ(live.SweepExpired(), 1u);
  EXPECT_EQ(live.Stats().expired, 1u);
}

TEST_F(LiveServiceTest, RenewAfterExpiryIsNotFoundAndRejoinGetsNewId) {
  LivePlanManager live(&queries_, &ctx_, model_, Opts());
  Result<QueryId> id = live.Subscribe(At(0, 0), 30);
  ASSERT_TRUE(id.ok());
  live.DrainAll();
  clock_.AdvanceMicros(30000);
  ASSERT_EQ(live.SweepExpired(), 1u);

  // The crashed client's heartbeat bounces; it must re-subscribe.
  EXPECT_EQ(live.Renew(id.value(), 30).code(), StatusCode::kNotFound);
  Result<QueryId> rejoin = live.Subscribe(At(0, 0), 30);
  ASSERT_TRUE(rejoin.ok());
  EXPECT_NE(rejoin.value(), id.value());
  live.DrainAll();
  EXPECT_EQ(live.LiveIds(), std::vector<QueryId>{rejoin.value()});
}

TEST_F(LiveServiceTest, ZeroTtlNeverExpires) {
  LiveServiceConfig opts = Opts();
  opts.default_ttl_ms = 0;
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  ASSERT_TRUE(live.Subscribe(At(0, 0), 0).ok());
  live.DrainAll();
  clock_.AdvanceMicros(1e12);
  EXPECT_EQ(live.SweepExpired(), 0u);
  EXPECT_EQ(live.LiveIds().size(), 1u);
}

TEST_F(LiveServiceTest, ExpiryOfStillQueuedSubscriptionIsSafe) {
  // A subscription whose lease lapses while its admission is still
  // queued: FIFO ordering guarantees the add is applied before the
  // expiry's remove, so the plan transits through a consistent state.
  LiveServiceConfig opts = Opts();
  opts.admission_batch_max = 1;  // Force the ops into separate batches.
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  Result<QueryId> doomed = live.Subscribe(At(0, 0), 30);
  ASSERT_TRUE(doomed.ok());
  clock_.AdvanceMicros(30000);
  ASSERT_EQ(live.SweepExpired(), 1u);  // Expired while still kPending.
  Result<QueryId> keeper = live.Subscribe(At(50, 50), 0);
  ASSERT_TRUE(keeper.ok());

  const BatchReport report = live.DrainAll();
  EXPECT_EQ(report.admitted, 2u);
  EXPECT_EQ(report.removed, 1u);
  ASSERT_EQ(report.retired.size(), 1u);
  EXPECT_EQ(report.retired[0], doomed.value());
  EXPECT_EQ(live.LiveIds(), std::vector<QueryId>{keeper.value()});
}

TEST_F(LiveServiceTest, BackpressureShedsSubscribesButNeverRemoves) {
  LiveServiceConfig opts = Opts();
  opts.admission_queue_limit = 2;
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  Result<QueryId> a = live.Subscribe(At(0, 0), 0);
  Result<QueryId> b = live.Subscribe(At(20, 0), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // Queue is at the limit: the next admission is shed with a retryable
  // status, and no query id leaks into the set.
  const size_t queries_before = queries_.size();
  Result<QueryId> shed = live.Subscribe(At(40, 0), 0);
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queries_.size(), queries_before);
  EXPECT_EQ(live.Stats().sheds, 1u);

  // Removes always enqueue, even over the limit — shedding a departure
  // would leak the lease.
  EXPECT_TRUE(live.Unsubscribe(a.value()).ok());
  live.DrainAll();
  EXPECT_EQ(live.LiveIds(), std::vector<QueryId>{b.value()});
  EXPECT_EQ(live.Stats().queue_depth, 0u);

  // After the backlog drains, admission works again.
  EXPECT_TRUE(live.Subscribe(At(40, 0), 0).ok());
}

TEST_F(LiveServiceTest, RepairDeadlineStopsMovesDeterministically) {
  // A ticking clock makes control time pass inside the batch: with a
  // 1us deadline the very first deadline check fires, so the batch
  // admits its ops but spends zero repair moves.
  obs::FakeClock ticking(5.0);
  LiveServiceConfig opts = Opts();
  opts.clock = &ticking;
  opts.repair_max_moves = 0;
  opts.repair_deadline_us = 1;
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  Rng rng(11);
  QueryGenConfig shape;
  shape.num_queries = 16;
  shape.cf = 0.8;
  for (const Rect& r : GenerateQueries(shape, &rng)) {
    ASSERT_TRUE(live.Subscribe(r, 0).ok());
  }
  const BatchReport report = live.DrainAll();
  EXPECT_TRUE(report.repair_deadline_hit);
  EXPECT_EQ(report.repair_moves, 0);
  EXPECT_EQ(live.LiveIds().size(), 16u);

  // Same workload with no deadline: repair runs to a local minimum and
  // never ends up costlier than the deadline-starved plan.
  QuerySet queries2;
  MergeContext ctx2(&queries2, &estimator_, &procedure_);
  LiveServiceConfig opts2 = Opts();
  opts2.repair_max_moves = 0;
  LivePlanManager unbounded(&queries2, &ctx2, model_, opts2);
  Rng rng2(11);
  for (const Rect& r : GenerateQueries(shape, &rng2)) {
    ASSERT_TRUE(unbounded.Subscribe(r, 0).ok());
  }
  const BatchReport full = unbounded.DrainAll();
  EXPECT_FALSE(full.repair_deadline_hit);
  EXPECT_LE(unbounded.cost(), live.cost() + 1e-9);
}

// Repair latency is measured time: the control clock here is frozen at
// 0, so a latency read from it would be 0 for every batch, however long
// its repair ran.
TEST_F(LiveServiceTest, RepairLatencyReadsTheMeasurementClock) {
  LiveServiceConfig opts = Opts();
  opts.repair_max_moves = 0;
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  Rng rng(13);
  QueryGenConfig shape;
  shape.num_queries = 32;
  shape.cf = 0.8;
  for (const Rect& r : GenerateQueries(shape, &rng)) {
    ASSERT_TRUE(live.Subscribe(r, 0).ok());
  }
  const BatchReport report = live.ProcessBatch();
  EXPECT_EQ(report.admitted, 32u);
  EXPECT_GT(report.repair_latency_us, 0.0);
}

TEST_F(LiveServiceTest, RepairLatencyHistogramRecordsWallTime) {
  LiveServiceConfig opts = Opts();
  opts.repair_max_moves = 0;
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  Rng rng(14);
  QueryGenConfig shape;
  shape.num_queries = 32;
  shape.cf = 0.8;
  for (const Rect& r : GenerateQueries(shape, &rng)) {
    ASSERT_TRUE(live.Subscribe(r, 0).ok());
  }
  obs::Histogram& latency =
      obs::MetricRegistry::Default().histogram("service.repair.latency_us");
  latency.Reset();
  obs::SetEnabled(true);
  const BatchReport report = live.ProcessBatch();
  obs::SetEnabled(false);
  EXPECT_EQ(report.admitted, 32u);
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_GT(latency.max(), 0.0);
}

TEST_F(LiveServiceTest, DriftTriggerReplansAndAdoptionImproves) {
  LiveServiceConfig opts = Opts();
  opts.repair_max_moves = -1;      // Greedy placement only: drift builds.
  opts.replan_drift_factor = 1.01;  // The LB is loose; this always trips.
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  Rng rng(21);
  QueryGenConfig shape;
  shape.num_queries = 24;
  shape.cf = 0.7;
  for (const Rect& r : GenerateQueries(shape, &rng)) {
    ASSERT_TRUE(live.Subscribe(r, 0).ok());
  }
  const double greedy_cost = [&] {
    LiveServiceConfig plain = Opts();
    plain.repair_max_moves = -1;
    QuerySet queries2;
    MergeContext ctx2(&queries2, &estimator_, &procedure_);
    LivePlanManager baseline(&queries2, &ctx2, model_, plain);
    Rng rng2(21);
    for (const Rect& r : GenerateQueries(shape, &rng2)) {
      QSP_IGNORE_RESULT(baseline.Subscribe(r, 0));
    }
    baseline.DrainAll();
    return baseline.cost();
  }();

  const BatchReport report = live.DrainAll();
  EXPECT_TRUE(report.replan_triggered);
  EXPECT_TRUE(report.replan_adopted);
  EXPECT_GE(live.Stats().replans_adopted, 1u);
  EXPECT_GT(live.Stats().replan_evaluations, 0u);
  // The adopted from-scratch plan can only improve on pure greedy.
  EXPECT_LE(live.cost(), greedy_cost + 1e-9);
  // Every live lease survived the swap.
  EXPECT_EQ(live.LiveIds().size(), 24u);
}

// Regression for the silently-ignored shards knob: live mode with
// shards > 1 used to plan drift replans unsharded. Now the snapshot
// routes through ShardedPlanner, and the adopted plan's maintained cost
// must equal a from-scratch recomputation on a fresh context — the
// sharded path must not grade its own homework through a stale memo —
// while staying close to the unsharded replan's quality.
TEST_F(LiveServiceTest, ShardedReplanCostMatchesFreshRecomputation) {
  Rng rng(51);
  QueryGenConfig shape;
  shape.num_queries = 48;
  shape.cf = 0.7;
  const std::vector<Rect> rects = GenerateQueries(shape, &rng);

  LiveServiceConfig sharded_opts = Opts();
  sharded_opts.shards = 4;
  LivePlanManager sharded(&queries_, &ctx_, model_, sharded_opts);
  for (const Rect& r : rects) ASSERT_TRUE(sharded.Subscribe(r, 0).ok());
  sharded.DrainAll();

  QuerySet queries2;
  MergeContext ctx2(&queries2, &estimator_, &procedure_);
  LivePlanManager unsharded(&queries2, &ctx2, model_, Opts());
  for (const Rect& r : rects) ASSERT_TRUE(unsharded.Subscribe(r, 0).ok());
  unsharded.DrainAll();

  // The sharded replan must actually fan out: the planner publishes its
  // shard count, which stays > 1 only when the knob is honored.
  obs::SetEnabled(true);
  obs::SetGauge("plan.shard.count", 0.0);
  ASSERT_TRUE(sharded.ReplanNow().ok());
  EXPECT_GE(obs::MetricRegistry::Default().GaugeValue("plan.shard.count"),
            2.0);
  obs::SetEnabled(false);
  ASSERT_TRUE(unsharded.ReplanNow().ok());
  EXPECT_GE(sharded.Stats().replans_adopted, 1u);
  EXPECT_GE(unsharded.Stats().replans_adopted, 1u);

  // Every lease survived both swaps.
  ASSERT_EQ(sharded.LiveIds().size(), rects.size());
  ASSERT_EQ(unsharded.LiveIds().size(), rects.size());

  // Maintained cost == fresh-context recomputation, for both paths.
  {
    MergeContext fresh(&queries_, &estimator_, &procedure_);
    EXPECT_DOUBLE_EQ(sharded.cost(),
                     model_.PartitionCost(fresh, sharded.PlanSnapshot()));
  }
  {
    MergeContext fresh(&queries2, &estimator_, &procedure_);
    EXPECT_DOUBLE_EQ(unsharded.cost(),
                     model_.PartitionCost(fresh, unsharded.PlanSnapshot()));
  }
  // Sharding trades a bounded amount of plan quality for parallel
  // planning; at this scale the plans must stay close.
  EXPECT_LE(sharded.cost(), unsharded.cost() * 1.10 + 1e-9);
}

// A replan plans its snapshot on a private evaluate-only context (the
// pair merge never revisits a group). Inline or on its own thread, and
// with or without shards, it must adopt exactly the partition — and the
// maintained cost — that the same planner gives on a storing context
// over the same snapshot.
TEST_F(LiveServiceTest, ReplansAdoptTheStoringContextsPlan) {
  Rng rng(61);
  QueryGenConfig shape;
  shape.num_queries = 60;
  shape.cf = 0.7;
  const std::vector<Rect> rects = GenerateQueries(shape, &rng);
  for (const bool background : {false, true}) {
    for (const int shards : {1, 4}) {
      const std::string label =
          std::string(background ? "background" : "inline") + " shards " +
          std::to_string(shards);
      QuerySet queries;
      MergeContext ctx(&queries, &estimator_, &procedure_);
      LiveServiceConfig opts = Opts();
      opts.default_ttl_ms = 0;
      opts.repair_max_moves = -1;  // Greedy placement: the replan has work.
      opts.replan_background = background;
      opts.shards = shards;
      LivePlanManager live(&queries, &ctx, model_, opts);
      for (const Rect& r : rects) ASSERT_TRUE(live.Subscribe(r, 0).ok());
      live.DrainAll();

      // The snapshot the replan takes: every planned id, dense and in
      // ascending order, planned on a storing context.
      std::vector<QueryId> snap_ids;
      for (const QueryGroup& g : live.PlanSnapshot()) {
        snap_ids.insert(snap_ids.end(), g.begin(), g.end());
      }
      std::sort(snap_ids.begin(), snap_ids.end());
      QuerySet snapshot;
      for (QueryId id : snap_ids) {
        QSP_IGNORE_RESULT(snapshot.Add(queries.rect(id)));
      }
      const MergeContext stored(&snapshot, &estimator_, &procedure_);
      const PairMerger merger;
      auto expected = ShardedPlanner(&merger, {.shards = shards,
                                               .pruning = true})
                          .Plan(stored, model_);
      ASSERT_TRUE(expected.ok()) << label;
      Partition expected_plan;
      for (const QueryGroup& group : expected->outcome.partition) {
        QueryGroup real;
        for (QueryId local : group) real.push_back(snap_ids[local]);
        expected_plan.push_back(std::move(real));
      }
      CanonicalizePartition(&expected_plan);

      ASSERT_TRUE(live.ReplanNow().ok()) << label;
      Partition adopted = live.PlanSnapshot();
      CanonicalizePartition(&adopted);
      EXPECT_EQ(adopted, expected_plan) << label;
      EXPECT_EQ(live.cost(), expected->outcome.cost) << label;
      EXPECT_EQ(live.Stats().replans_adopted, 1u) << label;
    }
  }
}

TEST_F(LiveServiceTest, InjectedReplanFailureLeavesOldPlanServing) {
  LiveServiceConfig opts = Opts();
  opts.inject_replan_failure = true;
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  Rng rng(31);
  QueryGenConfig shape;
  shape.num_queries = 12;
  for (const Rect& r : GenerateQueries(shape, &rng)) {
    ASSERT_TRUE(live.Subscribe(r, 0).ok());
  }
  live.DrainAll();
  const Partition before = live.PlanSnapshot();
  const double cost_before = live.cost();

  const Status status = live.ReplanNow();
  EXPECT_FALSE(status.ok());
  // Graceful degradation: the abandonment is visible, the plan is not.
  EXPECT_EQ(live.Stats().replans_abandoned, 1u);
  EXPECT_EQ(live.Stats().replans_adopted, 0u);
  EXPECT_EQ(live.PlanSnapshot(), before);
  EXPECT_EQ(live.cost(), cost_before);
}

TEST_F(LiveServiceTest, LateBackgroundReplanIsAbandoned) {
  LiveServiceConfig opts = Opts();
  opts.repair_max_moves = -1;
  opts.replan_background = true;
  opts.replan_drift_factor = 1.01;   // Always trips (the LB is loose).
  opts.replan_deadline_us = 1;       // Any control-clock delay is late.
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  Rng rng(41);
  QueryGenConfig shape;
  shape.num_queries = 16;
  shape.cf = 0.7;
  for (const Rect& r : GenerateQueries(shape, &rng)) {
    ASSERT_TRUE(live.Subscribe(r, 0).ok());
  }
  live.DrainAll();  // Admits everyone and kicks off a background replan.
  const Partition before = live.PlanSnapshot();

  // Control time passes while the replan runs; every adoption attempt
  // sees an expired deadline and abandons. Bounded retry loop because
  // the background thread's completion is real-time, not control-time.
  uint64_t abandoned = 0;
  for (int i = 0; i < 2000 && abandoned == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    clock_.AdvanceMicros(1000.0);
    live.ProcessBatch();
    abandoned = live.Stats().replans_abandoned;
  }
  EXPECT_GE(abandoned, 1u);
  EXPECT_EQ(live.Stats().replans_adopted, 0u);
  // The service never went planless and never swapped in the late plan.
  EXPECT_EQ(live.PlanSnapshot(), before);
}

TEST_F(LiveServiceTest, BackgroundTickSweepsAndDrains) {
  // The periodic sweep-and-drain thread (sweep_interval_ms) admits
  // queued subscriptions without explicit ProcessBatch calls. Real
  // clock on purpose: the tick sleeps in real time.
  LiveServiceConfig opts;
  opts.enabled = true;
  opts.sweep_interval_ms = 1;
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  live.StartBackground();
  ASSERT_TRUE(live.Subscribe(At(0, 0), 0).ok());
  size_t active = 0;
  for (int i = 0; i < 5000 && active == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    active = live.Stats().active;
  }
  live.StopBackground();
  EXPECT_EQ(active, 1u);
  EXPECT_EQ(live.LiveIds().size(), 1u);
}

TEST_F(LiveServiceTest, ProcessBatchOnEmptyQueueIsSafe) {
  LivePlanManager live(&queries_, &ctx_, model_, Opts());
  const BatchReport report = live.ProcessBatch();
  EXPECT_EQ(report.admitted, 0u);
  EXPECT_EQ(report.removed, 0u);
  EXPECT_EQ(live.cost(), 0.0);
  EXPECT_EQ(live.Unsubscribe(123).code(), StatusCode::kNotFound);
}

TEST_F(LiveServiceTest, BatchCallbackRunsWithTheLockReleased) {
  // The callback may call back into the manager, so ProcessBatch invokes
  // it only after releasing its lock. A probe thread started inside the
  // callback takes a PlanSnapshot. Were the lock still held, the probe
  // would block until the callback returned: the bounded wait times out
  // and the test fails instead of deadlocking.
  LivePlanManager live(&queries_, &ctx_, model_, Opts());
  std::future<Partition> probe;
  bool probe_ready = false;
  std::vector<QueryId> reported;
  live.SetBatchCallback([&](const BatchReport& report) {
    reported = report.placed;
    probe = std::async(std::launch::async,
                       [&live] { return live.PlanSnapshot(); });
    probe_ready = probe.wait_for(std::chrono::seconds(10)) ==
                  std::future_status::ready;
  });
  const Result<QueryId> a = live.Subscribe(At(0, 0), 0);
  const Result<QueryId> b = live.Subscribe(At(5, 5), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const BatchReport report = live.ProcessBatch();
  EXPECT_TRUE(probe_ready) << "PlanSnapshot blocked while the callback ran";
  EXPECT_EQ(reported, report.placed);
  EXPECT_EQ(reported, (std::vector<QueryId>{a.value(), b.value()}));
  ASSERT_TRUE(probe.valid());
  // The probe saw the plan the batch left; nothing changed it since.
  EXPECT_EQ(probe.get(), live.PlanSnapshot());
}

TEST_F(LiveServiceTest, BatchCallbackSeesEveryDrainedBatchUntilCleared) {
  // DrainAll runs one ProcessBatch per admission_batch_max queued ops and
  // the callback sees each of those batches; an empty function clears it.
  LiveServiceConfig opts = Opts();
  opts.admission_batch_max = 2;
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  std::vector<std::vector<QueryId>> batches;
  live.SetBatchCallback([&batches](const BatchReport& report) {
    batches.push_back(report.placed);
  });
  std::vector<QueryId> ids;
  for (int i = 0; i < 5; ++i) {
    const Result<QueryId> id = live.Subscribe(At(10.0 * i, 0), 0);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  EXPECT_EQ(live.DrainAll().placed, ids);
  const std::vector<std::vector<QueryId>> want = {
      {ids[0], ids[1]}, {ids[2], ids[3]}, {ids[4]}};
  EXPECT_EQ(batches, want);

  live.SetBatchCallback({});
  ASSERT_TRUE(live.Unsubscribe(ids[0]).ok());
  EXPECT_EQ(live.ProcessBatch().retired, std::vector<QueryId>{ids[0]});
  EXPECT_EQ(batches.size(), 3u);
}

// ProcessBatch evicts the memo entries of the ids it retired, once per
// batch, and the incremental merger itself evicts nothing: after every
// batch no entry holds a retired id, and the memo's size, its
// evaluation count and the plan equal those of a twin IncrementalMerger
// that applies the same arrivals and departures in the same order, and
// whose memo this test evicts once per batch.
TEST_F(LiveServiceTest, ProcessBatchEvictsRetiredIdsOncePerBatch) {
  Rng rng(23);
  QueryGenConfig shape;
  shape.num_queries = 120;
  shape.cf = 0.7;
  const std::vector<Rect> rects = GenerateQueries(shape, &rng);
  LiveServiceConfig opts = Opts();
  opts.default_ttl_ms = 0;
  LivePlanManager live(&queries_, &ctx_, model_, opts);
  QuerySet twin_queries;
  MergeContext twin_ctx(&twin_queries, &estimator_, &procedure_);
  IncrementalMerger twin(&twin_ctx, model_);
  std::vector<QueryId> planned;
  size_t next = 0;
  size_t departures = 0;
  for (int batch = 0; batch < 12; ++batch) {
    const std::string label = "batch " + std::to_string(batch);
    // Departures interleave with arrivals, as a service's queue does;
    // only ids planned by an earlier batch depart.
    struct Op {
      bool remove;
      QueryId id;
    };
    std::vector<Op> ops;
    std::vector<QueryId> arrived;
    for (int op = 0; op < 10 && next < rects.size(); ++op) {
      if (planned.size() > 4 && rng.UniformDouble(0, 1) < 0.4) {
        const size_t k = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(planned.size()) - 1));
        ASSERT_TRUE(live.Unsubscribe(planned[k]).ok()) << label;
        ops.push_back({true, planned[k]});
        planned.erase(planned.begin() + static_cast<ptrdiff_t>(k));
        ++departures;
      } else {
        const Result<QueryId> id = live.Subscribe(rects[next], 0);
        ASSERT_TRUE(id.ok()) << label;
        ASSERT_EQ(twin_queries.Add(rects[next]), *id) << label;
        ++next;
        ops.push_back({false, *id});
        arrived.push_back(*id);
      }
    }
    const BatchReport report = live.ProcessBatch();
    ASSERT_EQ(report.admitted + report.removed, ops.size()) << label;
    EXPECT_EQ(ctx_.EvictGroupsContaining(report.retired), 0u) << label;

    std::vector<QueryId> retired;
    for (const Op& op : ops) {
      if (op.remove) {
        twin.RemoveQuery(op.id);
        retired.push_back(op.id);
      } else {
        twin.AddQuery(op.id);
      }
    }
    ASSERT_EQ(report.retired, retired) << label;
    twin_ctx.EvictGroupsContaining(retired);
    twin.Repair();
    planned.insert(planned.end(), arrived.begin(), arrived.end());

    ASSERT_EQ(live.PlanSnapshot(), twin.partition()) << label;
    EXPECT_EQ(live.cost(), twin.cost()) << label;
    EXPECT_EQ(ctx_.cached_groups(), twin_ctx.cached_groups()) << label;
    EXPECT_EQ(ctx_.groups_evaluated(), twin_ctx.groups_evaluated()) << label;
  }
  EXPECT_GT(departures, 10u);
  // Eviction really ran: the memo holds fewer groups than were evaluated.
  EXPECT_LT(ctx_.cached_groups(), ctx_.groups_evaluated());
}

// ---------------------------------------------------------------------
// SubscriptionService facade in live mode.

Table LiveWorldTable(uint64_t seed) {
  Rng rng(seed);
  TableGeneratorConfig config;
  config.domain = Rect(0, 0, 100, 100);
  config.num_objects = 500;
  config.payload_fields = 1;
  config.payload_bytes = 16;
  return GenerateTable(config, &rng);
}

TEST(LiveFacadeTest, LeasedLifecycleThroughTheService) {
  ServiceConfig config;
  config.live.enabled = true;
  config.live.default_ttl_ms = 0;
  SubscriptionService service(LiveWorldTable(1), Rect(0, 0, 100, 100),
                              config);
  const ClientId c1 = service.AddClient();
  const ClientId c2 = service.AddClient();

  Result<QueryId> q1 = service.SubscribeLeased(c1, Rect(0, 0, 10, 10));
  Result<QueryId> q2 = service.SubscribeLeased(c2, Rect(2, 2, 12, 12));
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());

  // Live mode owns the plan: the one-shot Plan() entry point refuses.
  EXPECT_EQ(service.Plan().status().code(),
            StatusCode::kFailedPrecondition);

  BatchReport report = service.DrainAdmissions();
  EXPECT_EQ(report.admitted, 2u);
  EXPECT_EQ(service.live_stats().active, 2u);

  // The maintained plan serves rounds end to end (the simulator checks
  // every client's answers against its subscriptions).
  EXPECT_TRUE(service.RunRound().ok());

  ASSERT_TRUE(service.Unsubscribe(q1.value()).ok());
  report = service.DrainAdmissions();
  ASSERT_EQ(report.retired.size(), 1u);
  EXPECT_EQ(service.live_stats().active, 1u);
  EXPECT_TRUE(service.RunRound().ok());

  // The maintained plan covers exactly the surviving lease.
  ASSERT_NE(service.live(), nullptr);
  EXPECT_EQ(service.live()->LiveIds(), std::vector<QueryId>{q2.value()});
}

TEST(LiveFacadeTest, RoundsVerifyTheCurrentSubscriptions) {
  // Regression: the simulator reuses its clients while the allocation is
  // unchanged, and in live mode it is always AllClients(). Each client
  // used to keep the subscriptions it was built with, so after churn a
  // round checked the retired query (which no longer gets data) and
  // never checked the new one.
  ServiceConfig config;
  config.live.enabled = true;
  config.live.default_ttl_ms = 0;
  SubscriptionService service(LiveWorldTable(4), Rect(0, 0, 100, 100),
                              config);
  const ClientId c1 = service.AddClient();
  const ClientId c2 = service.AddClient();
  Result<QueryId> q1 = service.SubscribeLeased(c1, Rect(0, 0, 30, 30));
  ASSERT_TRUE(service.SubscribeLeased(c2, Rect(50, 50, 80, 80)).ok());
  ASSERT_TRUE(q1.ok());
  service.DrainAdmissions();
  Result<RoundStats> first = service.RunRound();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->all_answers_correct);

  ASSERT_TRUE(service.Unsubscribe(q1.value()).ok());
  Result<QueryId> q3 = service.SubscribeLeased(c1, Rect(60, 0, 95, 40));
  ASSERT_TRUE(q3.ok());
  service.DrainAdmissions();
  Result<RoundStats> second = service.RunRound();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->all_answers_correct);
}

TEST(LiveFacadeTest, BackgroundTickMirrorsPlacementsIntoClientSet) {
  // Regression: with the background sweep-and-drain tick on, batches
  // used to be processed inside LivePlanManager without the facade's
  // ApplyBatch — placed and retired subscriptions were never mirrored
  // into the ClientSet, so rounds served a plan whose clients the
  // service did not know about. The batch callback closes the gap.
  // Real clock on purpose: the tick sleeps in real time.
  ServiceConfig config;
  config.live.enabled = true;
  config.live.sweep_interval_ms = 1;
  SubscriptionService service(LiveWorldTable(7), Rect(0, 0, 100, 100),
                              config);
  const ClientId client = service.AddClient();
  Result<QueryId> id = service.SubscribeLeased(client, Rect(5, 5, 25, 25));
  ASSERT_TRUE(id.ok());

  // No explicit ProcessAdmissions/DrainAdmissions: the ticker must both
  // plan the admission and mirror it (MirroredQueriesOf synchronizes
  // with the ticker-thread mirroring).
  std::vector<QueryId> mirrored;
  for (int i = 0; i < 5000 && mirrored.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    mirrored = service.MirroredQueriesOf(client);
  }
  ASSERT_EQ(mirrored, std::vector<QueryId>{id.value()})
      << "background-tick placement was not mirrored into the ClientSet";
  EXPECT_EQ(service.live_stats().active, 1u);
  // The installed plan serves rounds end to end (the simulator verifies
  // every client's deliveries against its ClientSet subscriptions).
  EXPECT_TRUE(service.RunRound().ok());

  // Retirement flows through the same path.
  ASSERT_TRUE(service.Unsubscribe(id.value()).ok());
  for (int i = 0; i < 5000 && !mirrored.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    mirrored = service.MirroredQueriesOf(client);
  }
  EXPECT_TRUE(mirrored.empty())
      << "background-tick retirement was not mirrored out of the ClientSet";
  EXPECT_EQ(service.live_stats().active, 0u);
}

TEST(LiveFacadeTest, ConcurrentLeasesAndBatchesTakeLocksInOneOrder) {
  // One thread leases and releases subscriptions (live_mu_, then the
  // maintainer's lock) while this one processes batches and runs rounds
  // (the maintainer's lock, released before the batch callback takes
  // live_mu_). One order on every path: neither thread waits on the
  // other forever, and under TSan its deadlock detector checks the order.
  ServiceConfig config;
  config.live.enabled = true;
  config.live.default_ttl_ms = 0;
  config.live.admission_batch_max = 4;
  SubscriptionService service(LiveWorldTable(11), Rect(0, 0, 100, 100),
                              config);
  const std::vector<ClientId> clients = {service.AddClient(),
                                         service.AddClient()};

  std::atomic<bool> leasing_done{false};
  std::atomic<int> lease_errors{0};
  std::vector<QueryId> kept;
  std::thread leaser([&] {
    Rng rng(11);
    for (int i = 0; i < 24; ++i) {
      const double x = rng.UniformDouble(0, 80);
      const double y = rng.UniformDouble(0, 80);
      const Result<QueryId> id = service.SubscribeLeased(
          clients[i % 2], Rect(x, y, x + 20, y + 20));
      if (!id.ok()) {
        ++lease_errors;
      } else if (i % 3 == 2) {
        // Departs again, possibly before a batch has placed it.
        if (!service.Unsubscribe(id.value()).ok()) ++lease_errors;
      } else {
        kept.push_back(id.value());
      }
    }
    leasing_done = true;
  });
  do {
    service.ProcessAdmissions();
    // Only this thread processes batches, so the plan its callback
    // installed is still current.
    if (service.live_stats().active > 0) {
      const Result<RoundStats> round = service.RunRound();
      EXPECT_TRUE(round.ok() && round->all_answers_correct);
    }
  } while (!leasing_done);
  leaser.join();
  EXPECT_EQ(lease_errors, 0);

  service.DrainAdmissions();
  std::sort(kept.begin(), kept.end());
  ASSERT_NE(service.live(), nullptr);
  EXPECT_EQ(service.live()->LiveIds(), kept);
  std::vector<QueryId> mirrored;
  for (ClientId c : clients) {
    const std::vector<QueryId> of = service.MirroredQueriesOf(c);
    mirrored.insert(mirrored.end(), of.begin(), of.end());
  }
  std::sort(mirrored.begin(), mirrored.end());
  EXPECT_EQ(mirrored, kept);
  const Result<RoundStats> last = service.RunRound();
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(last->all_answers_correct);
}

TEST(LiveFacadeTest, LiveModeRequiresSingleChannel) {
  ServiceConfig config;
  config.live.enabled = true;
  config.num_channels = 4;
  SubscriptionService service(LiveWorldTable(2), Rect(0, 0, 100, 100),
                              config);
  const ClientId client = service.AddClient();
  EXPECT_FALSE(service.SubscribeLeased(client, Rect(0, 0, 1, 1)).ok());
}

TEST(LiveFacadeTest, LiveCallsRejectedWhenDisabled) {
  SubscriptionService service(LiveWorldTable(3), Rect(0, 0, 100, 100),
                              ServiceConfig{});
  const ClientId client = service.AddClient();
  EXPECT_EQ(service.SubscribeLeased(client, Rect(0, 0, 1, 1)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Unsubscribe(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.SweepExpired(), 0u);
}

TEST(LiveFacadeTest, AddClientWhileTheBackgroundTickMirrors) {
  // Regression: AddClient grew the ClientSet without live_mu_ while the
  // background tick's batch callback read it (ApplyBatch installs
  // AllClients() as the round allocation on every tick), a data race
  // under TSan. Clients now join under the same lock.
  ServiceConfig config;
  config.live.enabled = true;
  config.live.default_ttl_ms = 0;
  config.live.sweep_interval_ms = 1;
  SubscriptionService service(LiveWorldTable(13), Rect(0, 0, 100, 100),
                              config);
  const ClientId first = service.AddClient();
  Result<QueryId> id = service.SubscribeLeased(first, Rect(5, 5, 25, 25));
  ASSERT_TRUE(id.ok());
  for (ClientId expected = first + 1; expected <= first + 100; ++expected) {
    ASSERT_EQ(service.AddClient(), expected);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::vector<QueryId> mirrored;
  for (int i = 0; i < 5000 && mirrored.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    mirrored = service.MirroredQueriesOf(first);
  }
  ASSERT_EQ(mirrored, std::vector<QueryId>{id.value()});
  const Result<RoundStats> round = service.RunRound();
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->all_answers_correct);
}

TEST(LiveFacadeTest, SubscribeWhereIsRejectedInLiveMode) {
  // Regression: a one-shot SubscribeWhere on a live service added a query
  // the lease manager never planned, so the next round failed and every
  // later round verified an answer nobody served.
  ServiceConfig config;
  config.live.enabled = true;
  config.live.default_ttl_ms = 0;
  SubscriptionService service(LiveWorldTable(14), Rect(0, 0, 100, 100),
                              config);
  const ClientId client = service.AddClient();
  ASSERT_TRUE(service.SubscribeLeased(client, Rect(10, 10, 30, 30)).ok());
  service.DrainAdmissions();
  const Result<QueryId> rejected = service.SubscribeWhere(
      client, "longitude BETWEEN 50 AND 70 AND latitude BETWEEN 50 AND 70");
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.queries().size(), 1u);
  service.DrainAdmissions();
  const Result<RoundStats> round = service.RunRound();
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->all_answers_correct);
}

TEST(LiveFacadeDeathTest, OneShotSubscribeAbortsInLiveMode) {
  // Subscribe returns a bare id, so on a live service (where the query
  // would never be planned) it is a checked precondition.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ServiceConfig config;
  config.live.enabled = true;
  SubscriptionService service(LiveWorldTable(15), Rect(0, 0, 100, 100),
                              config);
  const ClientId client = service.AddClient();
  EXPECT_DEATH(service.Subscribe(client, Rect(0, 0, 10, 10)),
               "QSP_CHECK failed");
}

// ---------------------------------------------------------------------
// Churn soak determinism and invariants.

ChurnConfig SmallChurn(uint64_t seed) {
  ChurnConfig config;
  config.rounds = 12;
  config.initial_subs = 60;
  config.arrivals_per_round = 6;
  config.departures_per_round = 3;
  config.fault.crash_rate = 0.1;
  config.fault.late_join_rate = 0.4;
  config.seed = seed;
  return config;
}

TEST(ChurnSoakTest, FixedSeedRunsAreByteDeterministic) {
  Result<ChurnOutcome> first = RunServiceChurn(SmallChurn(5));
  Result<ChurnOutcome> second = RunServiceChurn(SmallChurn(5));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first->invariants_ok()) << first->invariant_error;
  EXPECT_EQ(first->digest, second->digest);
  ASSERT_EQ(first->rounds.size(), second->rounds.size());
  for (size_t i = 0; i < first->rounds.size(); ++i) {
    EXPECT_EQ(first->rounds[i].cost, second->rounds[i].cost) << "round " << i;
    EXPECT_EQ(first->rounds[i].evaluations, second->rounds[i].evaluations);
  }
}

TEST(ChurnSoakTest, DifferentSeedsDiverge) {
  Result<ChurnOutcome> a = RunServiceChurn(SmallChurn(5));
  Result<ChurnOutcome> b = RunServiceChurn(SmallChurn(6));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->digest, b->digest);
}

TEST(ChurnSoakTest, InvariantsHoldAcrossMaintenancePolicies) {
  for (const int moves : {-1, 0, 8}) {
    ChurnConfig config = SmallChurn(7);
    config.service.repair_max_moves = moves;
    config.service.replan_drift_factor = 1.2;
    config.service.drift_check_every_batches = 2;
    Result<ChurnOutcome> outcome = RunServiceChurn(config);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->invariants_ok())
        << "repair_max_moves=" << moves << ": " << outcome->invariant_error;
    EXPECT_GT(outcome->final_stats.expired, 0u);
  }
}

TEST(ChurnSoakTest, TickingClockSoakStaysDeterministic) {
  // Nonzero tick = every clock read advances time (in-batch deadlines
  // can fire); the digest must still be reproducible.
  ChurnConfig config = SmallChurn(9);
  config.clock_tick_us = 1.0;
  config.service.repair_deadline_us = 200;
  Result<ChurnOutcome> a = RunServiceChurn(config);
  Result<ChurnOutcome> b = RunServiceChurn(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->invariants_ok()) << a->invariant_error;
  EXPECT_EQ(a->digest, b->digest);
}

}  // namespace
}  // namespace qsp
