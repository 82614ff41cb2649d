#ifndef QSP_CORE_LIVE_PLAN_H_
#define QSP_CORE_LIVE_PLAN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cost/cost_model.h"
#include "exec/periodic.h"
#include "geom/rect.h"
#include "merge/incremental_merger.h"
#include "obs/clock.h"
#include "query/merge_context.h"
#include "query/query.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace qsp {

/// Knobs of the long-lived service loop (DESIGN.md §11). Everything
/// defaults off/neutral: with `enabled == false` the SubscriptionService
/// behaves exactly like the one-shot plan-then-run facade, so the fig15/
/// 16/17 harnesses are untouched.
struct LiveServiceConfig {
  /// Master switch for live mode (lease lifecycle, batched admission,
  /// incremental repair, drift replanning).
  bool enabled = false;
  /// Lease length granted to Subscribe calls that do not pass their own
  /// TTL. 0 = leases never expire (still removable via Unsubscribe).
  uint64_t default_ttl_ms = 0;
  /// Interval of the background sweep/drain tick driven by an
  /// exec::PeriodicTask. 0 = no background thread; the owner calls
  /// SweepExpired/ProcessBatch explicitly (what the simulators do).
  uint64_t sweep_interval_ms = 0;
  /// Max admission ops (adds + removes) applied per ProcessBatch call.
  size_t admission_batch_max = 64;
  /// Backpressure: Subscribe sheds (retryable ResourceExhausted) once
  /// this many ops are queued. Removes always enqueue — shedding a
  /// departure would leak the lease.
  size_t admission_queue_limit = 4096;
  /// Per-batch repair SLO: once this much control-clock time has elapsed
  /// in ProcessBatch, no further repair moves start. 0 = no deadline.
  uint64_t repair_deadline_us = 0;
  /// Repair move budget per batch: < 0 disables repair, 0 = run to a
  /// local minimum (subject to the deadline), > 0 caps applied moves.
  int repair_max_moves = 0;
  /// Drift trigger: when maintained-cost / FreshPlanCostLowerBound
  /// exceeds this factor, a from-scratch replan is kicked off. 0
  /// disables drift replanning; meaningful values are > 1 (hysteresis —
  /// the maintained plan is allowed to drift this far before the service
  /// pays for a rebuild).
  double replan_drift_factor = 0.0;
  /// A finished replan older than this (control clock, measured from
  /// trigger to adoption attempt) is abandoned: the old plan stays live.
  /// 0 = never abandoned for lateness.
  uint64_t replan_deadline_us = 0;
  /// How often (in batches) the drift ratio is recomputed. The lower
  /// bound is near-linear in the live population, so per-batch checks
  /// are affordable but pointless under light churn.
  uint64_t drift_check_every_batches = 1;
  /// Run triggered replans on a background thread (rounds keep serving
  /// the old plan; the result is adopted at the start of a later batch).
  /// Off = replans run inline in ProcessBatch.
  bool replan_background = false;
  /// Pruning (DESIGN.md §8) for the from-scratch replans (PairMerger);
  /// off runs the same loop with bounds that prune nothing, so a replan
  /// evaluates every pair. The incremental merger's scans are always
  /// bounded.
  bool replan_pruning = true;
  /// Sharded from-scratch replans (DESIGN.md §13): drift replans and
  /// ReplanNow plan their dense snapshot through ShardedPlanner
  /// (cost-balanced assignment) wrapping the PairMerger; with a value
  /// N > 1 the shards fan out across the exec pool. 1 — the default —
  /// delegates to the PairMerger, byte-identical to an unsharded
  /// merge. Adoption, lateness abandonment, and the never-planless
  /// guarantee are the same at every value. SubscriptionService
  /// forwards its top-level ServiceConfig::shards here when this is
  /// left at 1, so the facade knob is honored in live mode too.
  int shards = 1;
  /// Test hook: every replan result is discarded as if it had failed,
  /// proving the degradation path (service keeps serving the old plan).
  bool inject_replan_failure = false;
  /// Control clock for lease expiry and deadlines (non-owning; must
  /// outlive the service). Tests inject a FakeClock here. Null = the
  /// process clock (obs::CurrentClock()). Latencies are measured on
  /// obs::CurrentClock() whatever this is.
  obs::Clock* clock = nullptr;
};

/// One ProcessBatch outcome.
struct BatchReport {
  /// Admission ops applied this batch.
  size_t admitted = 0;
  size_t removed = 0;
  /// Ids placed into the plan this batch, in processing order. The owner
  /// activates their client-side state (the SubscriptionService
  /// subscribes them in its ClientSet) only now — a queued-but-unplanned
  /// subscription must not expect round deliveries yet.
  std::vector<QueryId> placed;
  /// Ids whose leases ended this batch (expired or unsubscribed), in
  /// processing order. The owner retires their client-side state (the
  /// SubscriptionService unsubscribes them from its ClientSet).
  std::vector<QueryId> retired;
  /// Repair accounting.
  int repair_moves = 0;
  bool repair_deadline_hit = false;
  /// Wall time of the repair loop on obs::CurrentClock(), the
  /// measurement clock (not the control clock).
  double repair_latency_us = 0.0;
  /// Exact group evaluations spent this batch (adds + removes + repair).
  uint64_t evaluations = 0;
  /// Drift/replan accounting. `drift` and `bound` are 0 when the drift
  /// check did not run this batch.
  double cost = 0.0;
  double bound = 0.0;
  double drift = 0.0;
  bool replan_triggered = false;
  bool replan_adopted = false;
  bool replan_abandoned = false;
  /// Candidate evaluations the finished replan spent (from-scratch work,
  /// counted whether adopted or abandoned; 0 when none finished).
  uint64_t replan_evaluations = 0;
};

/// Aggregate live-service state (gauges; also exported as qsp_ metrics).
struct LiveStats {
  size_t active = 0;
  size_t pending = 0;
  size_t queue_depth = 0;
  uint64_t sheds = 0;
  uint64_t expired = 0;
  uint64_t renewals = 0;
  uint64_t replans_adopted = 0;
  uint64_t replans_abandoned = 0;
  /// Cumulative candidate evaluations across every finished replan.
  uint64_t replan_evaluations = 0;
  uint64_t plan_age_batches = 0;
  double cost = 0.0;
};

/// The live-service plan maintainer: owns the lease table, the bounded
/// admission queue, the incrementally repaired partition, and the
/// cost-drift replan machinery (DESIGN.md §11). Built for failure as the
/// normal case — expiry retires subscriptions whose clients went silent,
/// overload sheds admissions with a retryable status instead of
/// stalling, repair is budgeted against an SLO, and a replan that fails
/// or finishes late is abandoned while the old plan keeps serving: the
/// service is never planless.
///
/// Thread-safe: all public methods lock one mutex. Subscribe/Renew/
/// Unsubscribe are cheap (enqueue + lease bookkeeping) so callers never
/// wait on planning; the planning work happens inside ProcessBatch,
/// which the owner calls explicitly or lets the background tick drive.
/// The injected obs::Clock is the *control* clock (lease expiry, repair
/// and replan deadlines); tests inject a FakeClock to make lease
/// semantics exact and soaks byte-deterministic. Latency metrics read the
/// measurement clock, obs::CurrentClock(), so they stay real under it.
///
/// Does not own the QuerySet/MergeContext; both must outlive it. The
/// QuerySet must only be mutated through this manager while live.
class LivePlanManager {
 public:
  /// `clock` may be null: the control clock then falls back to
  /// obs::CurrentClock() (process default, or whatever SetClock set).
  LivePlanManager(QuerySet* queries, const MergeContext* ctx,
                  const CostModel& model, LiveServiceConfig opts,
                  obs::Clock* clock = nullptr);
  ~LivePlanManager();

  LivePlanManager(const LivePlanManager&) = delete;
  LivePlanManager& operator=(const LivePlanManager&) = delete;

  /// Leases a new subscription for `ttl_ms` (0 = the configured default
  /// TTL). The query id is allocated immediately; planning happens at
  /// the next batch. Sheds with Status::ResourceExhausted (retryable)
  /// when the admission queue is full.
  Result<QueryId> Subscribe(const Rect& rect, uint64_t ttl_ms = 0);

  /// Heartbeat: extends the lease to now + ttl (0 = the default TTL).
  /// Fails with kNotFound once the lease expired or was unsubscribed —
  /// the client must re-Subscribe (late join).
  Status Renew(QueryId id, uint64_t ttl_ms = 0);

  /// Voluntary departure. Never shed (dropping a departure would leak
  /// the lease); fails with kNotFound if the id is not held.
  Status Unsubscribe(QueryId id);

  /// Retires every lease whose TTL elapsed (expiry is exact: a lease
  /// expires at now >= deadline). Returns how many expired this sweep.
  size_t SweepExpired();

  /// Applies one admission batch: adopts a finished background replan,
  /// applies up to admission_batch_max queued ops through the
  /// incremental merger, evicts the memo entries of the ids it retired
  /// (one pass over the memo), runs budgeted repair under the deadline,
  /// and runs the drift check. Safe to call with an empty queue (repair and
  /// drift still run, so a stale plan keeps healing).
  BatchReport ProcessBatch();

  /// ProcessBatch until the admission queue is empty; merges reports.
  BatchReport DrainAll();

  /// Registers a callback invoked after every ProcessBatch with that
  /// batch's report — including batches driven by the background tick,
  /// which otherwise complete invisibly to the owner. The owner uses it
  /// to mirror placed/retired ids into its client-side state. Invoked
  /// with the manager's lock released, on whatever thread ran the batch
  /// (the ticker thread in background mode), so the callback may call
  /// back into const accessors such as PlanSnapshot. Set it before
  /// StartBackground; pass an empty function to clear.
  void SetBatchCallback(std::function<void(const BatchReport&)> cb);

  /// Synchronous from-scratch replan + adoption attempt (subject to the
  /// failure-injection hook; lateness cannot occur inline). Returns
  /// FailedPrecondition when a background replan is already running.
  Status ReplanNow();

  /// Starts/stops the background sweep-and-drain tick
  /// (sweep_interval_ms). No-op when the interval is 0.
  void StartBackground();
  void StopBackground();

  /// Copy of the live partition (group members are live query ids).
  Partition PlanSnapshot() const;

  /// Ids currently holding a live (planned) lease, ascending.
  std::vector<QueryId> LiveIds() const;

  LiveStats Stats() const;
  double cost() const;
  /// Exact group evaluations spent by the maintainer so far.
  uint64_t evaluations() const;

 private:
  enum class LeaseState : uint8_t {
    kNone = 0,   // id not held by the manager
    kPending,    // admission queued, not planned yet
    kLive,       // planned (in the partition)
    kRetiring,   // removal queued
    kRetired,    // gone
  };

  struct Op {
    bool remove = false;
    QueryId id = 0;
  };

  /// In-flight from-scratch replan: a private snapshot of the live rects
  /// (ids remapped dense) so the planner never races QuerySet growth.
  struct ReplanJob {
    std::vector<QueryId> snap_ids;
    QuerySet snap_queries;
    double started_us = 0.0;
    std::thread thread;
    std::atomic<bool> done{false};
    bool failed = false;
    Partition result;
    uint64_t candidates = 0;
  };

  double NowUs() const;
  double DeadlineFor(uint64_t ttl_ms, double now_us) const;
  bool Held(QueryId id) const QSP_REQUIRES(mu_);
  std::vector<QueryId> LiveIdsLocked() const QSP_REQUIRES(mu_);
  void EnqueueRemove(QueryId id) QSP_REQUIRES(mu_);
  /// Launches a replan (inline or background per the config).
  void TriggerReplan() QSP_REQUIRES(mu_);
  /// Runs the snapshot merge through ShardedPlanner (no lock held;
  /// called on the replan thread or inline from ReplanNow) on a private
  /// snapshot context that shares only `live`'s estimator and procedure,
  /// so the sharded fan-out never races the incremental merger. The
  /// snapshot context takes the PairMerger's memo policy (evaluate-only).
  static void RunReplanJob(ReplanJob* job, const MergeContext* live,
                           const CostModel& model, bool pruning, int shards);
  /// Adopts or abandons a finished job; fills report flags.
  void FinishReplan(BatchReport* report) QSP_REQUIRES(mu_);
  void PublishGauges() QSP_REQUIRES(mu_);

  QuerySet* queries_;
  const MergeContext* ctx_;
  CostModel model_;
  LiveServiceConfig opts_;
  obs::Clock* clock_;

  mutable std::mutex mu_;
  IncrementalMerger merger_ QSP_GUARDED_BY(mu_);
  std::vector<LeaseState> state_ QSP_GUARDED_BY(mu_);
  std::vector<double> expires_us_ QSP_GUARDED_BY(mu_);
  std::deque<Op> queue_ QSP_GUARDED_BY(mu_);
  size_t active_ = 0;
  size_t pending_ = 0;
  uint64_t sheds_ = 0;
  uint64_t expired_ = 0;
  uint64_t renewals_ = 0;
  uint64_t replans_adopted_ = 0;
  uint64_t replans_abandoned_ = 0;
  uint64_t replan_evals_total_ = 0;
  uint64_t plan_age_batches_ = 0;
  uint64_t batches_since_drift_check_ = 0;
  std::unique_ptr<ReplanJob> replan_job_ QSP_GUARDED_BY(mu_);
  std::function<void(const BatchReport&)> batch_cb_ QSP_GUARDED_BY(mu_);
  exec::PeriodicTask ticker_;
};

}  // namespace qsp

#endif  // QSP_CORE_LIVE_PLAN_H_
