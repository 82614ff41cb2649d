#include "core/live_plan.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "merge/pair_merger.h"
#include "merge/plan_bounds.h"
#include "merge/sharded_planner.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace qsp {

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

LivePlanManager::LivePlanManager(QuerySet* queries, const MergeContext* ctx,
                                 const CostModel& model,
                                 LiveServiceConfig opts, obs::Clock* clock)
    : queries_(queries),
      ctx_(ctx),
      model_(model),
      opts_(opts),
      clock_(clock != nullptr ? clock : opts.clock),
      merger_(ctx, model) {
  QSP_CHECK(queries != nullptr);
  QSP_CHECK(ctx != nullptr);
  QSP_CHECK(&ctx->queries() == queries);
}

LivePlanManager::~LivePlanManager() {
  StopBackground();
  std::lock_guard<std::mutex> lock(mu_);
  if (replan_job_ && replan_job_->thread.joinable()) {
    replan_job_->thread.join();
  }
}

double LivePlanManager::NowUs() const {
  return clock_ != nullptr ? clock_->NowMicros()
                           : obs::CurrentClock()->NowMicros();
}

double LivePlanManager::DeadlineFor(uint64_t ttl_ms, double now_us) const {
  const uint64_t effective = ttl_ms != 0 ? ttl_ms : opts_.default_ttl_ms;
  if (effective == 0) return kNever;
  return now_us + static_cast<double>(effective) * 1000.0;
}

bool LivePlanManager::Held(QueryId id) const {
  if (id >= state_.size()) return false;
  return state_[id] == LeaseState::kPending || state_[id] == LeaseState::kLive;
}

Result<QueryId> LivePlanManager::Subscribe(const Rect& rect,
                                           uint64_t ttl_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.size() >= opts_.admission_queue_limit) {
    ++sheds_;
    obs::Count("service.admission.sheds");
    return Status::ResourceExhausted(
        "admission queue full; retry after the backlog drains");
  }
  const QueryId id = queries_->Add(rect);
  if (state_.size() <= id) {
    state_.resize(id + 1, LeaseState::kNone);
    expires_us_.resize(id + 1, kNever);
  }
  state_[id] = LeaseState::kPending;
  expires_us_[id] = DeadlineFor(ttl_ms, NowUs());
  ++pending_;
  queue_.push_back(Op{false, id});
  obs::SetGauge("service.admission.queue_depth",
                static_cast<double>(queue_.size()));
  return id;
}

Status LivePlanManager::Renew(QueryId id, uint64_t ttl_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Held(id)) {
    return Status::NotFound("lease not held; re-subscribe to rejoin");
  }
  expires_us_[id] = DeadlineFor(ttl_ms, NowUs());
  ++renewals_;
  obs::Count("service.lease.renewals");
  return Status::OK();
}

Status LivePlanManager::Unsubscribe(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Held(id)) return Status::NotFound("lease not held");
  EnqueueRemove(id);
  return Status::OK();
}

void LivePlanManager::EnqueueRemove(QueryId id) {
  if (state_[id] == LeaseState::kPending) --pending_;
  state_[id] = LeaseState::kRetiring;
  // Removes are never shed: dropping a departure would leak the lease
  // and leave a dead subscription in every future plan.
  queue_.push_back(Op{true, id});
}

size_t LivePlanManager::SweepExpired() {
  std::lock_guard<std::mutex> lock(mu_);
  const double now = NowUs();
  size_t swept = 0;
  for (QueryId id = 0; id < state_.size(); ++id) {
    if (!Held(id)) continue;
    if (now < expires_us_[id]) continue;  // Expiry is exact: now >= ttl.
    EnqueueRemove(id);
    ++swept;
  }
  expired_ += swept;
  if (swept != 0) obs::Count("service.lease.expired", swept);
  return swept;
}

void LivePlanManager::RunReplanJob(ReplanJob* job, const MergeContext* live,
                                   const CostModel& model, bool pruning,
                                   int shards) {
  // The dense snapshot plans exactly like an offline plan (DESIGN.md
  // §13): sharded across the exec pool when shards > 1, a plain pair
  // merge otherwise. The snapshot context is private, so this never
  // races the incremental merger (only the live context's estimator and
  // procedure are shared — read-only and safe for concurrent const
  // calls); it serves only this pair merge and its seam pass, so it
  // takes the merger's memo policy. Failure flows into the abandon path.
  const PairMerger merger(/*use_heap=*/true, pruning);
  const MergeContext ctx(&job->snap_queries, &live->estimator(),
                         &live->procedure(), merger.ContextMemo());
  const ShardedPlanner planner(
      &merger, ShardedPlanner::Options{.shards = shards, .pruning = pruning});
  Result<ShardedMergeOutcome> outcome = planner.Plan(ctx, model);
  if (outcome.ok()) {
    job->result = std::move(outcome.value().outcome.partition);
    job->candidates = outcome.value().outcome.candidates;
  } else {
    job->failed = true;
  }
  job->done.store(true, std::memory_order_release);
}

void LivePlanManager::TriggerReplan() {
  auto job = std::make_unique<ReplanJob>();
  // Snapshot the in-plan population with dense private ids: the replan
  // must never race QuerySet growth from concurrent Subscribes.
  for (const QueryGroup& g : merger_.partition()) {
    for (QueryId q : g) job->snap_ids.push_back(q);
  }
  std::sort(job->snap_ids.begin(), job->snap_ids.end());
  for (QueryId q : job->snap_ids) {
    QSP_IGNORE_RESULT(job->snap_queries.Add(queries_->rect(q)));
  }
  job->started_us = NowUs();
  obs::Count("service.replan.triggered");
  if (opts_.replan_background) {
    ReplanJob* raw = job.get();
    const MergeContext* live = ctx_;
    const CostModel model = model_;
    const bool pruning = opts_.replan_pruning;
    const int shards = opts_.shards;
    job->thread = std::thread([raw, live, model, pruning, shards] {
      RunReplanJob(raw, live, model, pruning, shards);
    });
    replan_job_ = std::move(job);
  } else {
    RunReplanJob(job.get(), ctx_, model_, opts_.replan_pruning, opts_.shards);
    replan_job_ = std::move(job);
    // Inline replans finish immediately; adoption happens in the same
    // batch (FinishReplan is the caller's next step).
  }
}

void LivePlanManager::FinishReplan(BatchReport* report) {
  ReplanJob* job = replan_job_.get();
  QSP_CHECK(job != nullptr);
  if (job->thread.joinable()) job->thread.join();
  report->replan_evaluations += job->candidates;
  replan_evals_total_ += job->candidates;
  const double elapsed = NowUs() - job->started_us;
  const bool late = opts_.replan_deadline_us > 0 &&
                    elapsed > static_cast<double>(opts_.replan_deadline_us);
  if (job->failed || late || opts_.inject_replan_failure) {
    // Graceful degradation: the old plan stays live — the service is
    // never planless. The abandonment is visible, not silent.
    ++replans_abandoned_;
    obs::Count("service.replan.abandoned");
    report->replan_abandoned = true;
    replan_job_.reset();
    return;
  }
  // Reconcile the snapshot-time plan with churn that happened while the
  // replan ran: members that have since left the plan are dropped, and
  // ids admitted since the snapshot are re-placed greedily on top.
  std::vector<bool> in_snapshot(queries_->size(), false);
  for (QueryId id : job->snap_ids) in_snapshot[id] = true;
  std::vector<QueryId> extras;
  for (const QueryGroup& g : merger_.partition()) {
    for (QueryId q : g) {
      if (!in_snapshot[q]) extras.push_back(q);
    }
  }
  std::sort(extras.begin(), extras.end());
  Partition translated;
  for (const QueryGroup& group : job->result) {
    QueryGroup real;
    for (QueryId snap : group) {
      const QueryId id = job->snap_ids[snap];
      if (merger_.Contains(id)) real.push_back(id);
    }
    if (!real.empty()) translated.push_back(std::move(real));
  }
  merger_.Reset(std::move(translated));
  for (QueryId id : extras) merger_.AddQuery(id);
  ++replans_adopted_;
  plan_age_batches_ = 0;
  obs::Count("service.replan.adopted");
  report->replan_adopted = true;
  replan_job_.reset();
}

BatchReport LivePlanManager::ProcessBatch() {
  std::unique_lock<std::mutex> lock(mu_);
  BatchReport report;
  const double batch_start = NowUs();
  const uint64_t evals_before = merger_.evaluations();
  if (replan_job_ && replan_job_->done.load(std::memory_order_acquire)) {
    FinishReplan(&report);
  }

  // Admission: apply up to one batch of queued ops in FIFO order — an
  // id's add always precedes its remove, so expiry of a still-queued
  // subscription is safe.
  size_t ops = 0;
  while (ops < opts_.admission_batch_max && !queue_.empty()) {
    const Op op = queue_.front();
    queue_.pop_front();
    if (op.remove) {
      merger_.RemoveQuery(op.id);
      state_[op.id] = LeaseState::kRetired;
      QSP_CHECK(active_ > 0);
      --active_;
      report.retired.push_back(op.id);
      ++report.removed;
    } else {
      merger_.AddQuery(op.id);
      if (state_[op.id] == LeaseState::kPending) {
        state_[op.id] = LeaseState::kLive;
        --pending_;
      }
      // A kRetiring id still gets planned here; its queued remove op
      // retires it in a later (or this) batch.
      ++active_;
      report.placed.push_back(op.id);
      ++report.admitted;
    }
    ++ops;
  }
  // Ids are never reused (QuerySet is append-only), so every memoized
  // group holding a retired id is garbage. One pass over the memo per
  // batch evicts them all and bounds its footprint under churn; no
  // group holding a removed id is evaluated after its removal, so the
  // memo is the one per-departure eviction would leave.
  ctx_->EvictGroupsContaining(report.retired);

  // Budgeted repair under the per-batch deadline (SLO): one steepest-
  // descent move at a time so the deadline is checked between moves.
  if (opts_.repair_max_moves >= 0) {
    // Latency is measured time (obs::CurrentClock()), never the control
    // clock: a test's FakeClock would make every sample 0.
    const double repair_start = obs::CurrentClock()->NowMicros();
    while (true) {
      if (opts_.repair_max_moves > 0 &&
          report.repair_moves >= opts_.repair_max_moves) {
        break;
      }
      if (opts_.repair_deadline_us > 0 &&
          NowUs() - batch_start >=
              static_cast<double>(opts_.repair_deadline_us)) {
        report.repair_deadline_hit = true;
        obs::Count("service.repair.deadline_hits");
        break;
      }
      const double before = merger_.cost();
      merger_.Repair(1);
      if (!(merger_.cost() < before)) break;  // Local minimum.
      ++report.repair_moves;
    }
    report.repair_latency_us =
        obs::CurrentClock()->NowMicros() - repair_start;
    obs::Observe("service.repair.latency_us", report.repair_latency_us);
  }

  // Cost-drift trigger: compare the maintained plan against an
  // admissible fresh-plan lower bound; past the hysteresis factor, a
  // from-scratch replan starts (in the background when configured)
  // while rounds keep serving the current plan.
  ++plan_age_batches_;
  report.cost = merger_.cost();
  if (opts_.replan_drift_factor > 0.0 && !replan_job_) {
    if (++batches_since_drift_check_ >= opts_.drift_check_every_batches) {
      batches_since_drift_check_ = 0;
      std::vector<QueryId> live;
      for (const QueryGroup& g : merger_.partition()) {
        for (QueryId q : g) live.push_back(q);
      }
      report.bound = plan::FreshPlanCostLowerBound(*ctx_, model_, live);
      if (report.bound > 0.0) {
        report.drift = report.cost / report.bound;
        obs::SetGauge("service.plan.bound", report.bound);
        obs::SetGauge("service.plan.drift", report.drift);
        if (report.drift > opts_.replan_drift_factor) {
          report.replan_triggered = true;
          TriggerReplan();
          if (!opts_.replan_background) FinishReplan(&report);
        }
      }
    }
  }

  report.evaluations = merger_.evaluations() - evals_before;
  PublishGauges();
  const std::function<void(const BatchReport&)> cb = batch_cb_;
  lock.unlock();
  // The callback runs with mu_ released so it can call back into the
  // manager (PlanSnapshot, Stats) without deadlocking.
  if (cb) cb(report);
  return report;
}

BatchReport LivePlanManager::DrainAll() {
  BatchReport total;
  while (true) {
    BatchReport r = ProcessBatch();
    total.admitted += r.admitted;
    total.removed += r.removed;
    total.placed.insert(total.placed.end(), r.placed.begin(), r.placed.end());
    total.retired.insert(total.retired.end(), r.retired.begin(),
                         r.retired.end());
    total.repair_moves += r.repair_moves;
    total.repair_deadline_hit |= r.repair_deadline_hit;
    total.repair_latency_us += r.repair_latency_us;
    total.evaluations += r.evaluations;
    total.cost = r.cost;
    if (r.bound > 0.0) {
      total.bound = r.bound;
      total.drift = r.drift;
    }
    total.replan_triggered |= r.replan_triggered;
    total.replan_adopted |= r.replan_adopted;
    total.replan_abandoned |= r.replan_abandoned;
    total.replan_evaluations += r.replan_evaluations;
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) break;
  }
  return total;
}

void LivePlanManager::SetBatchCallback(
    std::function<void(const BatchReport&)> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  batch_cb_ = std::move(cb);
}

Status LivePlanManager::ReplanNow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (replan_job_) {
    return Status::FailedPrecondition("a background replan is in flight");
  }
  TriggerReplan();
  if (replan_job_->thread.joinable()) replan_job_->thread.join();
  BatchReport report;
  FinishReplan(&report);
  if (report.replan_abandoned) {
    return Status::Internal("replan abandoned; previous plan stays live");
  }
  PublishGauges();
  return Status::OK();
}

void LivePlanManager::StartBackground() {
  if (opts_.sweep_interval_ms == 0) return;
  ticker_.Start(opts_.sweep_interval_ms, [this] {
    SweepExpired();
    ProcessBatch();
  });
}

void LivePlanManager::StopBackground() { ticker_.Stop(); }

Partition LivePlanManager::PlanSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merger_.partition();
}

std::vector<QueryId> LivePlanManager::LiveIdsLocked() const {
  std::vector<QueryId> live;
  for (QueryId id = 0; id < state_.size(); ++id) {
    if (state_[id] == LeaseState::kLive) live.push_back(id);
  }
  return live;
}

std::vector<QueryId> LivePlanManager::LiveIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return LiveIdsLocked();
}

LiveStats LivePlanManager::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LiveStats s;
  s.active = active_;
  s.pending = pending_;
  s.queue_depth = queue_.size();
  s.sheds = sheds_;
  s.expired = expired_;
  s.renewals = renewals_;
  s.replans_adopted = replans_adopted_;
  s.replans_abandoned = replans_abandoned_;
  s.replan_evaluations = replan_evals_total_;
  s.plan_age_batches = plan_age_batches_;
  s.cost = merger_.cost();
  return s;
}

double LivePlanManager::cost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merger_.cost();
}

uint64_t LivePlanManager::evaluations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merger_.evaluations();
}

void LivePlanManager::PublishGauges() {
  obs::SetGauge("service.subs.active", static_cast<double>(active_));
  obs::SetGauge("service.admission.queue_depth",
                static_cast<double>(queue_.size()));
  obs::SetGauge("service.plan.cost", merger_.cost());
  obs::SetGauge("service.plan.age_batches",
                static_cast<double>(plan_age_batches_));
}

}  // namespace qsp
