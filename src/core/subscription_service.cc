#include "core/subscription_service.h"

#include <cstdio>
#include <utility>

#include "channel/channel_cost.h"
#include "channel/exhaustive_allocator.h"
#include "exec/thread_pool.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/pair_merger.h"
#include "merge/partition_merger.h"
#include "merge/sharded_planner.h"
#include "obs/metrics.h"
#include "obs/phase_tracer.h"
#include "relation/grid_index.h"
#include "stats/exact_estimator.h"
#include "stats/histogram_estimator.h"

namespace qsp {

std::unique_ptr<MergeProcedure> MakeProcedure(ProcedureKind kind) {
  switch (kind) {
    case ProcedureKind::kBoundingRect:
      return std::make_unique<BoundingRectProcedure>();
    case ProcedureKind::kBoundingPolygon:
      return std::make_unique<BoundingPolygonProcedure>();
    case ProcedureKind::kExactCover:
      return std::make_unique<ExactCoverProcedure>();
  }
  return nullptr;
}

std::unique_ptr<Merger> MakeMerger(MergerKind kind, uint64_t seed,
                                   bool pruning) {
  switch (kind) {
    case MergerKind::kPairMerging:
      return std::make_unique<PairMerger>(/*use_heap=*/true, pruning);
    case MergerKind::kDirectedSearch:
      return std::make_unique<DirectedSearchMerger>(8, seed, pruning);
    case MergerKind::kClustering:
      return std::make_unique<ClusteringMerger>(pruning);
    case MergerKind::kPartitionExact:
      return std::make_unique<PartitionMerger>();
  }
  return nullptr;
}

SubscriptionService::SubscriptionService(Table table, const Rect& domain,
                                         ServiceConfig config)
    : table_(std::move(table)), domain_(domain), config_(config) {
  if (config_.telemetry) obs::SetEnabled(true);
  exec::SetDefaultThreads(config_.threads);
  index_ = std::make_unique<GridIndex>(table_, domain_);
  procedure_ = MakeProcedure(config_.procedure);
  switch (config_.estimator) {
    case EstimatorKind::kUniform:
      estimator_ = std::make_unique<UniformDensityEstimator>(
          static_cast<double>(table_.num_rows()), domain_);
      break;
    case EstimatorKind::kHistogram:
      estimator_ = std::make_unique<HistogramEstimator>(
          table_, domain_, config_.histogram_buckets,
          config_.histogram_buckets);
      break;
    case EstimatorKind::kExact:
      estimator_ = std::make_unique<ExactEstimator>(index_.get());
      break;
  }
  if (config_.live.enabled && config_.num_channels <= 1) {
    // Live mode owns the context for its whole lifetime (the QuerySet
    // grows through the lease API; Plan() is rejected so nothing swaps
    // the context out from under the maintainer).
    context_ = std::make_unique<MergeContext>(&queries_, estimator_.get(),
                                              procedure_.get());
    // The facade-level shards knob reaches live replans too (it used to
    // be silently ignored in live mode): forward it unless the caller
    // set the live-specific knob explicitly.
    LiveServiceConfig live_opts = config_.live;
    if (live_opts.shards <= 1) live_opts.shards = config_.shards;
    live_ = std::make_unique<LivePlanManager>(
        &queries_, context_.get(), config_.cost_model, live_opts);
    // Every processed batch mirrors into the ClientSet through this
    // callback — in particular batches the background tick drives, which
    // previously completed inside the maintainer without the facade ever
    // seeing their placed/retired ids.
    live_->SetBatchCallback(
        [this](const BatchReport& report) { ApplyBatch(report); });
    if (config_.live.sweep_interval_ms > 0) live_->StartBackground();
  }
  if (config_.telemetry && config_.sample_interval_ms > 0 &&
      !config_.sample_path.empty()) {
    obs::PeriodicSampler::Options options;
    options.interval_ms = config_.sample_interval_ms;
    options.path = config_.sample_path;
    sampler_ = std::make_unique<obs::PeriodicSampler>(std::move(options));
    const Status started = sampler_->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "metric sampler disabled: %s\n",
                   started.ToString().c_str());
      sampler_.reset();
    }
  }
}

SubscriptionService::~SubscriptionService() {
  // Stop the background tick before any facade member it reaches
  // through ApplyBatch (clients_, plan_, owner_of_query_) is torn down.
  if (live_ != nullptr) live_->StopBackground();
}

ClientId SubscriptionService::AddClient() {
  // In live mode the background tick's ApplyBatch reads the ClientSet
  // under live_mu_.
  std::lock_guard<std::mutex> lock(live_mu_);
  return clients_.AddClient();
}

QueryId SubscriptionService::Subscribe(ClientId client, const Rect& rect) {
  // A live service plans only what its lease manager admits; a one-shot
  // subscription would be verified by every round but never planned.
  QSP_CHECK(live_ == nullptr);
  const QueryId id = queries_.Add(rect);
  clients_.Subscribe(client, id);
  has_plan_ = false;
  return id;
}

Result<QueryId> SubscriptionService::SubscribeWhere(
    ClientId client, const std::string& predicate) {
  if (live_ != nullptr) {
    return Status::FailedPrecondition(
        "live mode admits subscriptions through SubscribeLeased()");
  }
  auto parsed = ParsePredicate(predicate);
  if (!parsed.ok()) return parsed.status();
  auto rect = ExtractRange(parsed.value(), table_.schema(), domain_);
  if (!rect.ok()) return rect.status();
  return Subscribe(client, rect.value());
}

Status SubscriptionService::LiveGuard() const {
  if (!config_.live.enabled) {
    return Status::FailedPrecondition(
        "live mode is off (set ServiceConfig::live.enabled)");
  }
  if (config_.num_channels > 1) {
    return Status::InvalidArgument(
        "live mode requires num_channels == 1 (basic broadcast model)");
  }
  return Status::OK();
}

Result<QueryId> SubscriptionService::SubscribeLeased(ClientId client,
                                                     const Rect& rect,
                                                     uint64_t ttl_ms) {
  QSP_RETURN_IF_ERROR(LiveGuard());
  // live_mu_ is held across the client check, the enqueue AND the owner
  // recording: the background tick can pop the admission as soon as
  // Subscribe returns, but its ApplyBatch blocks on live_mu_ until the
  // owner is on record.
  std::lock_guard<std::mutex> lock(live_mu_);
  if (client >= clients_.num_clients()) {
    return Status::InvalidArgument("unknown client id");
  }
  Result<QueryId> id = live_->Subscribe(rect, ttl_ms);
  if (!id.ok()) return id.status();
  if (owner_of_query_.size() <= id.value()) {
    owner_of_query_.resize(id.value() + 1, 0);
  }
  owner_of_query_[id.value()] = client;
  return id;
}

Status SubscriptionService::RenewLease(QueryId id, uint64_t ttl_ms) {
  QSP_RETURN_IF_ERROR(LiveGuard());
  return live_->Renew(id, ttl_ms);
}

Status SubscriptionService::Unsubscribe(QueryId id) {
  QSP_RETURN_IF_ERROR(LiveGuard());
  return live_->Unsubscribe(id);
}

size_t SubscriptionService::SweepExpired() {
  if (live_ == nullptr) return 0;
  return live_->SweepExpired();
}

void SubscriptionService::ApplyBatch(const BatchReport& report) {
  // ClientSet mirrors the *planned* population: a subscription joins it
  // when placed and leaves when retired, so every round's verification
  // checks exactly the queries the plan can serve. Runs on whatever
  // thread processed the batch (the ticker thread in background mode).
  std::lock_guard<std::mutex> lock(live_mu_);
  for (QueryId id : report.placed) {
    clients_.Subscribe(owner_of_query_[id], id);
  }
  for (QueryId id : report.retired) {
    clients_.Unsubscribe(owner_of_query_[id], id);
  }
  plan_ = DisseminationPlan{};
  plan_.allocation.push_back(clients_.AllClients());
  plan_.channel_partitions.push_back(live_->PlanSnapshot());
  has_plan_ = true;
}

BatchReport SubscriptionService::ProcessAdmissions() {
  if (live_ == nullptr) return BatchReport{};
  // The registered batch callback applies the report (ClientSet
  // mirroring + plan installation) before ProcessBatch returns.
  return live_->ProcessBatch();
}

BatchReport SubscriptionService::DrainAdmissions() {
  if (live_ == nullptr) return BatchReport{};
  // The batch callback applies each intermediate batch as it happens.
  return live_->DrainAll();
}

Status SubscriptionService::ReplanNow() {
  QSP_RETURN_IF_ERROR(LiveGuard());
  const Status replanned = live_->ReplanNow();
  // Adopted or abandoned, the maintainer still has a valid plan —
  // reinstall whatever it serves now.
  BatchReport empty;
  ApplyBatch(empty);
  return replanned;
}

LiveStats SubscriptionService::live_stats() const {
  if (live_ == nullptr) return LiveStats{};
  return live_->Stats();
}

std::vector<QueryId> SubscriptionService::MirroredQueriesOf(
    ClientId client) const {
  std::lock_guard<std::mutex> lock(live_mu_);
  if (client >= clients_.num_clients()) return {};
  return clients_.QueriesOf(client);
}

Result<PlanReport> SubscriptionService::Plan() {
  if (live_ != nullptr) {
    return Status::FailedPrecondition(
        "live mode maintains its own plan; use ProcessAdmissions()/"
        "ReplanNow()");
  }
  if (queries_.empty()) {
    return Status::FailedPrecondition("no subscriptions to plan");
  }
  if (clients_.num_clients() == 0) {
    return Status::FailedPrecondition("no clients registered");
  }
  obs::ScopedSpan plan_span("plan");
  obs::ScopedTimer plan_timer("core.plan.latency_us");
  obs::Count("core.plan.runs");
  context_ = std::make_unique<MergeContext>(&queries_, estimator_.get(),
                                            procedure_.get());

  PlanReport report;
  report.initial_cost = config_.cost_model.InitialCost(*context_);
  if (config_.num_channels > 1) {
    // The multi-channel baseline is "everyone on one channel, nothing
    // merged", where every client checks every message (k_check term).
    report.initial_cost += config_.cost_model.k_check *
                           static_cast<double>(clients_.num_clients()) *
                           static_cast<double>(queries_.size());
  }
  plan_ = DisseminationPlan{};

  plan_group_shard_.clear();
  if (config_.num_channels <= 1) {
    // Basic broadcast model: all clients on one channel, one planner
    // run. Sharded parallel planning (DESIGN.md §12): per-shard merges
    // fan out across the exec pool, then the boundary pass reconciles
    // the seam-touching groups; shards == 1 delegates to the merger.
    const auto merger =
        MakeMerger(config_.merger, config_.seed, config_.pruning);
    const ShardedPlanner planner(
        merger.get(), ShardedPlanner::Options{.shards = config_.shards,
                                              .pruning = config_.pruning});
    Result<ShardedMergeOutcome> outcome =
        planner.Plan(*context_, config_.cost_model);
    if (!outcome.ok()) return outcome.status();
    MergeOutcome& merged = outcome.value().outcome;
    plan_.allocation.push_back(clients_.AllClients());
    plan_.channel_partitions.push_back(std::move(merged.partition));
    if (config_.shards > 1) {
      plan_group_shard_ = std::move(outcome.value().group_shard);
    }
    report.estimated_cost = merged.cost;
    report.bounds_refined = merged.bounds_refined;
    report.bounds_pruned = merged.bounds_pruned;
  } else {
    obs::ScopedSpan allocate_span("allocate");
    ChannelCostEvaluator evaluator(context_.get(), config_.cost_model,
                                   &clients_);
    HillClimbAllocator allocator(config_.allocation_policy, config_.seed);
    Result<AllocationOutcome> outcome =
        allocator.Allocate(evaluator, config_.num_channels);
    if (!outcome.ok()) return outcome.status();
    report.estimated_cost = outcome.value().cost;
    plan_.allocation = outcome.value().allocation;
    for (const auto& channel_clients : plan_.allocation) {
      MergeOutcome channel_outcome = evaluator.Plan(channel_clients);
      report.bounds_refined += channel_outcome.bounds_refined;
      report.bounds_pruned += channel_outcome.bounds_pruned;
      plan_.channel_partitions.push_back(std::move(channel_outcome.partition));
    }
  }

  for (const Partition& partition : plan_.channel_partitions) {
    report.num_groups += partition.size();
  }
  report.plan = plan_;
  has_plan_ = true;
  simulator_.reset();

  if (obs::Enabled()) {
    // The plan's predicted cost-model terms — the estimated counterparts
    // of the simulator's measured net.round.* metrics (the Stats() calls
    // hit the context's memo, so this re-walk is cheap).
    double est_messages = 0.0, est_size = 0.0, est_irrelevant = 0.0;
    for (const Partition& partition : plan_.channel_partitions) {
      for (const QueryGroup& group : partition) {
        const GroupStats& stats = context_->Stats(group);
        est_messages += stats.messages;
        est_size += stats.size;
        est_irrelevant += stats.irrelevant;
      }
    }
    obs::SetGauge("plan.est.messages", est_messages);
    obs::SetGauge("plan.est.size", est_size);
    obs::SetGauge("plan.est.irrelevant", est_irrelevant);
    obs::SetGauge("plan.est.cost", report.estimated_cost);
    obs::SetGauge("plan.est.initial_cost", report.initial_cost);
    obs::SetGauge("plan.num_groups", static_cast<double>(report.num_groups));
  }
  return report;
}

Result<RoundStats> SubscriptionService::RunRound() {
  // In live mode the background tick installs repaired plans and mutates
  // the ClientSet concurrently; the round holds live_mu_ end to end so
  // it executes under one consistent (plan, clients) snapshot. Uncontended
  // in one-shot mode.
  std::lock_guard<std::mutex> lock(live_mu_);
  if (!has_plan_) {
    return Status::FailedPrecondition("call Plan() before RunRound()");
  }
  // The simulator persists across rounds so that client caches carry
  // over (it is reset whenever a new plan is made).
  if (simulator_ == nullptr) {
    // The reliability path only engages when a fault can actually occur,
    // so a default FaultPolicy keeps rounds on the lossless fast path
    // (and existing figures byte-identical).
    std::optional<FaultPolicy> fault;
    if (config_.fault.Engaged()) fault = config_.fault;
    simulator_ = std::make_unique<MulticastSimulator>(
        &table_, index_.get(), &queries_, &clients_, config_.client_cache,
        /*verify_wire=*/false, std::move(fault));
  }
  obs::ScopedTimer round_timer("core.round.latency_us");
  return simulator_->RunRound(plan_, *procedure_, config_.extraction);
}

}  // namespace qsp
