#ifndef QSP_CORE_SUBSCRIPTION_SERVICE_H_
#define QSP_CORE_SUBSCRIPTION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "channel/client_set.h"
#include "channel/hill_climb_allocator.h"
#include "core/live_plan.h"
#include "cost/cost_model.h"
#include "geom/rect.h"
#include "merge/merger.h"
#include "net/fault_injector.h"
#include "net/message.h"
#include "net/simulator.h"
#include "obs/exporter.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "query/predicate.h"
#include "query/query.h"
#include "relation/spatial_index.h"
#include "relation/table.h"
#include "stats/size_estimator.h"
#include "util/status.h"

namespace qsp {

/// Which merging algorithm the planner runs (Section 6).
enum class MergerKind {
  kPairMerging,
  kDirectedSearch,
  kClustering,
  kPartitionExact,
};

/// Which merge procedure shapes merged queries (Figure 5).
enum class ProcedureKind {
  kBoundingRect,
  kBoundingPolygon,
  kExactCover,
};

/// Which size estimator feeds the cost model.
enum class EstimatorKind {
  kUniform,
  kHistogram,
  kExact,
};

/// The spatial access path the server evaluates merged queries with.
/// GridIndex is the only one; see ServiceConfig::index.
enum class IndexKind {
  kGrid,
};

/// Configuration of the subscription service.
struct ServiceConfig {
  CostModel cost_model;
  MergerKind merger = MergerKind::kPairMerging;
  ProcedureKind procedure = ProcedureKind::kBoundingRect;
  EstimatorKind estimator = EstimatorKind::kHistogram;
  /// Number of physical multicast channels (Section 7). 1 = the basic
  /// broadcast model of Section 4.
  int num_channels = 1;
  /// Start policy for the channel-allocation hill climber.
  StartPolicy allocation_policy = StartPolicy::kBestOfBoth;
  /// Enables the client-side answer cache (future-work extension).
  bool client_cache = false;
  /// Seed for the stochastic components (directed search, random starts).
  uint64_t seed = 42;
  /// Histogram resolution when estimator == kHistogram.
  int histogram_buckets = 32;
  /// Not read: merged queries are always evaluated on a GridIndex. Kept
  /// so existing configurations that assign it still compile.
  IndexKind index = IndexKind::kGrid;
  /// Extractor implementation (Section 3.1): clients re-apply their
  /// query, or the server tags payload objects.
  ExtractionMode extraction = ExtractionMode::kSelfExtract;
  /// Turns on the process-wide qsp::obs telemetry (metrics + phase
  /// tracing) at construction. Off by default: all instrumentation in the
  /// planner and simulator then reduces to a flag check.
  bool telemetry = false;
  /// Worker threads for the planner's parallel loops (profit-table
  /// construction, clustering bounds, search restarts) and the lossless
  /// broadcast, which delivers one channel per task; applied
  /// process-wide via qsp::exec at construction.
  /// 1 — the default — runs the exact serial code path (byte-identical
  /// to a build without the exec subsystem); any value N > 1 must return
  /// the same partitions and costs, only faster (DESIGN.md §7).
  int threads = 1;
  /// Planner acceleration (DESIGN.md §8): spatial candidate pruning and
  /// lazy bound→exact profit evaluation in the heuristic mergers. Off
  /// runs the same bounded loops with bounds that prune nothing, so every
  /// candidate is evaluated exactly. The planner's output — partitions,
  /// allocations, costs — is bit-identical with pruning on or off; only
  /// planning time and the number of exact group evaluations change.
  bool pruning = true;
  /// Sharded parallel planning (DESIGN.md §12–§13): with a value N > 1
  /// and a single channel, Plan() partitions the object space into ~N
  /// shards, plans each independently across the exec pool, then
  /// reconciles cross-shard merges with a boundary pass over the groups
  /// whose MBRs touch a shard seam. 1 — the default — makes the planner
  /// delegate to the configured merger: byte-identical partitions and
  /// costs, so every figure harness is untouched. Ignored with num_channels > 1
  /// (allocation already decomposes the problem). In live mode the
  /// incremental maintainer owns the steady-state plan, but from-scratch
  /// drift replans honor this knob (forwarded to LiveServiceConfig::
  /// shards when that is left at its default).
  int shards = 1;
  /// Loss model + recovery budget for the dissemination rounds
  /// (DESIGN.md §6). With the default all-zero policy the simulator runs
  /// the lossless path and every figure stays byte-identical; any nonzero
  /// rate routes rounds through the lossy channel and the bounded
  /// NACK/retransmission protocol.
  FaultPolicy fault;
  /// Service-mode metric sampling (DESIGN.md §10): with telemetry on, a
  /// nonzero interval, and a sink path set, the service runs an
  /// obs::PeriodicSampler for its lifetime, appending gauge/histogram-
  /// percentile rows to `sample_path` (JSONL) every `sample_interval_ms`.
  /// Both default off, so nothing in the one-shot figure harnesses
  /// changes.
  uint64_t sample_interval_ms = 0;
  std::string sample_path;
  /// Long-lived service loop (DESIGN.md §11): lease-based subscription
  /// lifetime, batched admission with backpressure, incremental plan
  /// repair under an SLO, and cost-drift replanning. Everything defaults
  /// off, so the one-shot Subscribe/Plan/RunRound flow — and every
  /// figure harness built on it — is untouched. Live mode requires
  /// num_channels == 1 (the basic broadcast model).
  LiveServiceConfig live;
};

/// Summary of a planning pass.
struct PlanReport {
  DisseminationPlan plan;
  /// Estimated total cost of the plan under the configured model.
  double estimated_cost = 0.0;
  /// Estimated cost of serving every query unmerged on one channel — the
  /// paper's Cost_initial baseline.
  double initial_cost = 0.0;
  /// Total merged groups across channels.
  size_t num_groups = 0;
  /// BenefitBounder effort accounting summed over every merge run the
  /// plan needed (one for single-channel, one per channel otherwise);
  /// zero when the configured merger does not use bounds. See
  /// MergeOutcome.
  uint64_t bounds_refined = 0;
  uint64_t bounds_pruned = 0;
};

/// The public facade: register clients and subscriptions, plan
/// (merge + allocate channels), and run dissemination rounds against the
/// in-memory database. See examples/quickstart.cc.
class SubscriptionService {
 public:
  /// Takes ownership of the database. `domain` must cover the positions
  /// used by queries and data.
  SubscriptionService(Table table, const Rect& domain, ServiceConfig config);
  ~SubscriptionService();

  SubscriptionService(const SubscriptionService&) = delete;
  SubscriptionService& operator=(const SubscriptionService&) = delete;

  /// Registers a client; returns its id.
  ClientId AddClient();

  /// Subscribes `client` to the geographic range `rect`; returns the
  /// query id. Re-plan after changing subscriptions. One-shot services
  /// only: on a live service it is a checked precondition failure (use
  /// SubscribeLeased).
  QueryId Subscribe(ClientId client, const Rect& rect);

  /// Subscribes via a SQL-ish selection predicate over the position
  /// columns, e.g. "longitude BETWEEN 2 AND 41 AND latitude <= 40".
  /// The predicate must reduce to one rectangle (a conjunction of
  /// comparisons on the position columns); see query/predicate.h.
  /// FailedPrecondition on a live service.
  Result<QueryId> SubscribeWhere(ClientId client,
                                 const std::string& predicate);

  /// Runs the configured merge algorithm (and, with more than one
  /// channel, the allocation heuristic) over the current subscriptions.
  Result<PlanReport> Plan();

  /// Executes one dissemination round under the most recent plan.
  /// Requires a successful Plan() first (or, in live mode, at least one
  /// ProcessAdmissions()).
  Result<RoundStats> RunRound();

  /// --- Live service mode (config.live.enabled; DESIGN.md §11). In
  /// live mode the service maintains its plan continuously: leases are
  /// granted and renewed, admissions batch through the incremental
  /// merger, and Plan() is rejected (the plan is never rebuilt wholesale
  /// behind the maintainer's back — use ReplanNow()).

  /// Leases a subscription for `client` (0 TTL = the configured
  /// default). The query joins the plan — and the client's ClientSet
  /// entry — at the next processed batch. Sheds with retryable
  /// ResourceExhausted under admission backpressure.
  Result<QueryId> SubscribeLeased(ClientId client, const Rect& rect,
                                  uint64_t ttl_ms = 0);

  /// Heartbeat; fails with kNotFound once the lease lapsed.
  Status RenewLease(QueryId id, uint64_t ttl_ms = 0);

  /// Voluntary departure of a leased subscription.
  Status Unsubscribe(QueryId id);

  /// Retires leases whose TTL elapsed; returns how many.
  size_t SweepExpired();

  /// Applies one admission batch (adds/removes + budgeted repair + the
  /// drift check). Every processed batch — explicit or driven by the
  /// background tick (live.sweep_interval_ms > 0) — flows through the
  /// maintainer's batch callback, which activates/retires ClientSet
  /// entries for placed and retired ids and installs the repaired
  /// partition as the round plan.
  BatchReport ProcessAdmissions();

  /// ProcessAdmissions until the admission queue drains.
  BatchReport DrainAdmissions();

  /// Synchronous from-scratch replan + adoption attempt; on abandonment
  /// the previous plan stays live and an error reports it.
  Status ReplanNow();

  LiveStats live_stats() const;

  /// Race-free snapshot of a client's mirrored subscriptions. With the
  /// background tick on, the ClientSet mutates on the ticker thread;
  /// this read synchronizes with that mirroring (the bare clients()
  /// accessor does not).
  std::vector<QueryId> MirroredQueriesOf(ClientId client) const;

  /// The live plan maintainer (null unless live mode is on); exposed for
  /// diagnostics (qsp_explain --live) and benches.
  const LivePlanManager* live() const { return live_.get(); }

  const Table& table() const { return table_; }
  const QuerySet& queries() const { return queries_; }
  const ClientSet& clients() const { return clients_; }
  const Rect& domain() const { return domain_; }
  const ServiceConfig& config() const { return config_; }

  /// The context/estimator pair backing the current plan (valid after
  /// Plan(); exposed for diagnostics and benches).
  const MergeContext* context() const { return context_.get(); }

  /// Shard attribution of the last Plan(): parallel to the single
  /// channel's partition, each entry the shard that produced the group
  /// (ShardedMergeOutcome::kSeamGroup for boundary-pass groups). Empty
  /// unless the last plan ran sharded (config.shards > 1). Consumed by
  /// the EXPLAIN path (qsp_explain --shards).
  const std::vector<int32_t>& plan_group_shard() const {
    return plan_group_shard_;
  }

 private:
  Table table_;
  Rect domain_;
  ServiceConfig config_;
  std::unique_ptr<SpatialIndex> index_;
  QuerySet queries_;
  ClientSet clients_;

  std::unique_ptr<SizeEstimator> estimator_;
  std::unique_ptr<MergeProcedure> procedure_;
  std::unique_ptr<MergeContext> context_;
  std::unique_ptr<MulticastSimulator> simulator_;
  /// Service-mode metric sampler; non-null only when the sampling knobs
  /// are set (see ServiceConfig::sample_interval_ms). Stopped by
  /// destruction order before the metrics it reads go away (the sampler
  /// reads the process-global registry, which outlives every service).
  std::unique_ptr<obs::PeriodicSampler> sampler_;
  bool has_plan_ = false;
  DisseminationPlan plan_;
  std::vector<int32_t> plan_group_shard_;

  /// Serializes facade state shared with the live background tick
  /// thread: ClientSet growth (AddClient), mirroring and plan
  /// installation (ApplyBatch, which runs on whatever thread processed
  /// the batch), owner_of_query_ growth in SubscribeLeased, and the
  /// plan_/clients_ reads of RunRound (a round runs under one
  /// consistent plan). Lock order: live_mu_
  /// before the maintainer's internal lock, never the reverse — the
  /// batch callback fires with the maintainer unlocked.
  mutable std::mutex live_mu_;
  /// Live mode only. Owner of each leased query, dense by QueryId, so a
  /// retirement knows whose ClientSet entry to drop.
  std::unique_ptr<LivePlanManager> live_;
  std::vector<ClientId> owner_of_query_;

  Status LiveGuard() const;
  /// Activates/retires ClientSet entries from a batch and installs the
  /// current live partition as the round plan. Registered as the
  /// maintainer's batch callback so background-tick batches mirror too.
  void ApplyBatch(const BatchReport& report);
};

/// Factory helpers shared with benches and tests.
std::unique_ptr<MergeProcedure> MakeProcedure(ProcedureKind kind);
std::unique_ptr<Merger> MakeMerger(MergerKind kind, uint64_t seed,
                                   bool pruning = true);

}  // namespace qsp

#endif  // QSP_CORE_SUBSCRIPTION_SERVICE_H_
