#include "traced.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "channel/channel_cost.h"
#include "channel/hill_climb_allocator.h"
#include "core/live_plan.h"
#include "core/subscription_service.h"
#include "merge/pair_merger.h"
#include "merge/sharded_planner.h"
#include "net/server.h"
#include "net/simulator.h"
#include "obs/clock.h"
#include "query/merge_context.h"
#include "relation/grid_index.h"
#include "stats/histogram_estimator.h"

namespace perfbench {

int Tracer::Begin(const std::string& name, bool probe) {
  const double now = NowSeconds();
  if (origin_s_ < 0.0) origin_s_ = now;
  Span span;
  span.name = name;
  span.start_us = (now - origin_s_) * 1e6;
  span.parent = open_.empty() ? -1 : open_.back();
  span.probe = probe;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_us = (NowSeconds() - origin_s_) * 1e6;
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::AddCall(CallLayer layer, double us, uint64_t rows) {
  if (open_.empty()) return;
  CallTotals& totals =
      spans_[static_cast<size_t>(open_.back())].calls[static_cast<int>(layer)];
  ++totals.calls;
  totals.us += us;
  totals.rows += rows;
}

Tracer::CallTotals Tracer::Subtree(int span, CallLayer layer) const {
  CallTotals sum;
  for (size_t i = static_cast<size_t>(span); i < spans_.size(); ++i) {
    // Spans are stored in start order, so a subtree is contiguous.
    int p = static_cast<int>(i);
    while (p != -1 && p != span) p = spans_[static_cast<size_t>(p)].parent;
    if (p != span) break;
    const CallTotals& c = spans_[i].calls[static_cast<int>(layer)];
    sum.calls += c.calls;
    sum.us += c.us;
    sum.rows += c.rows;
  }
  return sum;
}

bool Tracer::InsideProbe(int span) const {
  for (int p = span; p != -1; p = spans_[static_cast<size_t>(p)].parent) {
    if (spans_[static_cast<size_t>(p)].probe) return true;
  }
  return false;
}

Tracer::CallTotals Tracer::OutsideProbes(CallLayer layer) const {
  CallTotals sum;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (InsideProbe(static_cast<int>(i))) continue;
    const CallTotals& c = spans_[i].calls[static_cast<int>(layer)];
    sum.calls += c.calls;
    sum.us += c.us;
    sum.rows += c.rows;
  }
  return sum;
}

double Tracer::DurationUs(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.duration_us();
  }
  return total;
}

std::string Tracer::ToJson(const std::string& workload, int rep) const {
  static const char* kLayerNames[3] = {"stats", "query", "relation"};
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    JsonObject row;
    row.Add("workload", workload)
        .Add("rep", static_cast<uint64_t>(rep))
        .Add("id", static_cast<uint64_t>(i))
        .Add("name", span.name)
        .Add("start_us", span.start_us)
        .Add("end_us", span.end_us)
        .AddRaw("parent", std::to_string(span.parent))
        .Add("probe", span.probe);
    for (int l = 0; l < 3; ++l) {
      if (span.calls[l].calls == 0) continue;
      JsonObject calls;
      calls.Add("calls", span.calls[l].calls)
          .Add("us", span.calls[l].us)
          .Add("rows", span.calls[l].rows);
      row.AddRaw(kLayerNames[l], calls.str());
    }
    if (i > 0) out += ",\n";
    out += row.str();
  }
  return out + "]";
}

double TimedEstimator::EstimateSize(const qsp::Rect& rect) const {
  const double start = NowSeconds();
  const double size = inner_->EstimateSize(rect);
  tracer_->AddCall(CallLayer::kEstimator, (NowSeconds() - start) * 1e6, 0);
  return size;
}

double TimedEstimator::EstimateRegionSize(
    const std::vector<qsp::Rect>& pieces) const {
  const double start = NowSeconds();
  const double size = inner_->EstimateRegionSize(pieces);
  tracer_->AddCall(CallLayer::kEstimator, (NowSeconds() - start) * 1e6, 0);
  return size;
}

std::vector<qsp::MergedQuery> TimedProcedure::Merge(
    const qsp::QuerySet& queries, const qsp::QueryGroup& group) const {
  const double start = NowSeconds();
  std::vector<qsp::MergedQuery> merged = inner_->Merge(queries, group);
  tracer_->AddCall(CallLayer::kProcedure, (NowSeconds() - start) * 1e6, 0);
  return merged;
}

std::vector<qsp::RowId> TimedIndex::Query(const qsp::Rect& rect) const {
  const double start = NowSeconds();
  std::vector<qsp::RowId> rows = inner_->Query(rect);
  tracer_->AddCall(CallLayer::kIndex, (NowSeconds() - start) * 1e6,
                   rows.size());
  return rows;
}

size_t TimedIndex::Count(const qsp::Rect& rect) const {
  const double start = NowSeconds();
  const size_t count = inner_->Count(rect);
  tracer_->AddCall(CallLayer::kIndex, (NowSeconds() - start) * 1e6, 0);
  return count;
}

namespace {

/// The program objects every traced workload builds in its set-up.
struct Built {
  std::unique_ptr<qsp::Table> table;
  std::unique_ptr<qsp::GridIndex> index;
  std::unique_ptr<qsp::HistogramEstimator> estimator;
  qsp::BoundingRectProcedure procedure;
  qsp::QuerySet queries;
  qsp::ClientSet clients;
};

/// Ingest, index and histogram, in the order the service constructor
/// builds them.
void BuildStorage(const Inputs& inputs, const qsp::ServiceConfig& config,
                  Tracer* tr, Built* built) {
  {
    ScopedSpan span(tr, "relation.ingest");
    built->table = std::make_unique<qsp::Table>(IngestRows(inputs.rows));
  }
  {
    ScopedSpan span(tr, "relation.index_build");
    built->index = std::make_unique<qsp::GridIndex>(*built->table, Domain());
  }
  {
    ScopedSpan span(tr, "stats.build");
    built->estimator = std::make_unique<qsp::HistogramEstimator>(
        *built->table, Domain(), config.histogram_buckets,
        config.histogram_buckets);
  }
}

struct MergeCounters {
  double candidates = 0;
  double refined = 0;
  double pruned = 0;
  void Add(const qsp::MergeOutcome& outcome) {
    candidates += static_cast<double>(outcome.candidates);
    refined += static_cast<double>(outcome.bounds_refined);
    pruned += static_cast<double>(outcome.bounds_pruned);
  }
};

/// Round-path metrics: one execute probe and one RunRound per round.
struct RoundRecorder {
  double rounds = 0;
  double execute_us = 0;
  double round_self_us = 0;
  Tracer::CallTotals index;
  double messages = 0, payload_rows = 0, irrelevant_rows = 0, rows_examined = 0;

  qsp::Result<qsp::RoundStats> Run(Tracer* tr, const qsp::Server& server,
                                   qsp::MulticastSimulator* sim,
                                   const qsp::DisseminationPlan& plan,
                                   const qsp::MergeProcedure& procedure,
                                   RepOutcome* out) {
    // Server::ExecuteRound runs inside RunRound where the benchmark
    // cannot time it, so the probe runs it once more on its own.
    const int probe = tr->Begin("net.execute", /*probe=*/true);
    const size_t probe_messages = server.ExecuteRound(plan, procedure).size();
    tr->End(probe);
    execute_us += tr->spans()[static_cast<size_t>(probe)].duration_us();
    const int id = tr->Begin("net.round");
    qsp::Result<qsp::RoundStats> round = sim->RunRound(plan, procedure);
    tr->End(id);
    const Tracer::Span& s = tr->spans()[static_cast<size_t>(id)];
    const Tracer::CallTotals idx = tr->Subtree(id, CallLayer::kIndex);
    const Tracer::CallTotals proc = tr->Subtree(id, CallLayer::kProcedure);
    const Tracer::CallTotals est = tr->Subtree(id, CallLayer::kEstimator);
    const double ms = s.duration_us() / 1e3;
    out->round_ms.push_back(ms);
    out->steps_s += ms / 1e3;
    round_self_us += s.duration_us() - idx.us - proc.us - est.us;
    index.calls += idx.calls;
    index.us += idx.us;
    index.rows += idx.rows;
    rounds += 1;
    const qsp::RoundStats& st = round.value();
    messages += static_cast<double>(st.num_messages);
    payload_rows += static_cast<double>(st.payload_rows);
    irrelevant_rows += static_cast<double>(st.irrelevant_rows);
    rows_examined += static_cast<double>(st.rows_examined);
    if (probe_messages != st.num_messages) {
      out->check_failures.push_back(
          "execute probe and RunRound disagree on the message count");
    }
    return round;
  }

  void Report(std::map<std::string, double>* layer) const {
    const double n = rounds > 0 ? rounds : 1;
    (*layer)["relation.query_calls"] = static_cast<double>(index.calls) / n;
    (*layer)["relation.query_ms"] = index.us / 1e3 / n;
    (*layer)["relation.rows_returned"] = static_cast<double>(index.rows) / n;
    (*layer)["net.execute_ms"] = execute_us / 1e3 / n;
    (*layer)["net.round_self_ms"] = round_self_us / 1e3 / n;
    (*layer)["net.messages"] = messages / n;
    (*layer)["net.payload_rows"] = payload_rows / n;
    (*layer)["net.irrelevant_rows"] = irrelevant_rows / n;
    (*layer)["net.rows_examined"] = rows_examined / n;
  }
};

/// Set-up metrics are per set-up; the rest are totals over the
/// repetition, except the per-round ones RoundRecorder reports.
void ReportLayerTotals(const Tracer& tr, int setups,
                       std::map<std::string, double>* layer) {
  const Tracer::CallTotals est = tr.OutsideProbes(CallLayer::kEstimator);
  const Tracer::CallTotals proc = tr.OutsideProbes(CallLayer::kProcedure);
  const double per_setup = 1e3 * static_cast<double>(setups);
  (*layer)["relation.ingest_ms"] = tr.DurationUs("relation.ingest") / per_setup;
  (*layer)["relation.index_build_ms"] =
      tr.DurationUs("relation.index_build") / per_setup;
  (*layer)["stats.build_ms"] = tr.DurationUs("stats.build") / per_setup;
  (*layer)["core.seed_ms"] = tr.DurationUs("core.seed") / per_setup;
  (*layer)["stats.estimate_calls"] = static_cast<double>(est.calls);
  (*layer)["stats.estimate_ms"] = est.us / 1e3;
  (*layer)["query.procedure_calls"] = static_cast<double>(proc.calls);
  (*layer)["query.procedure_ms"] = proc.us / 1e3;
  (*layer)["channel.allocate_ms"] = tr.DurationUs("channel.allocate") / 1e3;
  double plan_us = 0.0;
  double self_us = 0.0;
  for (size_t i = 0; i < tr.spans().size(); ++i) {
    const Tracer::Span& span = tr.spans()[i];
    if (span.name != "merge.plan") continue;
    const int id = static_cast<int>(i);
    plan_us += span.duration_us();
    self_us += span.duration_us() -
               tr.Subtree(id, CallLayer::kEstimator).us -
               tr.Subtree(id, CallLayer::kProcedure).us;
  }
  (*layer)["merge.plan_ms"] = plan_us / 1e3;
  (*layer)["merge.self_ms"] = self_us / 1e3;
}

void ReportMerge(const MergeCounters& merge, double groups,
                 std::map<std::string, double>* layer) {
  (*layer)["merge.candidates"] = merge.candidates;
  (*layer)["merge.bounds_refined"] = merge.refined;
  (*layer)["merge.bounds_pruned"] = merge.pruned;
  const double bounded = merge.refined + merge.pruned;
  (*layer)["merge.refine_ratio"] = bounded > 0 ? merge.refined / bounded : 0.0;
  (*layer)["merge.groups"] = groups;
}

TracedRep RunOneShotTraced(const WorkloadSpec& spec, const Inputs& inputs,
                           int rep) {
  TracedRep result;
  RepOutcome& out = result.outcome;
  Tracer tr;
  Digest digest;
  const qsp::ServiceConfig config = ServiceFor(spec, nullptr);
  Built b;
  const int root = tr.Begin("rep");

  double setup_us = 0.0;
  for (int s = 0; s < spec.setup_batch; ++s) {
    b = Built{};  // tear-down is not part of set-up
    const int setup = tr.Begin("setup");
    BuildStorage(inputs, config, &tr, &b);
    {
      ScopedSpan seed(&tr, "core.seed");
      for (size_t c = 0; c < spec.clients; ++c) b.clients.AddClient();
      for (size_t i = 0; i < inputs.rects.size(); ++i) {
        b.clients.Subscribe(inputs.owners[i], b.queries.Add(inputs.rects[i]));
      }
    }
    tr.End(setup);
    setup_us += tr.spans()[static_cast<size_t>(setup)].duration_us();
  }
  out.setup_s.push_back(setup_us / 1e6 / spec.setup_batch);
  out.steps_s += out.setup_s.back();
  const TimedEstimator estimator(b.estimator.get(), &tr);
  const TimedProcedure procedure(&b.procedure, &tr);
  const TimedIndex index(b.index.get(), &tr);

  // Plan(), as the facade runs it.
  qsp::DisseminationPlan plan;
  double estimated = 0.0;
  double initial = 0.0;
  MergeCounters merge;
  std::unique_ptr<qsp::MergeContext> ctx;
  bool planned = true;
  {
    ScopedSpan plan_span(&tr, "plan");
    ctx = std::make_unique<qsp::MergeContext>(&b.queries, &estimator,
                                              &procedure);
    initial = config.cost_model.InitialCost(*ctx);
    if (config.num_channels <= 1) {
      const auto merger = qsp::MakeMerger(config.merger, config.seed,
                                          config.pruning);
      qsp::Result<qsp::MergeOutcome> outcome = qsp::MergeOutcome{};
      {
        ScopedSpan span(&tr, "merge.plan");
        outcome = merger->Merge(*ctx, config.cost_model);
      }
      {
        ScopedSpan span(&tr, "channel.allocate");
        plan.allocation.push_back(b.clients.AllClients());
      }
      if (outcome.ok()) {
        plan.channel_partitions.push_back(outcome.value().partition);
        estimated = outcome.value().cost;
        merge.Add(outcome.value());
      } else {
        planned = false;
      }
    } else {
      initial += config.cost_model.k_check *
                 static_cast<double>(b.clients.num_clients()) *
                 static_cast<double>(b.queries.size());
      const qsp::ChannelCostEvaluator evaluator(ctx.get(), config.cost_model,
                                                &b.clients);
      const qsp::HillClimbAllocator allocator(config.allocation_policy,
                                              config.seed);
      qsp::Result<qsp::AllocationOutcome> outcome = qsp::AllocationOutcome{};
      {
        ScopedSpan span(&tr, "channel.allocate");
        outcome = allocator.Allocate(evaluator, config.num_channels);
      }
      if (outcome.ok()) {
        estimated = outcome.value().cost;
        plan.allocation = outcome.value().allocation;
        for (const auto& channel_clients : plan.allocation) {
          ScopedSpan span(&tr, "merge.plan");
          qsp::MergeOutcome channel = evaluator.Plan(channel_clients);
          merge.Add(channel);
          plan.channel_partitions.push_back(std::move(channel.partition));
        }
      } else {
        planned = false;
      }
      result.layer["channel.evaluations"] =
          static_cast<double>(evaluator.evaluations());
    }
  }
  out.plan_s.push_back(tr.DurationUs("plan") / 1e6);
  out.plans.Record(planned);
  out.steps_s += out.plan_s.back();
  if (!planned) {
    out.check_failures.push_back("plan failed");
    out.digest = digest.value();
    tr.End(root);
    return result;
  }
  size_t groups = 0;
  for (const qsp::Partition& p : plan.channel_partitions) groups += p.size();
  out.groups = groups;
  out.plan_cost_ratio = estimated / initial;
  const std::string failure = CheckOneShotPlan(
      plan, estimated, initial, b.queries, b.clients, *b.estimator,
      b.procedure, config.cost_model);
  if (!failure.empty()) out.check_failures.push_back(failure);
  MixPlan(plan, &digest);
  digest.MixDouble(estimated);
  digest.MixDouble(initial);
  result.layer["query.group_evals"] = static_cast<double>(ctx->groups_evaluated());
  result.layer["query.group_arena_mb"] =
      static_cast<double>(ctx->group_arena_bytes()) / 1e6;

  qsp::MulticastSimulator sim(b.table.get(), &index, &b.queries, &b.clients);
  const qsp::Server server(b.table.get(), &index, &b.queries, &b.clients);
  RoundRecorder recorder;
  for (int r = 0; r < spec.rounds; ++r) {
    qsp::Result<qsp::RoundStats> round =
        recorder.Run(&tr, server, &sim, plan, procedure, &out);
    out.rounds.Record(RoundOk(round));
    out.round_mb.push_back(RoundMb(round));
    digest.MixRound(round);
  }
  out.digest = digest.value();
  tr.End(root);

  recorder.Report(&result.layer);
  ReportLayerTotals(tr, spec.setup_batch, &result.layer);
  ReportMerge(merge, static_cast<double>(groups), &result.layer);
  result.layer["merge.shard_imbalance"] = 0.0;  // unsharded: nothing to balance
  result.layer["merge.seam_merges"] = 0.0;
  result.layer.try_emplace("channel.evaluations", 0.0);
  for (const char* name : {"core.batch_evals", "core.repair_moves",
                           "core.replans", "core.replan_evals"}) {
    result.layer[name] = 0.0;
  }
  result.spans_json = tr.ToJson(spec.name, rep);
  return result;
}

TracedRep RunLiveTraced(const WorkloadSpec& spec, const Inputs& inputs,
                        uint64_t seed, int rep) {
  TracedRep result;
  RepOutcome& out = result.outcome;
  Tracer tr;
  Digest digest;
  qsp::obs::FakeClock control_clock(/*tick_us=*/0.0);
  const qsp::ServiceConfig config = ServiceFor(spec, &control_clock);
  const qsp::CostModel& model = config.cost_model;
  ChurnDriver driver(spec, seed);
  Built b;
  const int root = tr.Begin("rep");

  std::optional<TimedEstimator> estimator;
  std::optional<TimedProcedure> procedure;
  std::optional<TimedIndex> index;
  std::unique_ptr<qsp::MergeContext> ctx;
  std::unique_ptr<qsp::LivePlanManager> live;
  std::vector<qsp::ClientId> owner_of;
  qsp::DisseminationPlan plan;

  // What SubscriptionService::ApplyBatch does: mirror placed and retired
  // ids into the ClientSet and install the live partition as the plan.
  auto apply = [&](const qsp::BatchReport& report) {
    for (qsp::QueryId id : report.placed) b.clients.Subscribe(owner_of[id], id);
    for (qsp::QueryId id : report.retired) b.clients.Unsubscribe(owner_of[id], id);
    plan = qsp::DisseminationPlan{};
    {
      ScopedSpan span(&tr, "channel.allocate");
      plan.allocation.push_back(b.clients.AllClients());
    }
    plan.channel_partitions.push_back(live->PlanSnapshot());
  };
  auto subscribe = [&](const qsp::Rect& rect, uint32_t owner) {
    qsp::Result<qsp::QueryId> id = live->Subscribe(rect);
    out.admits.Record(id.ok());
    if (!id.ok()) return;
    if (owner_of.size() <= id.value()) owner_of.resize(id.value() + 1, 0);
    owner_of[id.value()] = owner;
    driver.Held(id.value());
  };
  auto check = [&] {
    const std::string failure = CheckLivePlan(*live, b.queries, *b.estimator,
                                              b.procedure, model);
    if (!failure.empty()) out.check_failures.push_back(failure);
  };

  {
    ScopedSpan setup(&tr, "setup");
    BuildStorage(inputs, config, &tr, &b);
    estimator.emplace(b.estimator.get(), &tr);
    procedure.emplace(&b.procedure, &tr);
    index.emplace(b.index.get(), &tr);
    ctx = std::make_unique<qsp::MergeContext>(&b.queries, &*estimator,
                                              &*procedure);
    qsp::LiveServiceConfig options = config.live;
    if (options.shards <= 1) options.shards = config.shards;
    live = std::make_unique<qsp::LivePlanManager>(&b.queries, ctx.get(), model,
                                                  options);
    live->SetBatchCallback(apply);
    ScopedSpan seed_span(&tr, "core.seed");
    for (size_t c = 0; c < spec.clients; ++c) b.clients.AddClient();
    for (size_t i = 0; i < inputs.rects.size(); ++i) {
      subscribe(inputs.rects[i], inputs.owners[i]);
    }
    const qsp::BatchReport seeded = live->DrainAll();
    driver.Retired(seeded.retired);
    MixBatch(seeded, &digest);
  }
  out.setup_s.push_back(tr.DurationUs("setup") / 1e6);
  check();

  // The from-scratch plan ReplanNow makes, observed through the same
  // ShardedPlanner call on a dense snapshot of the live subscriptions.
  MergeCounters merge;
  qsp::Partition probe_plan;
  {
    ScopedSpan span(&tr, "merge.plan", /*probe=*/true);
    const std::vector<qsp::QueryId> ids = live->LiveIds();
    qsp::QuerySet snapshot;
    for (qsp::QueryId id : ids) snapshot.Add(b.queries.rect(id));
    const qsp::MergeContext snapshot_ctx(&snapshot, &*estimator, &*procedure);
    const qsp::PairMerger inner(/*use_heap=*/true, config.live.replan_pruning);
    const qsp::ShardedPlanner planner(
        &inner, qsp::ShardedPlanner::Options{std::max(1, config.shards),
                                             qsp::ShardAssign::kBalanced,
                                             config.live.replan_pruning});
    qsp::Result<qsp::ShardedMergeOutcome> sharded =
        planner.Plan(snapshot_ctx, model);
    if (sharded.ok()) {
      merge.Add(sharded.value().outcome);
      result.layer["merge.shard_imbalance"] = sharded.value().imbalance;
      result.layer["merge.seam_merges"] =
          static_cast<double>(sharded.value().seam_merges);
      for (const qsp::QueryGroup& group : sharded.value().outcome.partition) {
        qsp::QueryGroup mapped;
        for (qsp::QueryId q : group) mapped.push_back(ids[q]);
        probe_plan.push_back(std::move(mapped));
      }
    } else {
      out.check_failures.push_back("sharded probe plan failed");
    }
  }
  out.steps_s = out.setup_s.back();
  auto replan = [&] {
    const int span = tr.Begin("plan");
    const qsp::Status replanned = live->ReplanNow();
    apply(qsp::BatchReport{});
    tr.End(span);
    out.plan_s.push_back(tr.spans()[static_cast<size_t>(span)].duration_us() / 1e6);
    out.plans.Record(replanned.ok());
    out.steps_s += out.plan_s.back();
    digest.Mix(replanned.ok() ? 1 : 0);
    digest.MixPartition(live->PlanSnapshot());
    check();
    return replanned.ok();
  };
  if (replan()) {
    qsp::Partition adopted = live->PlanSnapshot();
    qsp::CanonicalizePartition(&adopted);
    qsp::CanonicalizePartition(&probe_plan);
    if (adopted != probe_plan) {
      out.check_failures.push_back(
          "sharded probe differs from the plan ReplanNow adopted");
    }
  }

  qsp::MulticastSimulator sim(b.table.get(), &*index, &b.queries, &b.clients);
  const qsp::Server server(b.table.get(), &*index, &b.queries, &b.clients);
  RoundRecorder recorder;
  double batch_evals = 0, repair_moves = 0, replans = 0, replan_evals = 0;
  for (int t = 0; t < spec.ticks; ++t) {
    if (t > 0 && t % ReplanEvery(spec) == 0) replan();  // t == 0 ran above
    control_clock.AdvanceMicros(spec.tick_us);
    digest.Mix(live->SweepExpired());
    const ChurnDriver::Tick tick = driver.Next();
    for (qsp::QueryId id : tick.renew) {
      digest.Mix(live->Renew(id).ok() ? 1 : 0);
    }
    size_t departed = 0;
    for (qsp::QueryId id : tick.depart) {
      if (departed == spec.departures) break;
      if (live->Unsubscribe(id).ok()) ++departed;
    }
    digest.Mix(departed);
    for (const auto& [rect, owner] : tick.arrive) subscribe(rect, owner);

    qsp::BatchReport batch;
    const int drain = tr.Begin("core.drain");
    batch = live->DrainAll();
    tr.End(drain);
    const double drain_ms =
        tr.spans()[static_cast<size_t>(drain)].duration_us() / 1e3;
    out.admit_ms.push_back(drain_ms);
    out.steps_s += drain_ms / 1e3;
    driver.Retired(batch.retired);
    MixBatch(batch, &digest);
    batch_evals += static_cast<double>(batch.evaluations);
    repair_moves += batch.repair_moves;
    replan_evals += static_cast<double>(batch.replan_evaluations);
    if (batch.replan_adopted) {
      replans += 1;
      ++out.replans;
    }
    check();

    qsp::Result<qsp::RoundStats> round =
        recorder.Run(&tr, server, &sim, plan, *procedure, &out);
    out.rounds.Record(RoundOk(round));
    out.round_mb.push_back(RoundMb(round));
    digest.MixRound(round);
  }
  out.groups = live->PlanSnapshot().size();
  out.plan_cost_ratio =
      LiveCostRatio(*live, b.queries, *b.estimator, b.procedure, model);
  if (!(out.plan_cost_ratio <= 1.0)) {
    out.check_failures.push_back("plan_cost_ratio exceeds 1");
  }
  digest.MixDouble(live->cost());
  out.digest = digest.value();
  tr.End(root);

  recorder.Report(&result.layer);
  ReportLayerTotals(tr, 1, &result.layer);
  ReportMerge(merge, static_cast<double>(out.groups), &result.layer);
  result.layer["query.group_evals"] = static_cast<double>(ctx->groups_evaluated());
  result.layer["query.group_arena_mb"] =
      static_cast<double>(ctx->group_arena_bytes()) / 1e6;
  result.layer["channel.evaluations"] = 0.0;
  result.layer["core.batch_evals"] = batch_evals;
  result.layer["core.repair_moves"] = repair_moves;
  result.layer["core.replans"] = replans;
  result.layer["core.replan_evals"] = replan_evals;
  result.layer.try_emplace("merge.shard_imbalance", 0.0);
  result.layer.try_emplace("merge.seam_merges", 0.0);
  result.spans_json = tr.ToJson(spec.name, rep);
  live->SetBatchCallback({});
  return result;
}

}  // namespace

TracedRep RunTracedRep(const WorkloadSpec& spec, const Inputs& inputs,
                       uint64_t seed, int rep) {
  return spec.live ? RunLiveTraced(spec, inputs, seed, rep)
                   : RunOneShotTraced(spec, inputs, rep);
}

}  // namespace perfbench
