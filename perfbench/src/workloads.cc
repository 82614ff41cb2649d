#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "channel/channel_cost.h"
#include "query/merge_context.h"

namespace perfbench {

namespace {

// Cost constants of Fig. 16 (K_M 10, K_T 9, K_U 4; k_check 3 as in the
// allocation experiments) were chosen for a density of 0.0005 answer
// units per unit of area. The histogram estimator counts tuples, so K_M
// and k_check scale with the table's density to keep merge decisions in
// the figures' regime.
double DensityScale(size_t num_objects) {
  const double area = Domain().Area();
  return static_cast<double>(num_objects) / area / 0.0005;
}

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec dispersed;
  dispersed.name = "plan-dispersed";
  dispersed.subscription_seed = 1;
  dispersed.num_objects = 100000;
  dispersed.shape = QueryShape{0.2, 0.25, 0.002, 0.01};
  dispersed.subscriptions = 3000;
  dispersed.clients = 64;
  dispersed.model = qsp::CostModel{10.0 * DensityScale(100000), 9.0, 4.0,
                                   0.0, 0.0};
  dispersed.rounds = 13;
  dispersed.min_reps = 8;
  dispersed.rep_seconds = 4.0;
  dispersed.setup_batch = 2;
  dispersed.extra_setups = 6;
  out.push_back(dispersed);

  WorkloadSpec rounds;
  rounds.name = "rounds-3ch";
  rounds.subscription_seed = 2;
  rounds.num_objects = 200000;
  rounds.shape = QueryShape{0.8, 0.03, 0.02, 0.10};
  rounds.subscriptions = 400;
  rounds.clients = 12;
  rounds.locality = true;
  rounds.channels = 3;
  rounds.model = qsp::CostModel{10.0 * DensityScale(200000), 9.0, 4.0, 0.0,
                                3.0 * DensityScale(200000)};
  rounds.rounds = 13;
  rounds.min_reps = 8;
  rounds.rep_seconds = 4.0;
  rounds.extra_setups = 6;
  out.push_back(rounds);

  WorkloadSpec churn;
  churn.name = "live-churn";
  churn.subscription_seed = 3;
  churn.num_objects = 50000;
  churn.shape = QueryShape{0.8, 0.03, 0.02, 0.10};
  churn.subscriptions = 2000;
  churn.clients = 64;
  // sim/churn's K_T 1 and K_U 0.5.
  churn.model = qsp::CostModel{10.0 * DensityScale(50000), 1.0, 0.5, 0.0, 0.0};
  churn.min_reps = 3;
  churn.rep_seconds = 14.0;
  churn.extra_setups = 2;
  churn.plans = 4;
  churn.live = true;
  churn.ticks = 36;
  churn.arrivals = 32;
  churn.departures = 32;
  churn.heartbeat_skip = 0.002;
  churn.shards = 8;
  out.push_back(churn);
  return out;
}

bool SameCostWithin(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = BuildWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int Repetitions(const WorkloadSpec& spec, double seconds) {
  const auto nominal = static_cast<int>(std::lround(seconds / spec.rep_seconds));
  return std::max(spec.min_reps, nominal);
}

int InstanceOf(int rep, int reps) { return reps >= 3 ? rep % (reps - 1) : rep; }

uint64_t InstanceSeed(uint64_t seed, int instance) {
  return seed ^ (static_cast<uint64_t>(instance) * 0x9e3779b97f4a7c15ULL);
}

std::vector<int> SpreadEvenly(int count, int steps) {
  std::vector<int> at;
  for (int k = 1; k <= count; ++k) at.push_back(k * steps / (count + 1));
  return at;
}

qsp::ServiceConfig ServiceFor(const WorkloadSpec& spec, qsp::obs::Clock* clock) {
  qsp::ServiceConfig config;
  config.cost_model = spec.model;
  config.merger = qsp::MergerKind::kPairMerging;
  config.procedure = qsp::ProcedureKind::kBoundingRect;
  config.estimator = qsp::EstimatorKind::kHistogram;
  config.index = qsp::IndexKind::kGrid;
  config.num_channels = spec.channels;
  config.threads = 1;
  config.telemetry = false;
  config.shards = spec.shards;
  if (spec.live) {
    config.live.enabled = true;
    config.live.default_ttl_ms = spec.ttl_ms;
    config.live.repair_max_moves = 8;
    config.live.repair_deadline_us = 0;
    config.live.replan_drift_factor = 1.25;
    config.live.drift_check_every_batches = 8;
    config.live.replan_background = false;
    config.live.clock = clock;
  }
  return config;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  inputs.rows = GenerateRows(spec.num_objects, seed);
  Rng rng(spec.subscription_seed, /*stream=*/2);
  inputs.rects = GenerateRects(spec.shape, spec.subscriptions, &rng);
  if (spec.locality) {
    inputs.owners = LocalityOwners(inputs.rects, spec.clients);
  } else {
    inputs.owners.resize(inputs.rects.size());
    for (size_t i = 0; i < inputs.owners.size(); ++i) {
      inputs.owners[i] = static_cast<uint32_t>(i % spec.clients);
    }
  }
  return inputs;
}

ChurnDriver::ChurnDriver(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      rng_(seed, /*stream=*/3),
      rect_rng_(spec.subscription_seed, /*stream=*/4),
      slot_(spec.subscriptions) {}

ChurnDriver::Tick ChurnDriver::Next() {
  Tick tick;
  for (qsp::QueryId id = 0; id < held_.size(); ++id) {
    if (!held_[id]) continue;
    if (rng_.Bernoulli(spec_.heartbeat_skip)) continue;
    tick.renew.push_back(id);
  }
  // Oldest first; a few spare candidates cover leases that expired at
  // this tick's sweep (their Unsubscribe fails and the next one goes).
  for (qsp::QueryId id : order_) {
    if (tick.depart.size() >= 2 * spec_.departures + 16) break;
    if (held_[id]) tick.depart.push_back(id);
  }
  for (size_t i = 0; i < spec_.arrivals; ++i) {
    const qsp::Rect rect = DrawRect(spec_.shape, slot_++, &rect_rng_);
    const auto owner = static_cast<uint32_t>(rng_.Below(spec_.clients));
    tick.arrive.emplace_back(rect, owner);
  }
  return tick;
}

void ChurnDriver::Held(qsp::QueryId id) {
  if (held_.size() <= id) held_.resize(id + 1, false);
  held_[id] = true;
  order_.push_back(id);
}

void ChurnDriver::Retired(const std::vector<qsp::QueryId>& ids) {
  for (qsp::QueryId id : ids) {
    if (id < held_.size()) held_[id] = false;
  }
  while (!order_.empty() && !held_[order_.front()]) order_.pop_front();
}

std::string CheckOneShotPlan(const qsp::DisseminationPlan& plan,
                             double estimated_cost, double initial_cost,
                             const qsp::QuerySet& queries,
                             const qsp::ClientSet& clients,
                             const qsp::SizeEstimator& estimator,
                             const qsp::MergeProcedure& procedure,
                             const qsp::CostModel& model) {
  if (plan.allocation.size() != plan.channel_partitions.size()) {
    return "allocation and partitions differ in channel count";
  }
  qsp::Partition all;
  for (size_t ch = 0; ch < plan.allocation.size(); ++ch) {
    const qsp::Partition& part = plan.channel_partitions[ch];
    if (!CoversExactly(part, clients.QueriesOfClients(plan.allocation[ch]))) {
      return "channel " + std::to_string(ch) +
             " partition does not cover its clients' subscriptions";
    }
    all.insert(all.end(), part.begin(), part.end());
  }
  if (!CoversExactly(all, queries.AllIds())) {
    return "plan is not a partition of the registered subscriptions";
  }
  const qsp::MergeContext fresh(&queries, &estimator, &procedure);
  double recomputed = 0.0;
  if (plan.allocation.size() == 1) {
    recomputed = model.PartitionCost(fresh, plan.channel_partitions[0]);
  } else {
    const qsp::ChannelCostEvaluator evaluator(&fresh, model, &clients);
    size_t used = 0;
    for (size_t ch = 0; ch < plan.allocation.size(); ++ch) {
      if (plan.allocation[ch].empty()) continue;
      ++used;
      recomputed += evaluator.ChannelModel(plan.allocation[ch])
                        .PartitionCost(fresh, plan.channel_partitions[ch]);
    }
    recomputed += model.k_d * static_cast<double>(used);
  }
  if (!SameCostWithin(recomputed, estimated_cost, 1e-9)) {
    return "plan cost differs from PartitionCost on a fresh context";
  }
  if (!(estimated_cost <= initial_cost)) return "plan_cost_ratio exceeds 1";
  return "";
}

std::string CheckLivePlan(const qsp::LivePlanManager& live,
                          const qsp::QuerySet& queries,
                          const qsp::SizeEstimator& estimator,
                          const qsp::MergeProcedure& procedure,
                          const qsp::CostModel& model) {
  const qsp::Partition snapshot = live.PlanSnapshot();
  if (!CoversExactly(snapshot, live.LiveIds())) {
    return "drained partition does not cover exactly the live leases";
  }
  const qsp::MergeContext fresh(&queries, &estimator, &procedure);
  // The maintained cost is updated incrementally, so it may differ from
  // a recomputation by summation order; sim/churn allows 1e-6.
  if (!SameCostWithin(live.cost(), model.PartitionCost(fresh, snapshot), 1e-6)) {
    return "maintained cost differs from a recomputation";
  }
  return "";
}

double LiveCostRatio(const qsp::LivePlanManager& live,
                     const qsp::QuerySet& queries,
                     const qsp::SizeEstimator& estimator,
                     const qsp::MergeProcedure& procedure,
                     const qsp::CostModel& model) {
  qsp::QuerySet snapshot;
  for (qsp::QueryId id : live.LiveIds()) snapshot.Add(queries.rect(id));
  const qsp::MergeContext ctx(&snapshot, &estimator, &procedure);
  const double initial = model.InitialCost(ctx);
  return initial > 0.0 ? live.cost() / initial : 0.0;
}

void MixPlan(const qsp::DisseminationPlan& plan, Digest* digest) {
  digest->Mix(plan.allocation.size());
  for (const auto& channel : plan.allocation) {
    digest->Mix(channel.size());
    for (qsp::ClientId c : channel) digest->Mix(c);
  }
  for (const qsp::Partition& partition : plan.channel_partitions) {
    digest->MixPartition(partition);
  }
}

void MixBatch(const qsp::BatchReport& report, Digest* digest) {
  digest->Mix(report.admitted);
  digest->Mix(report.removed);
  for (qsp::QueryId id : report.placed) digest->Mix(id);
  for (qsp::QueryId id : report.retired) digest->Mix(id);
  digest->Mix(static_cast<uint64_t>(report.repair_moves));
  digest->Mix(report.evaluations);
  digest->MixDouble(report.cost);
  digest->MixDouble(report.bound);
  digest->MixDouble(report.drift);
  digest->Mix((report.replan_triggered ? 1u : 0u) |
              (report.replan_adopted ? 2u : 0u) |
              (report.replan_abandoned ? 4u : 0u));
  digest->Mix(report.replan_evaluations);
}

int ReplanEvery(const WorkloadSpec& spec) {
  return std::max(1, spec.ticks / std::max(1, spec.plans));
}

double RoundMb(const qsp::Result<qsp::RoundStats>& round) {
  if (!round.ok()) return 0.0;
  return static_cast<double>(round.value().header_bytes +
                             round.value().payload_bytes) /
         1e6;
}

namespace {

void AddCheck(const std::string& failure, RepOutcome* out) {
  if (!failure.empty()) out->check_failures.push_back(failure);
}

/// One set-up of a one-shot workload: what setup_s times.
std::unique_ptr<qsp::SubscriptionService> SetUpOneShot(const WorkloadSpec& spec,
                                                        const Inputs& inputs) {
  auto service = std::make_unique<qsp::SubscriptionService>(
      IngestRows(inputs.rows), Domain(), ServiceFor(spec, nullptr));
  for (size_t c = 0; c < spec.clients; ++c) service->AddClient();
  for (size_t i = 0; i < inputs.rects.size(); ++i) {
    service->Subscribe(inputs.owners[i], inputs.rects[i]);
  }
  return service;
}

/// A live set-up: ingest, construct, lease the initial subscriptions and
/// seed them through DrainAdmissions. `held` receives the leased ids.
struct LiveSetUp {
  std::unique_ptr<qsp::SubscriptionService> service;
  std::vector<qsp::QueryId> held;
  qsp::BatchReport seeded;
};

LiveSetUp SetUpLive(const WorkloadSpec& spec, const Inputs& inputs,
                    qsp::obs::Clock* clock, FailureCount* admits) {
  LiveSetUp out;
  out.service = std::make_unique<qsp::SubscriptionService>(
      IngestRows(inputs.rows), Domain(), ServiceFor(spec, clock));
  for (size_t c = 0; c < spec.clients; ++c) out.service->AddClient();
  out.held.reserve(inputs.rects.size());
  for (size_t i = 0; i < inputs.rects.size(); ++i) {
    qsp::Result<qsp::QueryId> id =
        out.service->SubscribeLeased(inputs.owners[i], inputs.rects[i]);
    admits->Record(id.ok());
    if (id.ok()) out.held.push_back(id.value());
  }
  out.seeded = out.service->DrainAdmissions();
  return out;
}

/// Times `count` set-ups made by `set_up` (each dropped before the next,
/// untimed) and returns their mean; `keep` receives the last one.
template <typename T, typename SetUp>
double TimeSetUps(int count, const SetUp& set_up, T* keep) {
  double total = 0.0;
  for (int i = 0; i < count; ++i) {
    *keep = T{};  // tear-down is not part of set-up
    Stopwatch watch;
    *keep = set_up();
    total += watch.Seconds();
  }
  return total / count;
}

RepOutcome RunOneShot(const WorkloadSpec& spec, const Inputs& inputs,
                      bool extra_setups) {
  RepOutcome out;
  Digest digest;
  auto set_up = [&] { return SetUpOneShot(spec, inputs); };
  std::unique_ptr<qsp::SubscriptionService> service;
  out.setup_s.push_back(TimeSetUps(spec.setup_batch, set_up, &service));
  out.steps_s += out.setup_s.back();
  if (service->table().num_rows() != inputs.rows.size()) {
    AddCheck("table ingest lost rows", &out);
  }

  Stopwatch plan_watch;
  qsp::Result<qsp::PlanReport> report = service->Plan();
  out.plan_s.push_back(plan_watch.Seconds());
  out.plans.Record(report.ok());
  out.steps_s += out.plan_s.back();
  if (!report.ok()) {
    AddCheck("Plan() failed: " + report.status().ToString(), &out);
    out.digest = digest.value();
    return out;
  }
  const qsp::PlanReport& plan = report.value();
  out.groups = plan.num_groups;
  out.plan_cost_ratio = plan.estimated_cost / plan.initial_cost;
  AddCheck(CheckOneShotPlan(plan.plan, plan.estimated_cost, plan.initial_cost,
                            service->queries(), service->clients(),
                            service->context()->estimator(),
                            service->context()->procedure(), spec.model),
           &out);
  MixPlan(plan.plan, &digest);
  digest.MixDouble(plan.estimated_cost);
  digest.MixDouble(plan.initial_cost);

  for (int r = 0; r < spec.rounds; ++r) {
    Stopwatch round_watch;
    qsp::Result<qsp::RoundStats> round = service->RunRound();
    const double ms = round_watch.Millis();
    out.round_ms.push_back(ms);
    out.steps_s += ms / 1e3;
    out.rounds.Record(RoundOk(round));
    out.round_mb.push_back(RoundMb(round));
    digest.MixRound(round);
  }
  out.digest = digest.value();

  // The extra set-ups come after the last round, once the driven service
  // is gone: between rounds they left the next round up to 10% slower
  // (colder caches), which split round_ms into two populations.
  service.reset();
  for (int k = 0; extra_setups && k < spec.extra_setups; ++k) {
    std::unique_ptr<qsp::SubscriptionService> extra;
    out.setup_s.push_back(TimeSetUps(spec.setup_batch, set_up, &extra));
  }
  return out;
}

RepOutcome RunLive(const WorkloadSpec& spec, const Inputs& inputs,
                   uint64_t seed, bool extra_setups) {
  RepOutcome out;
  Digest digest;
  qsp::obs::FakeClock control_clock(/*tick_us=*/0.0);
  ChurnDriver driver(spec, seed);

  LiveSetUp serving;
  out.setup_s.push_back(TimeSetUps(
      1, [&] { return SetUpLive(spec, inputs, &control_clock, &out.admits); },
      &serving));
  const std::unique_ptr<qsp::SubscriptionService>& service = serving.service;
  for (qsp::QueryId id : serving.held) driver.Held(id);
  driver.Retired(serving.seeded.retired);
  MixBatch(serving.seeded, &digest);

  const qsp::LivePlanManager& live = *service->live();
  const qsp::MergeContext& ctx = *service->context();
  auto check = [&] {
    AddCheck(CheckLivePlan(live, service->queries(), ctx.estimator(),
                           ctx.procedure(), spec.model),
             &out);
  };
  check();

  out.steps_s = out.setup_s.back();
  auto replan = [&] {
    Stopwatch plan_watch;
    const qsp::Status replanned = service->ReplanNow();
    out.plan_s.push_back(plan_watch.Seconds());
    out.plans.Record(replanned.ok());
    out.steps_s += out.plan_s.back();
    digest.Mix(replanned.ok() ? 1 : 0);
    digest.MixPartition(live.PlanSnapshot());
    check();
  };

  const std::vector<int> extras =
      SpreadEvenly(extra_setups ? spec.extra_setups : 0, spec.ticks);
  for (int t = 0; t < spec.ticks; ++t) {
    for (int at : extras) {
      if (at != t) continue;
      // Its own control clock and admission count: the extra service
      // shares nothing with the one the repetition drives.
      qsp::obs::FakeClock extra_clock(/*tick_us=*/0.0);
      FailureCount extra_admits;
      LiveSetUp extra;
      out.setup_s.push_back(TimeSetUps(
          1, [&] { return SetUpLive(spec, inputs, &extra_clock, &extra_admits); },
          &extra));
      if (extra_admits.failed > 0) AddCheck("extra set-up refused a lease", &out);
    }
    if (t % ReplanEvery(spec) == 0) replan();
    control_clock.AdvanceMicros(spec.tick_us);
    digest.Mix(service->SweepExpired());
    const ChurnDriver::Tick tick = driver.Next();
    for (qsp::QueryId id : tick.renew) {
      digest.Mix(service->RenewLease(id).ok() ? 1 : 0);
    }
    size_t departed = 0;
    for (qsp::QueryId id : tick.depart) {
      if (departed == spec.departures) break;
      if (service->Unsubscribe(id).ok()) ++departed;
    }
    digest.Mix(departed);
    for (const auto& [rect, owner] : tick.arrive) {
      qsp::Result<qsp::QueryId> id = service->SubscribeLeased(owner, rect);
      out.admits.Record(id.ok());
      if (id.ok()) driver.Held(id.value());
    }

    Stopwatch drain_watch;
    const qsp::BatchReport batch = service->DrainAdmissions();
    const double drain_ms = drain_watch.Millis();
    out.admit_ms.push_back(drain_ms);
    driver.Retired(batch.retired);
    MixBatch(batch, &digest);
    if (batch.replan_adopted) ++out.replans;
    check();

    Stopwatch round_watch;
    qsp::Result<qsp::RoundStats> round = service->RunRound();
    const double round_ms = round_watch.Millis();
    out.round_ms.push_back(round_ms);
    out.steps_s += (drain_ms + round_ms) / 1e3;
    out.rounds.Record(RoundOk(round));
    out.round_mb.push_back(RoundMb(round));
    digest.MixRound(round);
  }
  out.groups = live.PlanSnapshot().size();
  out.plan_cost_ratio = LiveCostRatio(live, service->queries(), ctx.estimator(),
                                      ctx.procedure(), spec.model);
  if (!(out.plan_cost_ratio <= 1.0)) AddCheck("plan_cost_ratio exceeds 1", &out);
  digest.MixDouble(live.cost());
  out.digest = digest.value();
  return out;
}

}  // namespace

RepOutcome RunFacadeRep(const WorkloadSpec& spec, const Inputs& inputs,
                        uint64_t seed, bool extra_setups) {
  return spec.live ? RunLive(spec, inputs, seed, extra_setups)
                   : RunOneShot(spec, inputs, extra_setups);
}

}  // namespace perfbench
