// qsp_explain — EXPLAIN a merge plan (DESIGN.md §10).
//
//   qsp_explain [options]
//
// Loads a scenario, runs a merger over it, and prints the structured
// PlanExplain: per merged group its members, MBR, estimated (and
// optionally exact) size, the Section 4 cost terms, and the
// BenefitBounder's bound/refinement accounting.
//
// Options (defaults in brackets):
//   --scenario fig16|workload|live [fig16]
//       fig16    the Figure 16 evaluation setting (hybrid clustered
//                workload, adversarial cost constants, uniform estimator)
//       workload the qspctl-style generic workload knobs below
//       live     the long-lived service loop: admit the fig16 workload
//                through leased admission, retire every third query, and
//                EXPLAIN the incrementally repaired plan it serves
//                (honors --queries, --seed, --format; the incremental
//                merger's scans are always bounded, so --no-pruning
//                does not apply)
//   --queries N [12]    --seed N [fig16: 1000*queries; workload: 42]
//   --merger pair|directed|clustering|exact [pair]
//   --shards N [1]      shard budget of the ShardedPlanner every plan
//                       goes through (DESIGN.md §12–§13). With N > 1,
//                       groups gain a shard= attribution (shard=seam for
//                       boundary-pass groups) and the output adds the
//                       bisection cut tree and per-shard cost estimates
//                       (text + JSON). 1 = the planner delegates to the
//                       plain merge, and the output carries none of
//                       these. Ignored by --scenario live.
//   --no-pruning        plan with bounds that prune nothing (same plan;
//                       every pair evaluated exactly)
//   --exact             also report exact merged sizes, measured against
//                       a generated table (--objects N [5000])
//   --format text|json [text]
//   workload-mode knobs: --cf F [0.6] --sf F [0.5] --df F [0.03]
//       --min-extent F [0.02] --max-extent F [0.1] --density F [0.0005]
//       --km F [10] --kt F [9] --ku F [4]
//
// Any other flag is an error (exit 2), so a typo is not silently
// ignored.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cli_args.h"
#include "core/live_plan.h"
#include "core/subscription_service.h"
#include "merge/sharded_planner.h"
#include "obs/clock.h"
#include "obs/plan_explain.h"
#include "query/merge_procedure.h"
#include "relation/generator.h"
#include "relation/grid_index.h"
#include "stats/exact_estimator.h"
#include "stats/size_estimator.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

/// Every flag the header documents.
const std::vector<std::string> kFlags = {
    "scenario", "queries", "seed", "merger", "shards", "no-pruning",
    "exact", "objects", "format", "cf", "sf", "df", "min-extent",
    "max-extent", "density", "km", "kt", "ku", "help"};

/// The flags of kFlags that take no value.
const std::vector<std::string> kSwitches = {"no-pruning", "exact", "help"};

MergerKind MergerFromArgs(const Args& args, std::string* name) {
  *name = args.S("merger", "pair");
  if (*name == "pair") return MergerKind::kPairMerging;
  if (*name == "directed") return MergerKind::kDirectedSearch;
  if (*name == "clustering") return MergerKind::kClustering;
  if (*name == "exact") return MergerKind::kPartitionExact;
  std::fprintf(stderr, "unknown --merger '%s'\n", name->c_str());
  std::exit(2);
}

/// --scenario live: drive the long-lived service loop (DESIGN.md §11)
/// through a scripted admit/retire sequence and EXPLAIN the repaired
/// plan it is currently serving. Unlike the one-shot scenarios, this
/// plan is the product of AddQuery/RemoveQuery/Repair maintenance, not
/// of a single merge — the dump shows what the service would actually
/// disseminate mid-lifetime.
int RunLive(const Args& args) {
  const size_t num_queries = static_cast<size_t>(args.I("queries", 12));
  const QueryGenConfig workload = bench::Fig16WorkloadConfig(num_queries);
  const CostModel model = bench::Fig16CostModel();
  const uint64_t seed = static_cast<uint64_t>(
      args.I("seed", static_cast<int64_t>(1000 * num_queries)));

  QuerySet queries;
  UniformDensityEstimator estimator(bench::kFig16Density);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);

  obs::FakeClock clock(0.0);
  LiveServiceConfig opts;
  opts.enabled = true;
  opts.clock = &clock;
  opts.admission_batch_max = static_cast<size_t>(-1);
  opts.admission_queue_limit = static_cast<size_t>(-1);
  opts.repair_max_moves = 0;  // Repair each batch to a local minimum.
  LivePlanManager live(&queries, &ctx, model, opts);

  Rng rng(seed);
  for (const Rect& rect : GenerateQueries(workload, &rng)) {
    if (!live.Subscribe(rect, 0).ok()) {
      std::fprintf(stderr, "live subscribe failed\n");
      return 1;
    }
  }
  QSP_IGNORE_RESULT(live.DrainAll());
  // Retire every third subscription so the dumped plan reflects
  // removal-induced repair, then settle the queue again.
  for (QueryId id = 0; id < num_queries; id += 3) {
    QSP_IGNORE_RESULT(live.Unsubscribe(id));
  }
  QSP_IGNORE_RESULT(live.DrainAll());

  obs::PlanExplainer explainer(&ctx, model);
  explainer.AddLabel("scenario", "live");
  explainer.AddLabel("merger", "incremental");
  explainer.AddLabel("procedure", "rect");
  explainer.AddLabel("estimator", "uniform");
  // No initial-cost line: the context still holds retired queries (ids
  // are stable for the service's lifetime), so Cost_initial over the
  // whole QuerySet would not describe the live population.
  const obs::PlanExplain explain = explainer.Explain(live.PlanSnapshot());

  const std::string format = args.S("format", "text");
  if (format == "text") {
    std::fputs(explain.ToText().c_str(), stdout);
  } else if (format == "json") {
    std::printf("%s\n", explain.ToJson().c_str());
  } else {
    std::fprintf(stderr, "unknown --format '%s'\n", format.c_str());
    return 2;
  }
  return 0;
}

int Run(const Args& args) {
  const std::string scenario = args.S("scenario", "fig16");
  if (scenario == "live") return RunLive(args);
  const size_t num_queries = static_cast<size_t>(args.I("queries", 12));

  QueryGenConfig workload;
  double density = 0.0;
  CostModel model;
  uint64_t seed = 0;
  if (scenario == "fig16") {
    workload = bench::Fig16WorkloadConfig(num_queries);
    density = bench::kFig16Density;
    model = bench::Fig16CostModel();
    // The seed of trial 0 at this |Q| in the fig16 harness.
    seed = static_cast<uint64_t>(
        args.I("seed", static_cast<int64_t>(1000 * num_queries)));
  } else if (scenario == "workload") {
    workload.domain = Rect(0, 0, 1000, 1000);
    workload.num_queries = num_queries;
    workload.cf = args.F("cf", 0.6);
    workload.sf = args.F("sf", 0.5);
    workload.df = args.F("df", 0.03);
    workload.min_extent = args.F("min-extent", 0.02);
    workload.max_extent = args.F("max-extent", 0.1);
    density = args.F("density", bench::kFig16Density);
    model.k_m = args.F("km", 10.0);
    model.k_t = args.F("kt", 9.0);
    model.k_u = args.F("ku", 4.0);
    seed = static_cast<uint64_t>(args.I("seed", 42));
  } else {
    std::fprintf(stderr, "unknown --scenario '%s'\n", scenario.c_str());
    return 2;
  }

  bench::Instance instance(workload, seed, density);

  std::string merger_name;
  const MergerKind merger_kind = MergerFromArgs(args, &merger_name);
  const bool pruning = !args.Has("no-pruning");
  const auto merger = MakeMerger(merger_kind, seed, pruning);
  const int shards = static_cast<int>(args.I("shards", 1));
  const ShardedPlanner planner(
      merger.get(),
      ShardedPlanner::Options{.shards = shards, .pruning = pruning});
  Result<ShardedMergeOutcome> plan = planner.Plan(*instance.ctx, model);
  if (!plan.ok()) {
    std::fprintf(stderr, "merge failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  const ShardedMergeOutcome& sharded = plan.value();
  const MergeOutcome& outcome = sharded.outcome;

  obs::PlanExplainer explainer(instance.ctx.get(), model);
  explainer.AddLabel("scenario", scenario);
  explainer.AddLabel("merger", merger_name);
  explainer.AddLabel("procedure", "rect");
  explainer.AddLabel("estimator", "uniform");
  if (shards > 1) {
    explainer.AddLabel("shards", std::to_string(shards));
    // Bisection is the only assignment; the label keeps the sharded
    // EXPLAIN format (and its golden) stable.
    explainer.AddLabel("assign", "balanced");
    explainer.set_shard_attribution(&sharded.group_shard);
    explainer.set_shard_layout(&sharded.layout);
  }
  explainer.set_initial_cost(model.InitialCost(*instance.ctx));
  explainer.set_refinement(outcome.bounds_refined, outcome.bounds_pruned);

  // --exact: measure merged sizes against a real table so the EXPLAIN
  // shows the estimator's error per group.
  std::unique_ptr<Table> table;
  std::unique_ptr<GridIndex> index;
  std::unique_ptr<ExactEstimator> exact_estimator;
  std::unique_ptr<MergeContext> exact_ctx;
  if (args.Has("exact")) {
    Rng rng(seed);
    TableGeneratorConfig tconfig;
    tconfig.domain = workload.domain;
    tconfig.num_objects = static_cast<size_t>(args.I("objects", 5000));
    tconfig.clustered_fraction = 0.5;
    table = std::make_unique<Table>(GenerateTable(tconfig, &rng));
    index = std::make_unique<GridIndex>(*table, workload.domain);
    exact_estimator = std::make_unique<ExactEstimator>(index.get());
    exact_ctx = std::make_unique<MergeContext>(
        &instance.queries, exact_estimator.get(), &instance.procedure);
    explainer.set_exact_context(exact_ctx.get());
  }

  const obs::PlanExplain explain = explainer.Explain(outcome.partition);

  const std::string format = args.S("format", "text");
  if (format == "text") {
    std::fputs(explain.ToText().c_str(), stdout);
  } else if (format == "json") {
    std::printf("%s\n", explain.ToJson().c_str());
  } else {
    std::fprintf(stderr, "unknown --format '%s'\n", format.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace qsp

int main(int argc, char** argv) {
  const qsp::Args args(argc, argv, 1, qsp::kFlags, qsp::kSwitches);
  if (args.Has("help")) {
    std::fputs("see the header of tools/qsp_explain.cc for options\n",
               stderr);
    return 2;
  }
  return qsp::Run(args);
}
