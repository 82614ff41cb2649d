// qspctl — command-line driver for the qsp library.
//
//   qspctl workload  [options]   generate a query workload (CSV)
//   qspctl plan      [options]   merge + allocate, print the plan
//   qspctl simulate  [options]   plan, run one round, print traffic
//   qspctl space     --n N [--channels C --clients U]
//                                print search-space sizes (Bell numbers)
//
// Common options (defaults in brackets):
//   --queries N [20]  --clients N [6]   --channels N [1]  --seed N [42]
//   --cf F [0.6]      --sf F [0.5]      --df F [0.03]
//   --min-extent F [0.02]  --max-extent F [0.1]
//   --km F [200] --kt F [1] --ku F [0.5] --kd F [0] --kcheck F [0]
//   --merger pair|directed|clustering|exact [pair]
//   --procedure rect|polygon|cover [rect]
//   --objects N [5000]  --rounds N [1]  --cache  (simulate only)
//   --subs FILE         read subscriptions from a CSV of
//                       client,x_lo,y_lo,x_hi,y_hi rows (header allowed)
//                       instead of generating a workload (plan only)
//   --csv               (machine-readable output; workload only)
//
// Each command accepts only the options it reads; any other flag exits 2
// with "unknown flag '--name'". A value may start with '-' (--kd -1); the
// switches --cache and --csv take none.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <memory>
#include <string>
#include <vector>

#include "cli_args.h"
#include "core/subscription_service.h"
#include "relation/generator.h"
#include "sim/scenario.h"
#include "util/bell.h"
#include "util/table_printer.h"
#include "workload/subs_io.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

/// The flags that take no value.
const std::vector<std::string> kSwitches = {"cache", "csv"};

/// The flags each reader below consumes.
const std::vector<std::string> kWorkloadFlags = {
    "queries", "cf", "sf", "df", "min-extent", "max-extent", "seed"};
const std::vector<std::string> kServiceFlags = {
    "km", "kt", "ku", "kd", "kcheck", "channels", "seed", "merger",
    "procedure"};

/// The union of flag lists.
std::vector<std::string> Flags(
    std::initializer_list<std::vector<std::string>> lists) {
  std::vector<std::string> flags;
  for (const std::vector<std::string>& list : lists) {
    flags.insert(flags.end(), list.begin(), list.end());
  }
  return flags;
}

QueryGenConfig WorkloadConfig(const Args& args) {
  QueryGenConfig config;
  config.domain = Rect(0, 0, 1000, 1000);
  config.num_queries = static_cast<size_t>(args.I("queries", 20));
  config.cf = args.F("cf", 0.6);
  config.sf = args.F("sf", 0.5);
  config.df = args.F("df", 0.03);
  config.min_extent = args.F("min-extent", 0.02);
  config.max_extent = args.F("max-extent", 0.1);
  return config;
}

ServiceConfig ServiceFromArgs(const Args& args) {
  ServiceConfig config;
  // Defaults chosen so merging visibly pays on the default workload
  // (messages expensive relative to per-tuple costs).
  config.cost_model.k_m = args.F("km", 200.0);
  config.cost_model.k_t = args.F("kt", 1.0);
  config.cost_model.k_u = args.F("ku", 0.5);
  config.cost_model.k_d = args.F("kd", 0.0);
  config.cost_model.k_check = args.F("kcheck", 0.0);
  config.num_channels = static_cast<int>(args.I("channels", 1));
  config.seed = static_cast<uint64_t>(args.I("seed", 42));
  config.estimator = EstimatorKind::kExact;

  const std::string merger = args.S("merger", "pair");
  if (merger == "pair") {
    config.merger = MergerKind::kPairMerging;
  } else if (merger == "directed") {
    config.merger = MergerKind::kDirectedSearch;
  } else if (merger == "clustering") {
    config.merger = MergerKind::kClustering;
  } else if (merger == "exact") {
    config.merger = MergerKind::kPartitionExact;
  } else {
    std::fprintf(stderr, "unknown --merger '%s'\n", merger.c_str());
    std::exit(2);
  }
  const std::string procedure = args.S("procedure", "rect");
  if (procedure == "rect") {
    config.procedure = ProcedureKind::kBoundingRect;
  } else if (procedure == "polygon") {
    config.procedure = ProcedureKind::kBoundingPolygon;
  } else if (procedure == "cover") {
    config.procedure = ProcedureKind::kExactCover;
  } else {
    std::fprintf(stderr, "unknown --procedure '%s'\n", procedure.c_str());
    std::exit(2);
  }
  return config;
}

/// Builds a populated service: table + clients + generated subscriptions.
std::unique_ptr<SubscriptionService> BuildService(const Args& args) {
  Rng rng(static_cast<uint64_t>(args.I("seed", 42)));
  const QueryGenConfig qconfig = WorkloadConfig(args);

  TableGeneratorConfig tconfig;
  tconfig.domain = qconfig.domain;
  tconfig.num_objects = static_cast<size_t>(args.I("objects", 5000));
  tconfig.clustered_fraction = 0.5;
  Table table = GenerateTable(tconfig, &rng);

  auto service = std::make_unique<SubscriptionService>(
      std::move(table), qconfig.domain, ServiceFromArgs(args));

  if (args.Has("subs")) {
    auto rows = LoadSubscriptionsCsv(args.S("subs", ""));
    if (!rows.ok()) {
      std::fprintf(stderr, "--subs: %s\n", rows.status().ToString().c_str());
      std::exit(1);
    }
    ClientId max_client = 0;
    for (const SubscriptionRow& row : rows.value()) {
      max_client = std::max(max_client, row.client);
    }
    for (ClientId c = 0; c <= max_client; ++c) service->AddClient();
    for (const SubscriptionRow& row : rows.value()) {
      service->Subscribe(row.client, row.rect);
    }
    return service;
  }

  const auto rects = GenerateQueries(qconfig, &rng);
  const size_t num_clients = static_cast<size_t>(args.I("clients", 6));
  for (size_t c = 0; c < num_clients; ++c) service->AddClient();
  for (size_t i = 0; i < rects.size(); ++i) {
    service->Subscribe(static_cast<ClientId>(i % num_clients), rects[i]);
  }
  return service;
}

int CmdWorkload(const Args& args) {
  Rng rng(static_cast<uint64_t>(args.I("seed", 42)));
  const auto rects = GenerateQueries(WorkloadConfig(args), &rng);
  TablePrinter table({"query", "x_lo", "y_lo", "x_hi", "y_hi", "area"});
  for (size_t i = 0; i < rects.size(); ++i) {
    table.AddNumericRow({static_cast<double>(i), rects[i].x_lo(),
                         rects[i].y_lo(), rects[i].x_hi(), rects[i].y_hi(),
                         rects[i].Area()});
  }
  std::fputs(args.Has("csv") ? table.ToCsv().c_str()
                             : table.ToText().c_str(),
             stdout);
  return 0;
}

int CmdPlan(const Args& args) {
  auto service = BuildService(args);
  auto report = service->Plan();
  if (!report.ok()) {
    std::fprintf(stderr, "plan failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("queries         : %zu\n", service->queries().size());
  std::printf("clients         : %zu\n", service->clients().num_clients());
  std::printf("initial cost    : %.2f\n", report->initial_cost);
  std::printf("planned cost    : %.2f (%.1f%% saved)\n",
              report->estimated_cost,
              100.0 * (report->initial_cost - report->estimated_cost) /
                  report->initial_cost);
  std::printf("merged groups   : %zu\n", report->num_groups);
  for (size_t ch = 0; ch < report->plan.allocation.size(); ++ch) {
    std::string clients_str;
    for (ClientId c : report->plan.allocation[ch]) {
      if (!clients_str.empty()) clients_str += ',';
      clients_str += std::to_string(c);
    }
    std::printf("channel %zu       : clients {%s}\n", ch,
                clients_str.c_str());
    for (const QueryGroup& group : report->plan.channel_partitions[ch]) {
      std::printf("  group %s\n", GroupToString(group).c_str());
    }
  }
  return 0;
}

int CmdSimulate(const Args& args) {
  ScenarioConfig scenario;
  scenario.objects.domain = Rect(0, 0, 1000, 1000);
  scenario.objects.num_objects = static_cast<size_t>(args.I("objects", 5000));
  scenario.objects.clustered_fraction = 0.5;
  scenario.workload = WorkloadConfig(args);
  scenario.num_clients = static_cast<size_t>(args.I("clients", 6));
  scenario.service = ServiceFromArgs(args);
  scenario.service.client_cache = args.Has("cache");
  scenario.rounds = static_cast<int>(args.I("rounds", 1));
  scenario.seed = static_cast<uint64_t>(args.I("seed", 42));

  auto result = RunScenario(scenario);
  if (!result.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("planned cost     : %.2f (of initial %.2f)\n",
              result->plan.estimated_cost, result->plan.initial_cost);
  for (size_t r = 0; r < result->rounds.size(); ++r) {
    const RoundStats& stats = result->rounds[r];
    std::printf("-- round %zu --\n", r);
    std::printf("messages         : %zu\n", stats.num_messages);
    std::printf("payload rows     : %zu\n", stats.payload_rows);
    std::printf("payload bytes    : %zu\n", stats.payload_bytes);
    std::printf("header bytes     : %zu\n", stats.header_bytes);
    std::printf("irrelevant rows  : %zu\n", stats.irrelevant_rows);
    std::printf("header checks    : %zu\n", stats.headers_checked);
    std::printf("cache hits       : %zu\n", stats.cache_hits);
    std::printf("channels used    : %zu\n", stats.channels_used);
  }
  std::printf("answers correct  : %s\n",
              result->all_correct ? "yes" : "NO");
  return result->all_correct ? 0 : 1;
}

int CmdSpace(const Args& args) {
  const int n = static_cast<int>(args.I("n", 12));
  std::printf("Bell numbers — query merging search space (Section 6):\n");
  for (int i = 1; i <= n; ++i) {
    std::printf("  B(%2d) = %llu\n", i,
                static_cast<unsigned long long>(BellNumber(i)));
  }
  if (args.Has("clients") || args.Has("channels")) {
    const int clients = static_cast<int>(args.I("clients", 6));
    const int channels = static_cast<int>(args.I("channels", 2));
    std::printf(
        "Allocations of %d clients into <= %d channels (Section 8): "
        "%llu\n",
        clients, channels,
        static_cast<unsigned long long>(
            PartitionsIntoAtMost(clients, channels)));
  }
  return 0;
}

int Usage() {
  std::fputs(
      "usage: qspctl <workload|plan|simulate|space> [--key value ...]\n"
      "run with a command to see its effect; see the header of\n"
      "tools/qspctl.cc for the option list.\n",
      stderr);
  return 2;
}

}  // namespace
}  // namespace qsp

int main(int argc, char** argv) {
  using qsp::Flags;
  if (argc < 2) return qsp::Usage();
  const std::string command = argv[1];
  if (command == "workload") {
    return qsp::CmdWorkload(
        qsp::Args(argc, argv, 2, Flags({qsp::kWorkloadFlags, {"csv"}}),
                  qsp::kSwitches));
  }
  if (command == "plan") {
    return qsp::CmdPlan(qsp::Args(
        argc, argv, 2,
        Flags({qsp::kWorkloadFlags, qsp::kServiceFlags,
               {"objects", "clients", "subs"}}),
        qsp::kSwitches));
  }
  if (command == "simulate") {
    return qsp::CmdSimulate(qsp::Args(
        argc, argv, 2,
        Flags({qsp::kWorkloadFlags, qsp::kServiceFlags,
               {"objects", "clients", "cache", "rounds"}}),
        qsp::kSwitches));
  }
  if (command == "space") {
    return qsp::CmdSpace(
        qsp::Args(argc, argv, 2, {"n", "clients", "channels"}, {}));
  }
  return qsp::Usage();
}
