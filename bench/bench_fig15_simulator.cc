// Figure 15: the end-to-end dissemination environment. The planner works
// on *estimated* traffic; the simulator measures the real thing. With the
// exact size estimator, bounding-rect merging, and one subscription per
// client, the two must agree perfectly on the cost-model terms:
//   |M|     — messages broadcast,
//   size(M) — payload tuples on the wire,
//   U       — irrelevant tuples delivered to clients.
// This harness runs that comparison at several scales with qsp::obs
// telemetry enabled, prints the per-phase wall-time trace, and writes the
// structured report (bench_report.json by default, or $QSP_BENCH_REPORT).

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "core/subscription_service.h"
#include "obs/phase_tracer.h"
#include "obs/run_report.h"
#include "relation/generator.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

int Run() {
  obs::SetEnabled(true);  // This harness is the telemetry demonstration.

  bench::PrintHeader(
      "Figure 15 — estimated vs measured traffic in the simulated "
      "dissemination environment",
      "Planner: pair merging, bounding-rect procedure, exact estimator, "
      "one subscription per client. Every estimate must equal the "
      "simulator's wire measurement.");

  const Rect domain(0, 0, 1000, 1000);
  TablePrinter table({"clients", "est |M|", "meas |M|", "est size(M)",
                      "meas size(M)", "est U", "meas U", "match"});
  bool all_match = true;
  bool all_correct = true;

  for (const size_t num_clients : {8u, 16u, 32u}) {
    Rng rng(7000 + num_clients);
    TableGeneratorConfig tconfig;
    tconfig.domain = domain;
    tconfig.num_objects = 20000;
    tconfig.clustered_fraction = 0.5;
    Table data = GenerateTable(tconfig, &rng);

    ServiceConfig config;
    config.cost_model = bench::Fig16CostModel();
    config.merger = MergerKind::kPairMerging;
    config.procedure = ProcedureKind::kBoundingRect;
    config.estimator = EstimatorKind::kExact;
    config.extraction = ExtractionMode::kSelfExtract;
    config.telemetry = true;
    SubscriptionService service(std::move(data), domain, config);

    QueryGenConfig qconfig = bench::Fig16WorkloadConfig(num_clients);
    qconfig.domain = domain;
    Rng qrng(100 + num_clients);
    for (const Rect& rect : GenerateQueries(qconfig, &qrng)) {
      service.Subscribe(service.AddClient(), rect);
    }

    auto plan = service.Plan();
    if (!plan.ok()) {
      std::fprintf(stderr, "plan failed: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    auto round = service.RunRound();
    if (!round.ok()) {
      std::fprintf(stderr, "round failed: %s\n",
                   round.status().ToString().c_str());
      return 1;
    }
    all_correct = all_correct && round->all_answers_correct;

    const auto& registry = obs::MetricRegistry::Default();
    const double est_m = registry.GaugeValue("plan.est.messages");
    const double est_size = registry.GaugeValue("plan.est.size");
    const double est_u = registry.GaugeValue("plan.est.irrelevant");
    const double meas_m = static_cast<double>(round->num_messages);
    const double meas_size = static_cast<double>(round->payload_rows);
    const double meas_u = static_cast<double>(round->irrelevant_rows);
    const bool match = est_m == meas_m && est_size == meas_size &&
                       est_u == meas_u;
    all_match = all_match && match;
    table.AddRow({std::to_string(num_clients), std::to_string(est_m),
                  std::to_string(meas_m), std::to_string(est_size),
                  std::to_string(meas_size), std::to_string(est_u),
                  std::to_string(meas_u), match ? "yes" : "NO"});
  }

  std::printf("%s\n", table.ToText().c_str());
  std::printf("All estimates equal measurements: %s\n", all_match ? "yes" : "NO");
  std::printf("All clients recovered exact answers: %s\n\n",
              all_correct ? "yes" : "NO");
  std::printf("Phase trace (wall times in microseconds):\n%s\n",
              obs::PhaseTracer::Default().ToText().c_str());

  obs::RunReport report("fig15");
  report.AddText("description",
                 "Estimated vs simulator-measured |M|, size(M), U under the "
                 "exact estimator; phase trace of plan/simulate.");
  report.AddBool("all_match", all_match);
  report.AddBool("all_answers_correct", all_correct);
  report.AddTable("estimated_vs_measured", table);
  report.AddMetrics(obs::MetricRegistry::Default());
  report.AddTrace(obs::PhaseTracer::Default());
  std::string path = bench::ReportPath();
  if (path.empty()) path = "bench_report.json";
  const Status status = report.WriteFile(path);
  if (status.ok()) {
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "report write failed: %s\n",
                 status.ToString().c_str());
  }
  return all_match && all_correct ? 0 : 1;
}

}  // namespace
}  // namespace qsp

int main() { return qsp::Run(); }
