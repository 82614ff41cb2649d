#ifndef QSP_BENCH_BENCH_COMMON_H_
#define QSP_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>

#include "cost/cost_model.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "query/query.h"
#include "stats/size_estimator.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace bench {

/// A self-contained merging instance for the figure harnesses: workload
/// rectangles -> QuerySet -> MergeContext under the uniform estimator and
/// bounding-rect procedure (the paper's evaluation setting).
struct Instance {
  QuerySet queries;
  UniformDensityEstimator estimator;
  BoundingRectProcedure procedure;
  std::unique_ptr<MergeContext> ctx;

  Instance(const QueryGenConfig& config, uint64_t seed, double density)
      : estimator(density) {
    Rng rng(seed);
    queries = QuerySet(GenerateQueries(config, &rng));
    ctx = std::make_unique<MergeContext>(&queries, &estimator, &procedure);
  }
};

/// The "distance to optimal" metric of Section 9.2:
///   (Cost_heuristic - Cost_optimum) / (Cost_initial - Cost_optimum),
/// 0 when the optimum leaves no merging headroom.
///
/// A genuinely negative distance means the "optimum" was not optimal —
/// the oracle was misconfigured or ran on a different instance. Roundoff
/// slack is clamped to 0; anything beyond it returns NaN so downstream
/// averages are visibly poisoned instead of silently flattered.
inline double DistanceToOptimal(double heuristic, double optimum,
                                double initial) {
  const double denom = initial - optimum;
  if (denom <= 1e-12) return 0.0;
  const double distance = (heuristic - optimum) / denom;
  if (distance < 0.0) {
    if (heuristic >= optimum - 1e-9 * (1.0 + std::fabs(optimum))) return 0.0;
    return std::numeric_limits<double>::quiet_NaN();
  }
  return distance;
}

/// Prints the banner every figure harness starts with.
inline void PrintHeader(const std::string& figure,
                        const std::string& description) {
  std::printf("=== %s ===\n%s\n\n", figure.c_str(), description.c_str());
}

/// Where this bench should write its structured run report, taken from the
/// QSP_BENCH_REPORT environment variable (set per binary by
/// scripts/run_benches.sh). Empty means "no report requested", which keeps
/// default bench stdout byte-identical to a build without telemetry.
inline std::string ReportPath() {
  const char* path = std::getenv("QSP_BENCH_REPORT");
  return path == nullptr ? std::string() : std::string(path);
}

/// Turns on qsp::obs when a report was requested; returns whether it is
/// on. Call once at the top of a harness that wants metrics in its report.
inline bool EnableTelemetryIfReportRequested() {
  if (!ReportPath().empty()) obs::SetEnabled(true);
  return obs::Enabled();
}

/// Writes `report` to ReportPath() when set. Notices go to stderr so that
/// stdout remains the comparable figure output.
inline void WriteReportIfRequested(const obs::RunReport& report) {
  const std::string path = ReportPath();
  if (path.empty()) return;
  const Status status = report.WriteFile(path);
  if (status.ok()) {
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "report write failed: %s\n",
                 status.ToString().c_str());
  }
}

/// Shared setting of the Figure 16/17 experiments: the paper's
/// deliberately adversarial cost constants (the ones from the Section 5.1
/// example, where greedy pairwise decisions are known to fail) over the
/// hybrid clustered workload of Section 9.1.
inline QueryGenConfig Fig16WorkloadConfig(size_t num_queries) {
  QueryGenConfig config;
  config.domain = Rect(0, 0, 1000, 1000);
  config.num_queries = num_queries;
  config.cf = 0.8;
  config.sf = 0.5;
  config.df = 0.03;
  config.min_extent = 0.02;
  config.max_extent = 0.10;
  return config;
}

inline CostModel Fig16CostModel() { return CostModel{10.0, 9.0, 4.0, 0.0}; }

/// Cost model of the Figure 18/19 allocation experiments: the Figure 16
/// constants plus a per-client header-checking charge (k6), the term that
/// makes spreading clients across channels worthwhile at all.
inline CostModel AllocCostModel() {
  CostModel model = Fig16CostModel();
  model.k_check = 3.0;
  return model;
}

/// Density chosen so query sizes are O(1)..O(100) answer units, the same
/// magnitude as K_M — the regime where merge decisions are non-trivial.
inline constexpr double kFig16Density = 0.0005;

/// Trials per |Q| point, shrinking as the Bell-number oracle cost grows.
inline int Fig16Trials(int n) {
  if (n <= 9) return 200;
  if (n == 10) return 100;
  if (n == 11) return 40;
  return 15;
}

/// Shared setting of the Figure 18/19 channel-allocation experiments:
/// clients with geographically coherent subscriptions over the hybrid
/// workload, small enough that the exhaustive allocator can serve as the
/// oracle.
struct AllocationScenario {
  size_t num_clients = 6;
  int num_channels = 2;
  size_t queries_per_client = 2;
};

}  // namespace bench
}  // namespace qsp

#endif  // QSP_BENCH_BENCH_COMMON_H_
