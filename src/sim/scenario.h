#ifndef QSP_SIM_SCENARIO_H_
#define QSP_SIM_SCENARIO_H_

#include <cstdint>
#include <vector>

#include "core/subscription_service.h"
#include "relation/generator.h"
#include "util/status.h"
#include "workload/client_gen.h"
#include "workload/query_gen.h"

namespace qsp {

/// A declarative end-to-end experiment: object space + query workload +
/// client population + service configuration + number of dissemination
/// rounds. One call builds the world and runs the whole pipeline, which
/// is what the CLI and the larger examples need.
struct ScenarioConfig {
  /// Synthetic object space (domain also bounds the workload).
  TableGeneratorConfig objects;
  /// Subscription workload (its domain is overwritten by objects.domain).
  QueryGenConfig workload;
  size_t num_clients = 6;
  ClientAssignment assignment = ClientAssignment::kLocality;
  /// Planner + dissemination configuration.
  ServiceConfig service;
  /// Dissemination rounds to run under the single plan. With the client
  /// cache enabled, later rounds show cache hits.
  int rounds = 1;
  uint64_t seed = 42;
};

/// Everything a scenario run produces.
struct ScenarioResult {
  PlanReport plan;
  std::vector<RoundStats> rounds;
  /// True when every round delivered exact answers to every client.
  bool all_correct = false;
};

/// Builds the world deterministically from `config.seed` and runs it.
Result<ScenarioResult> RunScenario(const ScenarioConfig& config);

}  // namespace qsp

#endif  // QSP_SIM_SCENARIO_H_
