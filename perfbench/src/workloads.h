#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads and the untraced run, which drives the
// program only through the SubscriptionService facade (threads = 1,
// telemetry off).

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "core/subscription_service.h"
#include "cost/cost_model.h"
#include "inputs.h"
#include "measure.h"
#include "obs/clock.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Seed of the subscription rectangles (the initial set and the live
  /// arrivals). It is part of the workload definition: drawn from the
  /// run's seed, rounds-3ch's layout alone moved round_mb by 17% between
  /// seeds, too much for a gate. The run's seed draws the database rows,
  /// the live heartbeat skips and the arrivals' owners.
  uint64_t subscription_seed = 0;
  size_t num_objects = 0;
  QueryShape shape;
  size_t subscriptions = 0;
  size_t clients = 0;
  /// Locality-coherent owners (contiguous chunks of the centre-sorted
  /// rectangles); otherwise subscription i belongs to client i % clients.
  bool locality = false;
  int channels = 1;
  qsp::CostModel model;
  /// Rounds after the plan, per repetition (one-shot workloads).
  int rounds = 0;
  /// A run makes max(min_reps, round(seconds / rep_seconds)) repetitions
  /// (see Repetitions). rep_seconds is a repetition's nominal length on
  /// the machine the benchmark was sized on; min_reps gives at least 100
  /// rounds, the minimum for a p90.
  int min_reps = 1;
  double rep_seconds = 1.0;
  /// Set-ups timed together as one setup_s sample (their mean), so that
  /// no sample is shorter than about 25 ms.
  int setup_batch = 1;
  /// Extra setup_s samples per repetition, from the second repetition
  /// on. Each builds a service from the inputs and drops it. One-shot
  /// workloads take them after the last round; live-churn spreads them
  /// evenly over its ticks. The first repetition makes none, so that
  /// peak_rss_mb, read at its end, covers one service.
  int extra_setups = 0;
  /// ReplanNow calls per live repetition, spread evenly over its ticks
  /// (the first before the first tick), so that plan_s samples the whole
  /// run rather than a few seconds of it.
  int plans = 1;

  // Live mode (live-churn only).
  bool live = false;
  int ticks = 0;
  size_t arrivals = 0;
  size_t departures = 0;
  /// Share of held leases whose heartbeat a tick skips; with the TTL
  /// below, a skipped heartbeat lets the lease expire at the next tick.
  double heartbeat_skip = 0.0;
  uint64_t ttl_ms = 15;
  double tick_us = 10000.0;
  int shards = 1;
};

/// The workloads by name, in the order the benchmark runs them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Repetitions a run of `seconds` makes. The count depends only on the
/// workload and `seconds`, never on how fast the machine or the program
/// is, so two commits make the same operations and the same samples.
int Repetitions(const WorkloadSpec& spec, double seconds);

/// The data instance repetition `rep` of a `reps`-repetition run uses.
/// Each repetition draws its own rows (and, on live-churn, its heartbeat
/// skips and arrival owners), because how much work a plan does depends
/// on the data: the hill-climb allocation of two rounds-3ch seeds made
/// 284 and 330 evaluations, 1.8 s against 2.4 s. A run's medians then
/// cover several draws instead of one. The last repetition repeats
/// instance 0 (from 3 repetitions on), so every run also checks that
/// equal inputs give equal outputs.
int InstanceOf(int rep, int reps);
/// The seed of data instance `instance` of a run with seed `seed`;
/// instance 0 uses the run's seed itself.
uint64_t InstanceSeed(uint64_t seed, int instance);

/// Ticks (of 0 .. steps-1) before which the `count` extra set-ups of a
/// live repetition run: evenly spaced, never before tick 0.
std::vector<int> SpreadEvenly(int count, int steps);

/// The service configuration a workload runs under. `clock` is the live
/// control clock (ignored by one-shot workloads).
qsp::ServiceConfig ServiceFor(const WorkloadSpec& spec, qsp::obs::Clock* clock);

/// Generated inputs of one (workload, seed): the rows to ingest and the
/// initial subscriptions with their owners.
struct Inputs {
  std::vector<RowInput> rows;
  std::vector<qsp::Rect> rects;
  std::vector<uint32_t> owners;
};
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// The live workload's per-tick operations, drawn from the seed and the
/// set of leases the benchmark believes are held. Both runs drive the
/// program through the same sequence of calls to this class, so they
/// offer the program identical operations.
class ChurnDriver {
 public:
  ChurnDriver(const WorkloadSpec& spec, uint64_t seed);

  struct Tick {
    std::vector<qsp::QueryId> renew;
    /// Departure candidates, oldest lease first; the caller unsubscribes
    /// until `spec.departures` succeed.
    std::vector<qsp::QueryId> depart;
    std::vector<std::pair<qsp::Rect, uint32_t>> arrive;
  };
  Tick Next();
  void Held(qsp::QueryId id);
  void Retired(const std::vector<qsp::QueryId>& ids);

 private:
  const WorkloadSpec& spec_;
  Rng rng_;
  Rng rect_rng_;
  size_t slot_ = 0;
  std::vector<bool> held_;
  std::deque<qsp::QueryId> order_;
};

/// Everything one repetition of a workload measured and checked.
struct RepOutcome {
  /// The repetition's own set-up sample first, then the extra ones.
  std::vector<double> setup_s;
  std::vector<double> plan_s;
  std::vector<double> round_ms;
  std::vector<double> admit_ms;
  std::vector<double> round_mb;
  double plan_cost_ratio = 0.0;
  size_t groups = 0;
  uint64_t replans = 0;
  FailureCount plans;
  FailureCount rounds;
  FailureCount admits;
  std::vector<std::string> check_failures;
  uint64_t digest = 0;
  /// Wall time of the repetition's timed steps (its own set-up, plans,
  /// drains and rounds; not the extra set-ups), the base of
  /// trace.overhead_ratio.
  double steps_s = 0.0;
};

/// One repetition through the SubscriptionService facade; `extra_setups`
/// says whether it takes the workload's extra set-up samples.
RepOutcome RunFacadeRep(const WorkloadSpec& spec, const Inputs& inputs,
                        uint64_t seed, bool extra_setups);

/// Output checks shared by both runs. Each returns an empty string when
/// the check holds, else a description of the failure.
std::string CheckOneShotPlan(const qsp::DisseminationPlan& plan,
                             double estimated_cost, double initial_cost,
                             const qsp::QuerySet& queries,
                             const qsp::ClientSet& clients,
                             const qsp::SizeEstimator& estimator,
                             const qsp::MergeProcedure& procedure,
                             const qsp::CostModel& model);
std::string CheckLivePlan(const qsp::LivePlanManager& live,
                          const qsp::QuerySet& queries,
                          const qsp::SizeEstimator& estimator,
                          const qsp::MergeProcedure& procedure,
                          const qsp::CostModel& model);
/// Maintained cost / InitialCost over the live subscriptions.
double LiveCostRatio(const qsp::LivePlanManager& live,
                     const qsp::QuerySet& queries,
                     const qsp::SizeEstimator& estimator,
                     const qsp::MergeProcedure& procedure,
                     const qsp::CostModel& model);
void MixPlan(const qsp::DisseminationPlan& plan, Digest* digest);
void MixBatch(const qsp::BatchReport& report, Digest* digest);
double RoundMb(const qsp::Result<qsp::RoundStats>& round);
/// Ticks between two ReplanNow calls of a live repetition.
int ReplanEvery(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
