#ifndef QSP_SIM_CHURN_H_
#define QSP_SIM_CHURN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/live_plan.h"
#include "cost/cost_model.h"
#include "geom/rect.h"
#include "net/fault_injector.h"
#include "util/status.h"
#include "workload/query_gen.h"

namespace qsp {

/// Configuration of the service-churn scenario: a population of leased
/// subscriptions heartbeats against the live service loop while the
/// FaultPolicy injects client crashes (missed heartbeats -> lease expiry)
/// and late joins (departed subscriptions re-subscribing). Time is a
/// FakeClock owned by the harness, advanced by a fixed amount per round,
/// so every run with the same config is deterministic bit-for-bit.
struct ChurnConfig {
  Rect domain = Rect(0, 0, 1000, 1000);
  int rounds = 50;
  size_t initial_subs = 200;
  /// Fresh or rejoining subscriptions offered per round.
  size_t arrivals_per_round = 8;
  /// Voluntary departures per round (oldest leases first).
  size_t departures_per_round = 4;
  /// Lease TTL granted to every Subscribe/Renew.
  uint64_t ttl_ms = 30;
  /// Control-clock time per round. With the defaults one missed
  /// heartbeat (30ms TTL vs 2 x 20ms rounds) expires the lease.
  double round_duration_us = 20000.0;
  /// FakeClock tick per clock *read*. 0 (the default) freezes time
  /// between rounds — lease expiry is exact and in-batch deadlines never
  /// fire. Nonzero makes every clock read advance time, so per-batch
  /// repair deadlines trigger deterministically (one read per repair
  /// move), at the price of lease deadlines jittering by the number of
  /// intervening reads — still byte-reproducible, just not round-exact.
  double clock_tick_us = 0.0;
  /// Crash/late-join churn. crash_rate = probability a subscription's
  /// client misses this round's heartbeat; late_join_rate = probability
  /// an arrival is a rejoin of a previously departed subscription.
  FaultPolicy fault;
  QueryGenConfig query_shape;
  /// Uniform data density under the cost model. Keep query sizes the
  /// same magnitude as K_M (the regime where merge decisions are
  /// non-trivial and the bounder's search windows have leverage); a
  /// density that makes sizes dwarf K_M degrades every window to the
  /// whole domain and repair scans to quadratic.
  double density = 0.0005;
  CostModel cost_model{10.0, 1.0, 0.5, 0.0};
  /// Service knobs under test (enabled/clock are overridden by the
  /// harness; everything else — batch size, queue limit, repair budget
  /// and deadline, drift replanning — is the experiment).
  LiveServiceConfig service;
  uint64_t seed = 42;
  /// Rounds between structural invariant checks (1 = every round; the
  /// checks are O(live population), so soaks raise this).
  size_t invariant_check_every = 1;
  /// Run a pruned from-scratch merge over the final population and
  /// report its cost and candidate evaluations for comparison.
  bool compare_fresh = true;
};

/// Per-round measurements. Everything except wall_batch_us is
/// deterministic in the config (and folded into ChurnOutcome::digest).
struct ChurnRoundStats {
  int round = 0;
  /// Leases the harness believes it holds after the round.
  size_t held = 0;
  size_t queue_depth = 0;
  uint64_t sheds_total = 0;
  size_t swept = 0;
  size_t renew_failures = 0;
  int repair_moves = 0;
  bool repair_deadline_hit = false;
  uint64_t evaluations = 0;
  double cost = 0.0;
  double bound = 0.0;
  double drift = 0.0;
  bool replan_triggered = false;
  bool replan_adopted = false;
  bool replan_abandoned = false;
  /// Real (steady-clock) latency of this round's ProcessBatch — the
  /// number the repair-latency percentiles are built from. Excluded from
  /// the determinism digest.
  double wall_batch_us = 0.0;
};

/// Result of a churn run.
struct ChurnOutcome {
  std::vector<ChurnRoundStats> rounds;
  /// Empty when every structural invariant held; else the first failure.
  std::string invariant_error;
  LiveStats final_stats;
  double final_cost = 0.0;
  /// Incremental maintenance work over the whole run, seeding included.
  uint64_t incremental_evals = 0;
  /// Steady-state maintenance work only: evaluations spent after the
  /// initial population was seeded (the rounds plus the final drain).
  /// This is the number to weigh against replanning from scratch every
  /// round — every policy pays the same one-time seeding bootstrap.
  uint64_t maintenance_evals = 0;
  /// From-scratch comparison over the final population (compare_fresh).
  double fresh_cost = 0.0;
  uint64_t fresh_evals = 0;
  /// FNV-1a digest over every deterministic per-round field plus the
  /// final counters; two runs of the same config must agree exactly.
  uint64_t digest = 0;

  bool invariants_ok() const { return invariant_error.empty(); }
};

/// Runs the churn scenario against a LivePlanManager built on a
/// bounding-rect procedure and uniform-density estimator.
Result<ChurnOutcome> RunServiceChurn(const ChurnConfig& config);

}  // namespace qsp

#endif  // QSP_SIM_CHURN_H_
