#!/usr/bin/env bash
# Figure goldens: the stdout of the Figure 16 and 17 harnesses, of the
# dynamic-scenario bench and of the two round-path benches must match
# tests/golden/{fig16,fig17,dynamic,extraction_modes,fault_sweep}.txt byte
# for byte, and the planner-scaling smoke run's effort columns must match
# tests/golden/planner_scaling_smoke.txt. Planner changes that claim to
# keep every plan identical are checked by this diff; the round-path
# goldens pin the RoundStats a dissemination round reports
# (self-extraction and server-tag bytes, rows examined, lossy-channel
# retransmission bytes and NACK counts). A mismatch means the plans, the
# round accounting or the table format changed; if that was deliberate,
# regenerate with:
#   build/bench/bench_fig16_pair_optimality > tests/golden/fig16.txt
#   build/bench/bench_fig17_pair_distance > tests/golden/fig17.txt
#   build/bench/bench_dynamic > tests/golden/dynamic.txt
#   build/bench/bench_extraction_modes > tests/golden/extraction_modes.txt
#   build/bench/bench_fault_sweep > tests/golden/fault_sweep.txt
# fig16 and fig17 take about 10 s each, so this is a CI step, not a ctest.
#
# The planner-scaling golden pins planner effort rather than plans: the
# merger, |Q|, pruning, evals and groups columns of
# `bench_planner_scaling --smoke` (exact evaluations for pair merging,
# clustering and directed search, pruning on and off; directed search's
# evals are its descents' exact group evaluations, merge and extract
# moves alike, as IncrementalMerger::Repair counts them) and its identity
# line. The time, speedup and shrink columns vary run to run and are
# dropped; regenerate by passing the bench's stdout through
# effort_columns below into tests/golden/planner_scaling_smoke.txt. The
# smoke run takes about 5 s.
#
# The sharded-planning golden pins shard layouts the same way: the |Q|,
# shards, threads, cost, imbalance, groups, seam in and seam merges
# columns of `bench_planner_scaling --shards --smoke`. The shard weights
# come from a join-sized grid (merge/shard_assign), the partner walk
# from a grid sized to the bound's reach (merge/plan_bounds); a change
# that couples the two moves a layout and shows here. Regenerate by
# passing the bench's stdout through shard_columns below into
# tests/golden/planner_shards_smoke.txt. The run takes about 10 s.
#
#   check_figure_goldens.sh [bench_dir] [golden_dir]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
BENCH_DIR="${1:-$root/build/bench}"
GOLDEN_DIR="${2:-$root/tests/golden}"

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT

# The deterministic columns of bench_planner_scaling's table, one row
# per line, plus the pruned-equals-exhaustive line.
effort_columns() {
  awk -F' *[|] *' '
    BEGIN { print "merger |Q| pruning evals groups" }
    $1 ~ /^(pair|clustering|directed-search)$/ { print $1, $2, $3, $5, $6 }
    /^Pruned plans identical/ { print }'
}

# The deterministic columns of the --shards table (time and speedup
# dropped), an empty imbalance cell shown as "-".
shard_columns() {
  awk -F' *[|] *' '
    BEGIN { print "|Q| shards threads cost imbalance groups seam_in seam_merges" }
    $1 ~ /^[0-9]+$/ {
      print $1, $2, $3, $5, ($6 == "" ? "-" : $6), $7, $8, $9
    }'
}

status=0
for check in fig16:bench_fig16_pair_optimality \
             fig17:bench_fig17_pair_distance \
             dynamic:bench_dynamic \
             extraction_modes:bench_extraction_modes \
             fault_sweep:bench_fault_sweep; do
  golden="${check%%:*}"
  bench="${check#*:}"
  # Without QSP_BENCH_REPORT a bench writes no report and its stdout is
  # the table alone.
  env -u QSP_BENCH_REPORT "$BENCH_DIR/$bench" > "$actual"
  if diff -u "$GOLDEN_DIR/$golden.txt" "$actual"; then
    echo "$golden: ok"
  else
    echo "golden mismatch for $golden (see diff above)" >&2
    status=1
  fi
done
env -u QSP_BENCH_REPORT "$BENCH_DIR/bench_planner_scaling" --smoke |
  effort_columns > "$actual"
if diff -u "$GOLDEN_DIR/planner_scaling_smoke.txt" "$actual"; then
  echo "planner_scaling_smoke: ok"
else
  echo "golden mismatch for planner_scaling_smoke (see diff above)" >&2
  status=1
fi
env -u QSP_BENCH_REPORT "$BENCH_DIR/bench_planner_scaling" --shards --smoke |
  shard_columns > "$actual"
if diff -u "$GOLDEN_DIR/planner_shards_smoke.txt" "$actual"; then
  echo "planner_shards_smoke: ok"
else
  echo "golden mismatch for planner_shards_smoke (see diff above)" >&2
  status=1
fi
exit "$status"
