#!/usr/bin/env bash
# Alternating before/after runs of the end-to-end benchmark.
#
#   scripts/perf_pairs.sh PARENT_REV WORKLOAD PAIRS [SEED]
#
# Checks PARENT_REV out in a temporary git worktree under .bench_build/,
# then runs `python3 perfbench/run.py --workload WORKLOAD --seed SEED`
# PAIRS times in the parent and PAIRS times in this working tree, in ABBA
# order (pair 1 runs the parent first, pair 2 the working tree first, and
# so on), so slow drift of the machine falls on both sides alike. Each
# side builds its own benchmark binary from its own sources.
#
# Prints, for every gated metric of BENCHMARK.json, each side's median and
# quartiles and the number of pairs in which the working tree did better,
# then the digests of both sides' runs (read from
# .bench_build/perfbench-results/). Equal digests mean equal plans, costs,
# RoundStats and failures. The worktree is removed on exit. SEED defaults
# to 1, the benchmark's default; the runs use its default --seconds.
set -euo pipefail

USAGE="usage: perf_pairs.sh PARENT_REV WORKLOAD PAIRS [SEED]"
PARENT_REV="${1:?$USAGE}"
WORKLOAD="${2:?$USAGE}"
PAIRS="${3:?$USAGE}"
SEED="${4:-1}"
if ! [[ "$PAIRS" =~ ^[1-9][0-9]*$ && "$SEED" =~ ^[0-9]+$ ]]; then
  echo "$USAGE" >&2
  exit 2
fi

ROOT="$(git rev-parse --show-toplevel)"
PARENT_DIR="$ROOT/.bench_build/perf_pairs_parent"
OUT_DIR="$ROOT/.bench_build/perf_pairs"
mkdir -p "$OUT_DIR"

cleanup() {
  git -C "$ROOT" worktree remove --force "$PARENT_DIR" >/dev/null 2>&1 || true
  git -C "$ROOT" worktree prune
}
trap cleanup EXIT
cleanup
git -C "$ROOT" worktree add --detach "$PARENT_DIR" "$PARENT_REV" >/dev/null

# run SIDE_NAME SIDE_DIR PAIR: one benchmark run; keeps its result line
# and the digest of its full result record.
run() {
  local name="$1" dir="$2" pair="$3"
  local out="$OUT_DIR/$name-$pair.txt"
  (cd "$dir" && python3 perfbench/run.py --workload "$WORKLOAD" \
      --seed "$SEED") >"$out" 2>"$OUT_DIR/$name-$pair.log"
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["digest"])' \
    "$dir/.bench_build/perfbench-results/$WORKLOAD-seed$SEED-trace0.json" \
    >"$OUT_DIR/$name-$pair.digest"
  echo "pair $pair: $name done" >&2
}

rm -f "$OUT_DIR"/parent-* "$OUT_DIR"/change-*
for ((pair = 1; pair <= PAIRS; pair++)); do
  if ((pair % 2 == 1)); then
    run parent "$PARENT_DIR" "$pair"
    run change "$ROOT" "$pair"
  else
    run change "$ROOT" "$pair"
    run parent "$PARENT_DIR" "$pair"
  fi
done

python3 - "$ROOT/BENCHMARK.json" "$OUT_DIR" "$PAIRS" "$WORKLOAD" "$SEED" \
    "$PARENT_REV" <<'EOF'
import json
import statistics
import sys

spec_path, out_dir, pairs, workload, seed, parent = sys.argv[1:]
pairs = int(pairs)
spec = json.load(open(spec_path))


def result(side, pair):
    lines = open("%s/%s-%d.txt" % (out_dir, side, pair)).read().split("\n")
    return json.loads([line for line in lines if line.strip()][-1])["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


runs = {side: [result(side, p) for p in range(1, pairs + 1)]
        for side in ("parent", "change")}
print("%s seed %s, %d ABBA pairs, parent %s" % (workload, seed, pairs, parent))
print("%-16s %-32s %-32s %s" % ("metric", "parent median [q1-q3]",
                                "change median [q1-q3]", "change better"))
for metric in spec["end_to_end"]:
    name = metric["name"]
    values = {side: [r[name]["value"] for r in runs[side]] for side in runs}
    lower = metric["better"] == "lower"
    wins = sum(1 for a, b in zip(values["parent"], values["change"])
               if (b < a if lower else b > a))
    cells = []
    for side in ("parent", "change"):
        q1, median, q3 = quartiles(values[side])
        cells.append("%.6g [%.6g-%.6g]" % (median, q1, q3))
    print("%-16s %-32s %-32s %d/%d" % (name, cells[0], cells[1], wins, pairs))
for side in ("parent", "change"):
    digests = sorted({open("%s/%s-%d.digest" % (out_dir, side, p)).read().strip()
                      for p in range(1, pairs + 1)})
    print("%s digests: %s" % (side, " ".join(digests)))
EOF
