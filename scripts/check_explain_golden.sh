#!/usr/bin/env bash
# Golden EXPLAIN checks (DESIGN.md §10/§11/§13): the text EXPLAIN of each
# pinned scenario must match its checked-in golden byte for byte. A diff
# means either plan output drifted (a planner, sharding or live-service
# regression) or the EXPLAIN format changed deliberately — regenerate
# with:
#   qsp_explain --scenario fig16 --merger pair > tests/golden/fig16_explain.txt
#   qsp_explain --scenario live > tests/golden/live_explain.txt
#   qsp_explain --queries 40 --shards 4 > tests/golden/sharded_explain.txt
set -euo pipefail

USAGE="usage: check_explain_golden.sh <qsp_explain> <fig16_golden> [live_golden] [sharded_golden]"
EXPLAIN_BIN="${1:?$USAGE}"
GOLDEN="${2:?$USAGE}"
LIVE_GOLDEN="${3:-}"
SHARDED_GOLDEN="${4:-}"

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT

"$EXPLAIN_BIN" --scenario fig16 --merger pair > "$actual"
if ! diff -u "$GOLDEN" "$actual"; then
  echo "golden EXPLAIN mismatch for fig16 (see diff above)" >&2
  exit 1
fi

if [[ -n "$LIVE_GOLDEN" ]]; then
  "$EXPLAIN_BIN" --scenario live > "$actual"
  if ! diff -u "$LIVE_GOLDEN" "$actual"; then
    echo "golden EXPLAIN mismatch for live (see diff above)" >&2
    exit 1
  fi
fi

if [[ -n "$SHARDED_GOLDEN" ]]; then
  "$EXPLAIN_BIN" --queries 40 --shards 4 > "$actual"
  if ! diff -u "$SHARDED_GOLDEN" "$actual"; then
    echo "golden EXPLAIN mismatch for sharded (see diff above)" >&2
    exit 1
  fi
fi
echo "golden EXPLAIN ok"
