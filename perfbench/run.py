#!/usr/bin/env python3
"""End-to-end benchmark of the query subscription service.

Builds perfbench/ (the program's sources plus the benchmark driver) into
.bench_build/, runs each workload in its own process and prints every
end-to-end metric by name and unit, the output checks, and provenance.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py                        # all workloads
    python3 perfbench/run.py --workload rounds-3ch --seed 7 --seconds 30
    python3 perfbench/run.py --workload live-churn --trace 1   # per layer
    python3 perfbench/run.py --self-test            # the benchmark's tests

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-results"
WORKLOADS = ["plan-dispersed", "rounds-3ch", "live-churn"]
# A workload process that runs longer than this is stopped and the run
# fails, so that a hung run ends within 180 s.
PROCESS_TIMEOUT_S = 170



def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(2)


def declared_metrics():
    """Names and units of the metrics the result line carries, from
    BENCHMARK.json: "end_to_end" for untraced runs, "per_layer" for traced
    ones. The workload process reports more end-to-end metrics than are
    gated (admit_ms.*, the failure ratios); those are printed only."""
    try:
        spec = json.loads(BENCHMARK_JSON.read_text())
        return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})
    except (OSError, ValueError, KeyError, TypeError) as error:
        fail("cannot read the metric lists of %s: %s" % (BENCHMARK_JSON, error))


def select(declared, produced, workload):
    """The declared metrics, with values from `produced` (name -> number);
    a declared metric the process did not produce stops the run."""
    metrics = {}
    for name, unit in declared.items():
        value = produced.get(name)
        if value is None:
            fail("%s did not produce metric %s" % (workload, name))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def build(target):
    if not (ROOT / "src" / "core" / "subscription_service.h").is_file():
        fail("program sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", target]]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.insert(0, configure)
    for command in steps:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(command))
    return BUILD_DIR / target


def provenance():
    """Commit (when the tree is a git checkout) and a digest of src/."""
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git") is not None:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_process(binary, workload, seed, seconds, trace, spans=None):
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=PROCESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, PROCESS_TIMEOUT_S))
    if done.stderr:
        log(done.stderr.rstrip())
    if done.returncode != 0:
        fail("%s exited with code %d" % (workload, done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result" % workload)
    return json.loads(lines[-1])


def failures_of(result):
    counts = result["counts"]
    attempted = counts["plans"] + counts["rounds"] + counts["admissions"]
    failed = (counts["plans_failed"] + counts["rounds_failed"] +
              counts["admissions_failed"])
    return attempted, failed


def run_workload(binary, workload, seed, seconds, trace, stamp, declared):
    """Returns (correct, attempted, failed, metrics, report lines)."""
    end_to_end, per_layer = declared
    checks = []
    if trace:
        # Separate invocations with the same seed: the untraced one is the
        # base of trace.overhead_ratio and of the reproduction check. Each
        # gets half the budget, which still buys every workload its
        # minimum repetitions.
        base = run_process(binary, workload, seed, seconds / 2, False)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans = OUT_DIR / ("%s-seed%d-spans.json" % (workload, seed))
        result = run_process(binary, workload, seed, seconds / 2, True, spans)
        if result["digest"] != base["digest"]:
            checks.append("traced run does not reproduce the untraced run's "
                          "partitions, costs, RoundStats and failures")
        produced = dict(result["layer"])
        produced["trace.overhead_ratio"] = result["steps_s"] / base["steps_s"]
        metrics = select(per_layer, produced, workload)
        shown = metrics
    else:
        result = run_process(binary, workload, seed, seconds, False)
        shown = result["metrics"]
        for name, unit in end_to_end.items():
            if name in shown and shown[name]["unit"] != unit:
                fail("%s reports %s in %s, BENCHMARK.json in %s" % (
                    workload, name, shown[name]["unit"], unit))
        metrics = select(end_to_end, {name: m["value"] for name, m in
                                      shown.items()}, workload)
    checks += result["check_failures"]
    attempted, failed = failures_of(result)
    correct = not checks

    counts = result["counts"]
    lines = ["== %s (seed %d, %s s, %s) ==" % (
        workload, seed, repr(float(seconds)), "traced" if trace else "untraced")]
    for name, metric in shown.items():
        value = metric["value"]
        text = "n/a (not on this workload)" if value is None else "%.6g" % value
        unit = "" if value is None else metric["unit"]
        gated = "" if trace else ("gated" if name in end_to_end else "reported")
        lines.append("  %-24s %-28s %-6s %s" % (name, text, unit, gated))
    lines.append("  rounds %d (failed %d), plans %d (failed %d), "
                 "admissions %d (failed %d), drains %d, set-up samples %d, "
                 "repetitions %d, core.replans %d" % (
                     counts["rounds"], counts["rounds_failed"], counts["plans"],
                     counts["plans_failed"], counts["admissions"],
                     counts["admissions_failed"], counts["drains"],
                     counts["setup_samples"], counts["repetitions"],
                     counts["core.replans"]))
    if counts["safety_stop"]:
        lines.append("  NOTE: the safety stop cut this run short; its counts "
                     "are not comparable with a full run")
    lines.append("  checks: " + ("ok" if not checks else
                                 "FAILED: " + "; ".join(checks)))
    full_stamp = dict(stamp)
    full_stamp.update(result["stamp"])
    lines.append("  stamp: " + json.dumps(full_stamp, sort_keys=True))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = dict(result)
    record["stamp"] = full_stamp
    record["checks"] = checks
    (OUT_DIR / ("%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
     ).write_text(json.dumps(record, indent=1) + "\n")
    return correct, attempted, failed, metrics, lines


def self_test():
    binary = build("perfbench_test")
    done = subprocess.run([str(binary)], cwd=ROOT, check=False)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all (default)" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail("unknown workload %r" % args.workload)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    declared = declared_metrics()
    binary = build("qsp_perfbench")
    stamp = provenance()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ok, tried, bad, values, lines = run_workload(
            binary, workload, args.seed, args.seconds, bool(args.trace), stamp,
            declared)
        print("\n".join(lines), flush=True)
        correct = correct and ok
        attempted += tried
        failed += bad
        metrics[workload] = values
    if len(workloads) == 1:
        metrics = metrics[workloads[0]]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
