// qsp_perfbench: runs one workload of the end-to-end benchmark in this
// process and prints one JSON line with its measurements, checks and
// provenance. perfbench/run.py builds this binary, runs each workload in
// its own process and formats the results; see perfbench/README.md.
//
//   qsp_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                 [--spans PATH]

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "measure.h"
#include "traced.h"
#include "workloads.h"

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __VERSION__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER __VERSION__
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

/// Pins the process to the highest-numbered CPU it may run on and
/// returns that CPU (-1 if pinning failed). The workload is
/// single-threaded, so this only keeps the scheduler from migrating it
/// between cores in the middle of a measurement.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void Sum(const FailureCount& part, FailureCount* total) {
  total->attempted += part.attempted;
  total->failed += part.failed;
}

std::string JsonList(const std::vector<double>& values) {
  std::string text = "[";
  for (double v : values) text += (text.size() > 1 ? ", " : "") + JsonNumber(v);
  return text + "]";
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Process-global program state, set once: one worker thread, telemetry
  // off (the default). Each workload runs in its own process, so nothing
  // leaks between workloads.
  qsp::exec::SetDefaultThreads(1);
  const int cpu = PinToOneCpu();

  // A fixed number of repetitions, so that every commit makes the same
  // operations. The time limit is only a safety stop for a program that
  // became several times slower; a run it cuts is flagged. A traced
  // run's processes get half the budget each, hence the 90 s floor.
  const int planned_reps = Repetitions(*spec, args.seconds);
  const double stop_after_s = std::max(90.0, 4.0 * args.seconds);
  bool safety_stop = false;
  double peak_rss_mb = 0.0;
  Inputs inputs;
  int inputs_instance = -1;
  std::vector<int> instances;
  std::vector<RepOutcome> reps;
  std::vector<std::map<std::string, double>> layers;
  std::string spans = "[";
  const double start = NowSeconds();
  for (int rep = 0; rep < planned_reps; ++rep) {
    const double elapsed = NowSeconds() - start;
    if (rep > 0 && elapsed + elapsed / rep > stop_after_s) {
      safety_stop = true;
      break;
    }
    const int instance = InstanceOf(rep, planned_reps);
    const uint64_t data_seed = InstanceSeed(args.seed, instance);
    if (instance != inputs_instance) {
      inputs = Inputs{};  // one instance resident at a time
      inputs = MakeInputs(*spec, data_seed);
      inputs_instance = instance;
    }
    // peak_rss_mb counts the program's memory only: the generated inputs
    // stay resident during the repetition, so their share is taken off.
    const double inputs_rss_mb = rep == 0 ? CurrentRssMb() : 0.0;
    instances.push_back(instance);
    if (args.trace) {
      TracedRep traced = RunTracedRep(*spec, inputs, data_seed, rep);
      reps.push_back(std::move(traced.outcome));
      layers.push_back(std::move(traced.layer));
      if (rep > 0) spans += ",\n";
      spans += traced.spans_json;
    } else {
      reps.push_back(RunFacadeRep(*spec, inputs, data_seed,
                                  /*extra_setups=*/rep > 0));
    }
    // The first repetition holds one service at a time; later ones also
    // build extra services for set-up samples.
    if (rep == 0) peak_rss_mb = PeakRssMb() - inputs_rss_mb;
  }

  std::vector<std::string> failures;
  std::string rep_samples = "[";
  FailureCount plans, rounds, admits;
  std::vector<double> setup_s, plan_s, steps_s, round_ms, admit_ms, round_mb;
  std::vector<double> cost_ratios;
  uint64_t replans = 0;
  // One digest over every repetition, which the traced run must match.
  Digest run_digest;
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepOutcome& rep = reps[i];
    for (const std::string& f : rep.check_failures) failures.push_back(f);
    for (size_t j = 0; j < i; ++j) {
      if (instances[j] == instances[i] && reps[j].digest != rep.digest) {
        failures.push_back("repetitions of one data instance produced "
                           "different outputs");
      }
    }
    run_digest.Mix(rep.digest);
    cost_ratios.push_back(rep.plan_cost_ratio);
    Sum(rep.plans, &plans);
    Sum(rep.rounds, &rounds);
    Sum(rep.admits, &admits);
    setup_s.insert(setup_s.end(), rep.setup_s.begin(), rep.setup_s.end());
    plan_s.insert(plan_s.end(), rep.plan_s.begin(), rep.plan_s.end());
    steps_s.push_back(rep.steps_s);
    round_ms.insert(round_ms.end(), rep.round_ms.begin(), rep.round_ms.end());
    admit_ms.insert(admit_ms.end(), rep.admit_ms.begin(), rep.admit_ms.end());
    round_mb.insert(round_mb.end(), rep.round_mb.begin(), rep.round_mb.end());
    replans += rep.replans;
    JsonObject sample;
    sample.Add("instance", static_cast<uint64_t>(instances[i]))
        .AddRaw("setup_s", JsonList(rep.setup_s))
        .AddRaw("plan_s", JsonList(rep.plan_s))
        .AddRaw("round_ms_median", JsonNumber(Median(rep.round_ms).value_or(0)))
        .AddRaw("plan_cost_ratio", JsonNumber(rep.plan_cost_ratio))
        .AddRaw("admit_ms_median", JsonNumber(Median(rep.admit_ms).value_or(0)))
        .Add("steps_s", rep.steps_s);
    rep_samples += (rep_samples.size() > 1 ? ", " : "") + sample.str();
  }

  // Every metric with its unit; null marks a value this workload does
  // not produce (or a percentile without ten samples beyond it).
  JsonObject metrics;
  auto metric = [&metrics](const std::string& name, std::optional<double> v,
                           const std::string& unit) {
    JsonObject m;
    m.AddRaw("value", v.has_value() ? JsonNumber(*v) : "null").Add("unit", unit);
    metrics.AddRaw(name, m.str());
  };
  metric("setup_s", Median(setup_s), "s");
  metric("plan_s", Median(plan_s), "s");
  metric("plan_cost_ratio", Median(cost_ratios), "ratio");
  metric("round_ms.mean", Mean(round_ms), "ms");
  metric("round_ms.p50", TailPercentile(round_ms, 0.5), "ms");
  metric("round_ms.p90", TailPercentile(round_ms, 0.9), "ms");
  metric("round_mb", Median(round_mb), "MB");
  if (spec->live) {
    metric("admit_ms.p50", TailPercentile(admit_ms, 0.5), "ms");
    metric("admit_ms.p90", TailPercentile(admit_ms, 0.9), "ms");
    metric("admit_fail_ratio", admits.Ratio(), "ratio");
  } else {
    metric("admit_ms.p50", std::nullopt, "ms");
    metric("admit_ms.p90", std::nullopt, "ms");
    metric("admit_fail_ratio", std::nullopt, "ratio");
  }
  metric("round_fail_ratio", rounds.Ratio(), "ratio");
  metric("peak_rss_mb", peak_rss_mb, "MB");

  // Per-layer values by name, medians over the traced repetitions;
  // run.py gives them their units from BENCHMARK.json.
  JsonObject layer;
  if (args.trace) {
    std::map<std::string, std::vector<double>> values;
    for (const auto& rep_layer : layers) {
      for (const auto& [name, value] : rep_layer) values[name].push_back(value);
    }
    for (const auto& [name, samples] : values) {
      layer.AddRaw(name, JsonNumber(*Median(samples)));
    }
    if (!args.spans.empty()) {
      std::ofstream file(args.spans);
      file << spans << "]\n";
      if (!file) failures.push_back("could not write spans to " + args.spans);
    }
  }

  const std::optional<double> p90 = TailPercentile(round_ms, 0.9);
  if (!p90.has_value()) failures.push_back("fewer than 100 rounds measured");

  std::string failure_list = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) failure_list += ", ";
    failure_list += JsonString(failures[i]);
  }
  failure_list += "]";
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(run_digest.value()));

  JsonObject counts;
  counts.Add("repetitions", static_cast<uint64_t>(reps.size()))
      .Add("safety_stop", safety_stop)
      .Add("plans", plans.attempted)
      .Add("plans_failed", plans.failed)
      .Add("rounds", rounds.attempted)
      .Add("rounds_failed", rounds.failed)
      .Add("admissions", admits.attempted)
      .Add("admissions_failed", admits.failed)
      .Add("drains", static_cast<uint64_t>(admit_ms.size()))
      .Add("setup_samples", static_cast<uint64_t>(setup_s.size()))
      .Add("groups", static_cast<uint64_t>(reps[0].groups))
      .Add("core.replans", replans);
  JsonObject stamp;
  stamp.Add("compiler", std::string(PERFBENCH_COMPILER))
      .Add("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .Add("hardware_concurrency",
           static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Add("threads", static_cast<uint64_t>(1))
      .AddRaw("pinned_cpu", std::to_string(cpu))
      .Add("seed", args.seed);
  JsonObject result;
  result.Add("workload", spec->name)
      .Add("trace", args.trace)
      .AddRaw("metrics", metrics.str())
      .AddRaw("counts", counts.str())
      .AddRaw("check_failures", failure_list)
      .Add("digest", std::string(digest_hex))
      .Add("steps_s", *Median(steps_s))
      .AddRaw("repetitions", rep_samples + "]")
      .AddRaw("stamp", stamp.str());
  if (args.trace) result.AddRaw("layer", layer.str());
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qsp_perfbench --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--spans PATH]\n");
    return 2;
  }
  return perfbench::Run(args);
}
