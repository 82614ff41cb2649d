// Parallel speedup of profit-table construction for the Pair Merging
// Algorithm (DESIGN.md §7). The kernel serves only the paper's Profit
// Table, PairMerger(/*use_heap=*/false), which the tests use as the
// reference for the bounded heap every planner runs (DESIGN.md §8).
// Times PairMerger::EvaluatePairBenefits — all C(n,2) pair benefits of
// a 200-query workload — at 1/2/4/8 threads, and cross-checks the
// determinism contract: every thread count must produce bit-identical
// benefits and an identical Profit Table merge plan.
//
// Usage: bench_parallel_speedup [--smoke]
//   --smoke: small instance, one repetition, no speedup assertion — the
//   TSan CI configuration, where the point is exercising the concurrent
//   paths under the race detector, not measuring.
//
// The >= 2x speedup acceptance check at 4 threads only engages on
// hardware with at least 4 cores; on smaller machines (or under
// sanitizers) the bench still verifies equality and prints the table.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "exec/thread_pool.h"
#include "merge/pair_merger.h"
#include "util/table_printer.h"

namespace qsp {
namespace {

struct KernelResult {
  double millis = 0.0;
  std::vector<double> benefits;
  Partition partition;
};

/// One timed profit-table construction (plus a full merge for the
/// plan-equality check) on a fresh context so memoization never carries
/// over between thread counts.
KernelResult RunAtThreads(int threads, size_t num_queries, uint64_t seed,
                          int reps) {
  exec::SetDefaultThreads(threads);
  KernelResult result;
  const CostModel model = bench::Fig16CostModel();
  double best_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    bench::Instance inst(bench::Fig16WorkloadConfig(num_queries), seed,
                         bench::kFig16Density);
    // The kernel's inputs, exactly as MergeFrom builds them for the
    // initial table: singleton groups and all ascending pairs.
    std::vector<QueryGroup> groups = SingletonPartition(num_queries);
    std::vector<double> group_cost(groups.size());
    for (size_t i = 0; i < groups.size(); ++i) {
      group_cost[i] = model.GroupCost(*inst.ctx, groups[i]);
    }
    std::vector<std::pair<size_t, size_t>> pairs;
    pairs.reserve(num_queries * (num_queries - 1) / 2);
    for (size_t i = 0; i < num_queries; ++i) {
      for (size_t j = i + 1; j < num_queries; ++j) pairs.emplace_back(i, j);
    }

    const auto start = std::chrono::steady_clock::now();
    result.benefits = PairMerger::EvaluatePairBenefits(
        *inst.ctx, model, groups, group_cost, pairs);
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  result.millis = best_ms;

  // Full Profit Table plan at this thread count, for the equality
  // cross-check.
  bench::Instance inst(bench::Fig16WorkloadConfig(num_queries), seed,
                       bench::kFig16Density);
  const PairMerger merger(/*use_heap=*/false);
  auto outcome = merger.Merge(*inst.ctx, model);
  if (outcome.ok()) result.partition = outcome->partition;
  exec::SetDefaultThreads(1);
  return result;
}

int Run(bool smoke) {
  const size_t num_queries = smoke ? 40 : 200;
  const int reps = smoke ? 1 : 3;
  const uint64_t seed = 7;
  const unsigned hw = std::thread::hardware_concurrency();

  bench::PrintHeader(
      "Parallel speedup — profit-table construction (qsp::exec)",
      "Kernel: PairMerger::EvaluatePairBenefits over all C(n,2) pairs of "
      "the Section 9.1 hybrid workload, fresh context per run. Identical "
      "benefits and plans are asserted for every thread count.");
  std::printf("queries: %zu   pairs: %zu   hardware threads: %u%s\n\n",
              num_queries, num_queries * (num_queries - 1) / 2, hw,
              smoke ? "   [smoke]" : "");

  const int kThreadCounts[] = {1, 2, 4, 8};
  std::vector<KernelResult> results;
  for (const int threads : kThreadCounts) {
    results.push_back(RunAtThreads(threads, num_queries, seed, reps));
  }

  const KernelResult& serial = results[0];
  int failures = 0;
  for (size_t k = 1; k < results.size(); ++k) {
    if (results[k].benefits != serial.benefits) {
      std::fprintf(stderr,
                   "FAIL: benefits at %d threads differ from serial\n",
                   kThreadCounts[k]);
      ++failures;
    }
    if (results[k].partition != serial.partition) {
      std::fprintf(stderr,
                   "FAIL: merge plan at %d threads differs from serial\n",
                   kThreadCounts[k]);
      ++failures;
    }
  }

  TablePrinter table({"threads", "kernel ms", "speedup vs serial"});
  for (size_t k = 0; k < results.size(); ++k) {
    const double speedup =
        results[k].millis > 0 ? serial.millis / results[k].millis : 0.0;
    char ms_buf[32], sp_buf[32];
    std::snprintf(ms_buf, sizeof(ms_buf), "%.2f", results[k].millis);
    std::snprintf(sp_buf, sizeof(sp_buf), "%.2fx", speedup);
    table.AddRow({std::to_string(kThreadCounts[k]), ms_buf, sp_buf});
  }
  std::printf("%s\n", table.ToText().c_str());
  std::printf("determinism: %s\n", failures == 0 ? "OK (bit-identical)"
                                                 : "FAILED");

  if (!smoke && hw >= 4) {
    const double speedup4 = serial.millis / results[2].millis;
    std::printf("acceptance: speedup at 4 threads = %.2fx (need >= 2x)\n",
                speedup4);
    if (speedup4 < 2.0) {
      std::fprintf(stderr, "FAIL: speedup at 4 threads below 2x\n");
      ++failures;
    }
  } else if (!smoke) {
    std::printf(
        "acceptance: skipped (%u hardware threads < 4 — equality checks "
        "still enforced)\n",
        hw);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qsp

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return qsp::Run(smoke);
}
