// Ablation: wall-clock scaling of the merging algorithms of Section 6 —
// the O(Bell(n)) partition search vs the O(n^2) heuristics — validating
// the complexity claims, plus the implementation ablation of the Pair
// Merging Algorithm: the paper's Profit Table with a full rescan per
// round (PairMerger(/*use_heap=*/false)) vs the default lazy max-heap of
// admissible benefit bounds (DESIGN.md §8). The two plan identically
// (asserted in tests); their rows show what the heap and its bounds
// save. Each row also reports the mean solution cost, so the
// time/quality trade-off is visible in one run.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/pair_merger.h"
#include "merge/partition_merger.h"
#include "util/summary.h"
#include "util/table_printer.h"

namespace qsp {
namespace {

constexpr int kRepetitions = 3;

void Run() {
  bench::PrintHeader(
      "Merging algorithms — wall time vs |Q| (Section 6)",
      "Figure 16 workload/constants; each row is the mean over " +
          std::to_string(kRepetitions) +
          " repetitions, each on a fresh instance (seeds 1.." +
          std::to_string(kRepetitions) +
          ") so no repetition rides an earlier one's memo. Only the merge "
          "is timed.");

  const CostModel model = bench::Fig16CostModel();
  TablePrinter table({"merger", "|Q|", "mean merge ms", "mean cost"});

  const auto run_row = [&](const char* label, const Merger& merger,
                           size_t n) {
    Summary merge_ms, cost;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      bench::Instance inst(bench::Fig16WorkloadConfig(n),
                           static_cast<uint64_t>(rep + 1),
                           bench::kFig16Density);
      const auto start = std::chrono::steady_clock::now();
      auto outcome = merger.Merge(*inst.ctx, model);
      const auto end = std::chrono::steady_clock::now();
      if (!outcome.ok()) continue;
      merge_ms.Add(
          std::chrono::duration<double, std::milli>(end - start).count());
      cost.Add(outcome->cost);
    }
    table.AddRow({label, std::to_string(n), std::to_string(merge_ms.mean()),
                  std::to_string(cost.mean())});
  };

  const PartitionMerger partition;
  for (size_t n = 4; n <= 12; n += 2) {
    run_row("partition (exact)", partition, n);
  }
  const PairMerger heap;
  for (size_t n = 8; n <= 256; n *= 2) run_row("pair (heap)", heap, n);
  const PairMerger profit_table(/*use_heap=*/false);
  for (size_t n = 8; n <= 256; n *= 2) {
    run_row("pair (profit table)", profit_table, n);
  }
  const DirectedSearchMerger directed(8, 42);
  for (size_t n = 8; n <= 64; n *= 2) run_row("directed (T=8)", directed, n);
  const ClusteringMerger clustering;
  for (size_t n = 8; n <= 128; n *= 2) run_row("clustering", clustering, n);

  std::printf("%s\n", table.ToText().c_str());
}

}  // namespace
}  // namespace qsp

int main() {
  qsp::Run();
  return 0;
}
