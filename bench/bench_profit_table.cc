// Implementation ablation: the paper's Profit Table with a full rescan
// per round (PairMerger(/*use_heap=*/false)) vs the default lazy max-heap
// of admissible benefit bounds (DESIGN.md §8) inside the Pair Merging
// Algorithm. Identical plans (asserted in tests); this measures what the
// heap and its bounds save.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "merge/pair_merger.h"

namespace qsp {
namespace {

void RunVariant(benchmark::State& state, bool use_heap) {
  const int n = static_cast<int>(state.range(0));
  const CostModel model = bench::Fig16CostModel();
  const PairMerger merger(use_heap);
  uint64_t seed = 1;
  double cost = 0;
  for (auto _ : state) {
    state.PauseTiming();
    bench::Instance inst(bench::Fig16WorkloadConfig(static_cast<size_t>(n)),
                         seed++, bench::kFig16Density);
    state.ResumeTiming();
    auto outcome = merger.Merge(*inst.ctx, model);
    if (outcome.ok()) cost = outcome->cost;
    benchmark::DoNotOptimize(cost);
  }
  state.counters["cost"] = cost;
}

void BM_ProfitTableRescan(benchmark::State& state) {
  RunVariant(state, /*use_heap=*/false);
}

void BM_ProfitTableHeap(benchmark::State& state) {
  RunVariant(state, /*use_heap=*/true);
}

}  // namespace
}  // namespace qsp

BENCHMARK(qsp::BM_ProfitTableRescan)->RangeMultiplier(2)->Range(16, 256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(qsp::BM_ProfitTableHeap)->RangeMultiplier(2)->Range(16, 256)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
