#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Input generation for the end-to-end benchmark. Everything here is the
// benchmark's own code: the program under test only ever receives the
// generated row values and subscription rectangles, so a change to the
// program's generators or RNG cannot silently change the inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "geom/rect.h"
#include "relation/table.h"

namespace perfbench {

/// xoshiro256** seeded through splitmix64; one stream per (seed, purpose)
/// so adding draws to one input never shifts another.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream);
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  /// Uniform integer in [0, n); n > 0.
  uint64_t Below(uint64_t n);
  bool Bernoulli(double p) { return Uniform() < p; }
  /// Normal(mean, stddev) by Box-Muller.
  double Normal(double mean, double stddev);

 private:
  uint64_t s_[4];
};

/// One generated object: its position and the 32-byte payload column.
struct RowInput {
  double x = 0.0;
  double y = 0.0;
  std::string payload;
};

qsp::Rect Domain();
/// The object space every workload shares: a square domain in which half
/// the objects lie in five Gaussian clusters at fixed centres (the rest
/// are uniform). The centres are part of the workload definition, not of
/// the seed, so a seed changes individual objects but not where the
/// dense regions are; that keeps data-dependent metrics steady across
/// seeds.
std::vector<RowInput> GenerateRows(size_t num_objects, uint64_t seed);
/// Ingests `rows` through Table::Insert (the timed part of set-up).
qsp::Table IngestRows(const std::vector<RowInput>& rows);

/// Subscription shape (Section 9.1's hybrid model with sf 0.5, i.e. two
/// clusters): a fraction `cf` of the rectangles is centred
/// Normal(origin, df * width) around one of two fixed cluster origins,
/// the rest uniformly; extents are uniform fractions of the domain.
struct QueryShape {
  double cf = 0.8;
  double df = 0.03;
  double min_extent = 0.02;
  double max_extent = 0.10;
};

/// Draws one subscription rectangle. `cluster_slot` picks the origin of a
/// clustered rectangle; callers cycle it so clusters fill evenly.
qsp::Rect DrawRect(const QueryShape& shape, size_t cluster_slot, Rng* rng);
std::vector<qsp::Rect> GenerateRects(const QueryShape& shape, size_t n,
                                     Rng* rng);

/// Locality-coherent owners: rectangles sorted by centre (x, then y) and
/// cut into `num_clients` contiguous chunks, so each client asks about
/// its own area. Returns the owner of each rectangle.
std::vector<uint32_t> LocalityOwners(const std::vector<qsp::Rect>& rects,
                                     size_t num_clients);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
