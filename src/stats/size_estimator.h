#ifndef QSP_STATS_SIZE_ESTIMATOR_H_
#define QSP_STATS_SIZE_ESTIMATOR_H_

#include <limits>
#include <vector>

#include "geom/rect.h"
#include "obs/metrics.h"

namespace qsp {

/// Estimates size(q) — the expected answer size of a range query — using
/// classic database statistics techniques ([MCS88] in the paper). Sizes
/// are expressed in "answer units": expected tuple count times a constant
/// record size, so all cost-model terms share one unit.
class SizeEstimator {
 public:
  virtual ~SizeEstimator() = default;

  /// A guaranteed minimum data density: within `support`, every rectangle
  /// r satisfies EstimateSize(r) >= density * r.Area(). The planner's
  /// admissible benefit bounds (DESIGN.md §8) use this to lower-bound the
  /// size of a merged region from its bounding box alone, which is what
  /// lets the spatial index prune far-apart pairs without evaluating
  /// them. density = 0 (the default) soundly disables distance pruning.
  struct DensityFloor {
    double density = 0.0;
    /// Region on which the floor holds. Rectangles not fully contained in
    /// `support` get no guarantee (estimators typically clip to a domain,
    /// so outside it the floor would be unsound).
    Rect support = Rect::Empty();
  };

  /// The estimator's density floor; the default advertises none.
  virtual DensityFloor Floor() const { return DensityFloor{}; }

  /// Estimated answer size of a single rectangle query.
  virtual double EstimateSize(const Rect& rect) const = 0;

  /// Estimated answer size of a region given as interior-disjoint pieces
  /// (the output of the exact-cover or bounding-polygon merge). The
  /// default sums the per-piece estimates, which is exact for disjoint
  /// pieces under any additive estimator. An override must keep
  /// EstimateRegionSize({r}) == EstimateSize(r): MergeContext sizes a
  /// bounding-box region with EstimateSize alone.
  virtual double EstimateRegionSize(const std::vector<Rect>& pieces) const {
    double total = 0.0;
    for (const Rect& r : pieces) total += EstimateSize(r);
    return total;
  }
};

/// Assumes objects are uniformly distributed: size = density * area.
/// This is the estimator the paper's analytic examples use (e.g. the unit
/// squares of Figure 6, where every unit of area holds answer size S).
class UniformDensityEstimator : public SizeEstimator {
 public:
  /// `density` is answer units per unit of area.
  explicit UniformDensityEstimator(double density) : density_(density) {}

  /// Convenience: density derived from an object count over a domain,
  /// scaled by `record_size` units per object.
  UniformDensityEstimator(double num_objects, const Rect& domain,
                          double record_size = 1.0)
      : density_(num_objects * record_size /
                 (domain.Area() > 0 ? domain.Area() : 1.0)) {}

  double EstimateSize(const Rect& rect) const override {
    obs::Count("stats.uniform.calls");
    return density_ * rect.Area();
  }

  /// Uniform density holds everywhere, so the floor is the density itself
  /// on an unbounded support.
  DensityFloor Floor() const override {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return DensityFloor{density_, Rect(-kInf, -kInf, kInf, kInf)};
  }

  double density() const { return density_; }

 private:
  double density_;
};

}  // namespace qsp

#endif  // QSP_STATS_SIZE_ESTIMATOR_H_
