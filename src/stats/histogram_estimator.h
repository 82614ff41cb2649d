#ifndef QSP_STATS_HISTOGRAM_ESTIMATOR_H_
#define QSP_STATS_HISTOGRAM_ESTIMATOR_H_

#include <vector>

#include "geom/rect.h"
#include "relation/table.h"
#include "stats/size_estimator.h"

namespace qsp {

/// Two-dimensional equi-width histogram over the position attributes.
/// Estimates query sizes by summing bucket counts weighted by the
/// fractional area overlap of the query with each bucket (uniformity is
/// assumed only within a bucket). Handles the paper's non-uniform object
/// spaces far better than UniformDensityEstimator.
class HistogramEstimator : public SizeEstimator {
 public:
  /// Builds the histogram by one pass over `table`. `record_size` scales
  /// tuple counts into answer units.
  HistogramEstimator(const Table& table, const Rect& domain, int buckets_x,
                     int buckets_y, double record_size = 1.0);

  double EstimateSize(const Rect& rect) const override;

  /// Floor = the sparsest bucket's density, valid only on the histogram
  /// domain (EstimateSize clips to it, so no guarantee holds outside).
  DensityFloor Floor() const override;

  int buckets_x() const { return buckets_x_; }
  int buckets_y() const { return buckets_y_; }

 private:
  Rect BucketRect(int bx, int by) const;

  Rect domain_;
  int buckets_x_;
  int buckets_y_;
  double record_size_;
  std::vector<double> counts_;  // buckets_x_ * buckets_y_, row-major in y.
};

}  // namespace qsp

#endif  // QSP_STATS_HISTOGRAM_ESTIMATOR_H_
