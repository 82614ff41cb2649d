#ifndef QSP_STATS_EXACT_ESTIMATOR_H_
#define QSP_STATS_EXACT_ESTIMATOR_H_

#include "geom/rect.h"
#include "relation/spatial_index.h"
#include "stats/size_estimator.h"

namespace qsp {

/// Ground-truth "estimator": counts the actual rows in the query rectangle
/// through a spatial index. Used to validate approximate estimators and to run
/// experiments free of estimation error. Does not own the index.
class ExactEstimator : public SizeEstimator {
 public:
  /// `record_size` converts tuple counts into answer units.
  explicit ExactEstimator(const SpatialIndex* index, double record_size = 1.0);

  double EstimateSize(const Rect& rect) const override;

 private:
  const SpatialIndex* index_;
  double record_size_;
};

}  // namespace qsp

#endif  // QSP_STATS_EXACT_ESTIMATOR_H_
