#ifndef QSP_STATS_SAMPLING_ESTIMATOR_H_
#define QSP_STATS_SAMPLING_ESTIMATOR_H_

#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "relation/table.h"
#include "stats/size_estimator.h"
#include "util/rng.h"

namespace qsp {

/// Sampling-based cardinality estimation ([MCS88]'s third family):
/// Bernoulli-sample the table once at `rate`, answer every estimate by
/// counting sample hits scaled by 1/rate. Unbiased for any query shape
/// and any correlation, with relative error ~ 1/sqrt(rate * |q|) —
/// so it degrades on small queries, which is exactly what the estimator
/// ablation shows.
class SamplingEstimator : public SizeEstimator {
 public:
  /// Samples each row independently with probability `rate` (clamped to
  /// (0, 1]); deterministic in `seed`.
  SamplingEstimator(const Table& table, double rate, uint64_t seed = 42,
                    double record_size = 1.0);

  double EstimateSize(const Rect& rect) const override;

  size_t sample_size() const { return sample_.size(); }

 private:
  double inverse_rate_;
  double record_size_;
  std::vector<Point> sample_;
};

}  // namespace qsp

#endif  // QSP_STATS_SAMPLING_ESTIMATOR_H_
