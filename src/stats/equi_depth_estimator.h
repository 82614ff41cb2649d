#ifndef QSP_STATS_EQUI_DEPTH_ESTIMATOR_H_
#define QSP_STATS_EQUI_DEPTH_ESTIMATOR_H_

#include <vector>

#include "geom/rect.h"
#include "relation/table.h"
#include "stats/size_estimator.h"

namespace qsp {

/// Classic equi-depth (equi-height) histogram estimation ([MCS88]): one
/// marginal equi-depth histogram per position axis — every bucket holds
/// the same number of tuples, so bucket boundaries adapt to skew — and
/// the attribute-value-independence assumption combines the two
/// marginals:  |q| ≈ n * P(x in qx) * P(y in qy).
///
/// Compared to the equi-width HistogramEstimator this needs only
/// 2*buckets boundary values instead of buckets^2 cells, at the price of
/// the independence assumption (it cannot see diagonal correlation).
class EquiDepthEstimator : public SizeEstimator {
 public:
  /// Builds both marginals with `buckets` buckets each.
  EquiDepthEstimator(const Table& table, int buckets,
                     double record_size = 1.0);

  double EstimateSize(const Rect& rect) const override;

  /// Fraction of tuples with attribute value in [lo, hi], interpolating
  /// linearly inside buckets. `boundaries` are buckets+1 ascending values
  /// with equal tuple counts between consecutive entries; empty means "no
  /// data" (fraction 0). Public and static so the edge cases — empty
  /// table, single bucket, ranges outside the data domain, duplicate
  /// boundary values — are directly testable.
  static double MarginalFraction(const std::vector<double>& boundaries,
                                 double lo, double hi);

 private:
  double total_;
  double record_size_;
  /// boundaries_[k] has buckets+1 entries; equal tuple counts between
  /// consecutive entries. Index 0 = x axis, 1 = y axis.
  std::vector<double> boundaries_x_;
  std::vector<double> boundaries_y_;
};

}  // namespace qsp

#endif  // QSP_STATS_EQUI_DEPTH_ESTIMATOR_H_
