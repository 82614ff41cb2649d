#ifndef QSP_RELATION_SPATIAL_INDEX_H_
#define QSP_RELATION_SPATIAL_INDEX_H_

#include <cstddef>
#include <vector>

#include "geom/rect.h"
#include "relation/table.h"

namespace qsp {

/// Access-path abstraction for evaluating geographic range queries: the
/// server and the exact size estimator work against this interface.
/// GridIndex implements it.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Row ids whose position lies in `rect`, ascending.
  virtual std::vector<RowId> Query(const Rect& rect) const = 0;

  /// Number of rows in `rect`.
  virtual size_t Count(const Rect& rect) const = 0;
};

}  // namespace qsp

#endif  // QSP_RELATION_SPATIAL_INDEX_H_
