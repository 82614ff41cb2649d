#ifndef QSP_RELATION_VALUE_H_
#define QSP_RELATION_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace qsp {

/// Column types supported by the relational substrate. The BADD-style
/// schema is R(longitude DOUBLE, latitude DOUBLE, <other attributes>).
enum class ValueType { kInt64, kDouble, kString };

/// A single cell, as rows enter and leave a Table. The Table itself stores
/// columns (a contiguous position column plus the other cells as bytes at
/// their wire widths); Values exist only at Insert and row().
using Value = std::variant<int64_t, double, std::string>;

/// Returns the ValueType tag of a Value.
inline ValueType TypeOf(const Value& v) {
  switch (v.index()) {
    case 0:
      return ValueType::kInt64;
    case 1:
      return ValueType::kDouble;
    default:
      return ValueType::kString;
  }
}

/// Approximate wire size in bytes of one cell, used by the dissemination
/// simulator's byte accounting.
inline size_t WireSize(const Value& v) {
  switch (v.index()) {
    case 0:
      return 8;
    case 1:
      return 8;
    default:
      return std::get<std::string>(v).size() + 4;  // length prefix
  }
}

}  // namespace qsp

#endif  // QSP_RELATION_VALUE_H_
