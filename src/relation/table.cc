#include "relation/table.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

namespace qsp {
namespace {

/// Cap on the cell bytes a new block reserves up front.
constexpr size_t kMaxInitialCellBytes = size_t{1} << 20;

template <typename T>
void WriteBytes(const T& value, char** cursor) {
  std::memcpy(*cursor, &value, sizeof(T));
  *cursor += sizeof(T);
}

/// Writes one non-position cell at its wire width (see Table).
void WriteCell(const Value& value, char** cursor) {
  if (const auto* text = std::get_if<std::string>(&value)) {
    WriteBytes(static_cast<uint32_t>(text->size()), cursor);
    std::memcpy(*cursor, text->data(), text->size());
    *cursor += text->size();
  } else if (const auto* integer = std::get_if<int64_t>(&value)) {
    WriteBytes(*integer, cursor);
  } else {
    WriteBytes(std::get<double>(value), cursor);
  }
}

/// Reads a T stored by WriteBytes at `*cursor` and advances past it.
template <typename T>
T ReadBytes(const char** cursor) {
  T value;
  std::memcpy(&value, *cursor, sizeof(T));
  *cursor += sizeof(T);
  return value;
}

}  // namespace

Table::Table(Schema schema) : schema_(std::move(schema)) {}

Result<RowId> Table::Insert(std::vector<Value> values) {
  QSP_RETURN_IF_ERROR(schema_.Validate(values));
  if (schema_.num_fields() < 2 ||
      schema_.field(0).type != ValueType::kDouble ||
      schema_.field(1).type != ValueType::kDouble) {
    return Status::FailedPrecondition(
        "table schema must start with two DOUBLE position columns");
  }
  const Point position{std::get<double>(values[0]),
                       std::get<double>(values[1])};
  if (!std::isfinite(position.x) || !std::isfinite(position.y)) {
    return Status::InvalidArgument("row position must be finite");
  }
  size_t cell_bytes = 0;
  for (size_t f = 2; f < values.size(); ++f) cell_bytes += WireSize(values[f]);
  const bool new_block = num_rows_ % kBlockRows == 0;
  const size_t block_bytes = new_block ? 0 : blocks_.back().cells.size();
  if (cell_bytes > std::numeric_limits<uint32_t>::max() - block_bytes) {
    return Status::OutOfRange("row cells overflow a table block");
  }

  if (new_block) {
    Block& block = blocks_.emplace_back();
    block.positions.reserve(kBlockRows);
    block.cell_offsets.reserve(kBlockRows + 1);
    block.cell_offsets.push_back(0);
    // Room for rows as wide as this one, up to a cap.
    block.cells.reserve(
        std::min(kBlockRows * cell_bytes, kMaxInitialCellBytes));
  }
  Block& block = blocks_.back();
  block.positions.push_back(position);
  const size_t begin = block.cells.size();
  const size_t end = begin + cell_bytes;
  block.cells.resize(end);
  char* cursor = block.cells.data() + begin;
  for (size_t f = 2; f < values.size(); ++f) WriteCell(values[f], &cursor);
  block.cell_offsets.push_back(static_cast<uint32_t>(end));
  return static_cast<RowId>(num_rows_++);
}

std::vector<Value> Table::row(RowId id) const {
  const Block& block = blocks_[id / kBlockRows];
  const size_t i = id % kBlockRows;
  std::vector<Value> values;
  values.reserve(schema_.num_fields());
  values.emplace_back(block.positions[i].x);
  values.emplace_back(block.positions[i].y);
  const char* cursor = block.cells.data() + block.cell_offsets[i];
  for (size_t f = 2; f < schema_.num_fields(); ++f) {
    switch (schema_.field(f).type) {
      case ValueType::kInt64:
        values.emplace_back(ReadBytes<int64_t>(&cursor));
        break;
      case ValueType::kDouble:
        values.emplace_back(ReadBytes<double>(&cursor));
        break;
      case ValueType::kString: {
        const auto length = ReadBytes<uint32_t>(&cursor);
        values.emplace_back(std::string(cursor, length));
        cursor += length;
        break;
      }
    }
  }
  return values;
}

std::vector<RowId> Table::ScanRange(const Rect& rect) const {
  std::vector<RowId> out;
  for (RowId id = 0; id < num_rows_; ++id) {
    if (rect.Contains(PositionOf(id))) out.push_back(id);
  }
  return out;
}

size_t Table::CountRange(const Rect& rect) const {
  size_t count = 0;
  for (RowId id = 0; id < num_rows_; ++id) {
    if (rect.Contains(PositionOf(id))) ++count;
  }
  return count;
}

double Table::MeanRowWireSize() const {
  if (num_rows_ == 0) return 0.0;
  size_t total = kPositionBytes * num_rows_;
  for (const Block& block : blocks_) total += block.cells.size();
  return static_cast<double>(total) / static_cast<double>(num_rows_);
}

}  // namespace qsp
