#include "query/extractor.h"

#include <algorithm>

namespace qsp {

std::vector<RowId> ApplyExtractor(const ExtractorSpec& spec,
                                  const std::vector<RowId>& payload,
                                  const Table& table, size_t* examined) {
  std::vector<RowId> out;
  for (RowId id : payload) {
    if (spec.rect.Contains(table.PositionOf(id))) out.push_back(id);
  }
  if (examined != nullptr) *examined += payload.size();
  return out;
}

std::vector<RowId> CombineAnswers(std::vector<std::vector<RowId>> parts) {
  std::vector<RowId> out;
  if (parts.size() == 1) {
    out = std::move(parts.front());
  } else {
    for (auto& part : parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
  }
  // A single part extracted from an ascending payload is already sorted.
  if (!std::is_sorted(out.begin(), out.end())) {
    std::sort(out.begin(), out.end());
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace qsp
