#include "lint/audit.h"

#include <algorithm>
#include <map>
#include <set>

namespace qsp {
namespace lint {

AuditResult RunAudit(const std::vector<SourceFile>& files,
                     const LayerSpec& spec) {
  AuditResult result;
  std::vector<Finding> raw = AuditIncludes(files, spec);

  // Allow markers are parsed from raw content (they live in comments).
  std::map<std::string, std::map<int, std::set<std::string>>> allows;
  for (const SourceFile& f : files)
    allows[f.path] = CollectAllowMarkers(f.content);

  for (Finding& f : raw) {
    const auto& file_allows = allows[f.file];
    auto line_allows = file_allows.find(f.line);
    if (line_allows != file_allows.end() &&
        line_allows->second.count(f.rule)) {
      ++result.suppressed;
      continue;
    }
    result.findings.push_back(std::move(f));
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  result.findings.erase(
      std::unique(result.findings.begin(), result.findings.end()),
      result.findings.end());
  return result;
}

}  // namespace lint
}  // namespace qsp
