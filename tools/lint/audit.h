#ifndef QSP_TOOLS_LINT_AUDIT_H_
#define QSP_TOOLS_LINT_AUDIT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "lint/include_graph.h"

/// qsp_audit orchestration: runs the whole-program analysis (the
/// include/layer graph) over one corpus, applies the shared
/// `// qsp-lint: allow(<rule>) <reason>` suppression syntax, and returns
/// findings in stable (file, line, rule, message) order. The per-file
/// rules stay in qsp_lint; this layer owns everything that needs to see
/// more than one file at a time.
namespace qsp {
namespace lint {

struct AuditResult {
  /// Surviving findings, sorted by (file, line, rule, message).
  std::vector<Finding> findings;
  /// Findings silenced by allow markers.
  size_t suppressed = 0;
};

/// Runs every whole-program rule over `files` under the layer spec.
AuditResult RunAudit(const std::vector<SourceFile>& files,
                     const LayerSpec& spec);

}  // namespace lint
}  // namespace qsp

#endif  // QSP_TOOLS_LINT_AUDIT_H_
