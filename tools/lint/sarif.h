#ifndef QSP_TOOLS_LINT_SARIF_H_
#define QSP_TOOLS_LINT_SARIF_H_

#include <string>
#include <vector>

#include "lint/lint.h"

/// SARIF 2.1.0 output for qsp_lint, so CI can upload findings where code
/// hosts render them inline on the PR diff. One run, one tool (driver
/// "qsp_lint"), one result per finding; the rule catalogue under
/// tool.driver.rules carries a short description for each of the ten
/// rules. Written with qsp::JsonWriter and kept minimal —
/// exactly the fields the SARIF viewers need: ruleId, level, message.text,
/// and a physicalLocation with artifactLocation.uri plus region.startLine.
namespace qsp {
namespace lint {

/// Serializes findings as a SARIF 2.1.0 document (compact, one line).
/// `tool_version` lands in tool.driver.version. Findings are emitted in
/// the order given; every finding is level "error" (the checker treats
/// any finding as failure).
std::string FindingsToSarif(const std::vector<Finding>& findings,
                            const std::string& tool_version);

}  // namespace lint
}  // namespace qsp

#endif  // QSP_TOOLS_LINT_SARIF_H_
