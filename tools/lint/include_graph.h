#ifndef QSP_TOOLS_LINT_INCLUDE_GRAPH_H_
#define QSP_TOOLS_LINT_INCLUDE_GRAPH_H_

#include <set>
#include <string>
#include <vector>

#include "lint/lint.h"

/// qsp_lint's include rules (DESIGN.md §14): parses every
/// `#include "..."` in the corpus once, resolves them against the corpus
/// itself, and enforces the declared layer DAG plus structural include
/// hygiene.
///
/// Rules (ids are what suppression comments name):
///   layer-back-edge    A file in src/<A>/ includes a header in src/<B>/
///                      where the layer spec ranks B strictly above A.
///                      Layers with equal rank are peers and may
///                      interdepend (acyclically — include-cycle still
///                      applies); crosscut layers (obs, exec) are exempt
///                      in both directions.
///   layer-undeclared   A file lives in a src/ subsystem that the layer
///                      spec does not declare. New subsystems must take a
///                      position in docs/layers.conf before CI goes
///                      green.
///   include-cycle      The file-level include graph has a cycle. One
///                      finding per cycle, reported at the
///                      lexicographically first member's edge into the
///                      cycle.
///   unused-include     A project include whose header contributes no
///                      name the including file references: either dead
///                      weight, or (when only names from the header's own
///                      transitive includes are used) a transitive-only
///                      include that should name its real provider.
namespace qsp {
namespace lint {

/// One `#include "..."` directive.
struct IncludeEdge {
  std::string from;    // corpus path of the including file
  std::string target;  // include string as written
  std::string to;      // resolved corpus path; empty when unresolved
  int line = 0;        // 1-based line of the directive
};

/// Extracts project-form (quoted) includes from a file's stripped
/// content and resolves each against the corpus paths: an include "X" in
/// file F tries src/X, tools/X, X, bench/X, then dir(F)/X. System
/// (<...>) includes never appear. Exposed for tests.
std::vector<IncludeEdge> ExtractIncludes(
    const SourceFile& file, const std::set<std::string>& corpus_paths);

/// The src/ subsystem of a root-relative path ("src/geom/rect.h" ->
/// "geom"); empty for paths outside src/.
std::string LayerOf(const std::string& path);

/// Runs every include rule over the corpus. Findings are unsuppressed
/// and unsorted; Lint() (lint.h) applies the allow markers and the
/// ordering.
std::vector<Finding> CheckIncludes(const std::vector<SourceFile>& files,
                                   const LayerSpec& spec);

}  // namespace lint
}  // namespace qsp

#endif  // QSP_TOOLS_LINT_INCLUDE_GRAPH_H_
