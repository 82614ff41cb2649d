#ifndef QSP_TOOLS_LINT_LINT_H_
#define QSP_TOOLS_LINT_LINT_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

/// qsp_lint: the project checker (DESIGN.md §9, §14). One token-level
/// pass (no libclang) over the tree's sources enforces the invariants
/// clang-tidy and the compiler wall cannot know: six per-file rules
/// below, and four include/layer rules over the whole corpus
/// (include_graph.h). Rules work on comment- and string-stripped source
/// text, which keeps the tool buildable everywhere the library is and
/// fast enough to run as a ctest over the whole tree.
///
/// Per-file rules (ids are what suppression comments name):
///   discarded-status   A call returning qsp::Status / qsp::Result<T> as
///                      a bare expression statement, or laundered through
///                      a raw (void)/static_cast<void> cast. The one
///                      sanctioned spelling for an intentional drop is
///                      QSP_IGNORE_RESULT (util/status.h).
///   nondeterminism     rand()/srand(), std::random_device, time()/
///                      clock()/gettimeofday(), and *_clock::now() in
///                      library code outside src/obs/. The planner must
///                      be bit-deterministic under a fixed seed; wall
///                      clocks live in the telemetry layer only.
///   unordered-iter     Range-for over a std::unordered_{map,set}
///                      declared in the same file, in library code.
///                      Unordered iteration order feeding a planner
///                      decision silently breaks run-to-run determinism.
///   ungated-knob       ServiceConfig feature knobs read outside their
///                      gate: `.fault.<field>` without FaultPolicy::
///                      Engaged() in the same file, or any knob read
///                      (telemetry/pruning/client_cache/threads/fault)
///                      outside src/core/ — knobs are resolved once at
///                      the service boundary and passed down as plain
///                      values.
///   library-io         std::cout / printf / puts in library code.
///                      Library output goes through qsp::obs or the
///                      table printers; stderr (fprintf/std::cerr) stays
///                      available for fatal diagnostics.
///   metric-name        A string literal handed to the qsp::obs API
///                      (obs::Count/SetGauge/Observe, ScopedTimer,
///                      registry .counter/.gauge/.histogram) that does
///                      not follow the metric naming convention:
///                      lowercase `subsystem.noun[.verb[.qualifier]]` —
///                      2..4 dot-separated segments of [a-z0-9_-], the
///                      first starting with a letter. Span names
///                      (ScopedSpan, PhaseTracer .Begin) are
///                      slash-separated lowercase segments instead
///                      ("plan", "broadcast/ch3"). Dynamic (non-literal)
///                      names are not checked. Library code only — the
///                      exporters key on these names forever, so they
///                      must be born well-formed.
///
/// Suppression: a line containing `// qsp-lint: allow(<rule>) <reason>`
/// silences that rule on that line, for all ten rules alike; Lint()
/// applies the markers in one place. The reason is mandatory by
/// convention and enforced in review, not by the tool.
namespace qsp {
namespace lint {

/// How a file is treated by path-scoped rules.
enum class FileKind {
  /// Library code under src/ — every rule applies.
  kLibrary,
  /// Library code under src/obs/ — the telemetry layer; exempt from
  /// `nondeterminism` (it owns the process's clocks) but nothing else.
  kLibraryObs,
  /// Tests, tools, benches, examples — of the per-file rules only
  /// `discarded-status` applies; the include rules apply everywhere.
  kOther,
};

/// One source file handed to the linter.
struct SourceFile {
  std::string path;
  std::string content;
  FileKind kind = FileKind::kLibrary;
};

/// One rule violation.
struct Finding {
  std::string file;
  int line = 0;  // 1-based.
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// Classifies a root-relative path by its leading directory: src/obs/
/// -> kLibraryObs, src/ -> kLibrary, everything else -> kOther. Only a
/// prefix counts, so a checkout that itself lives under some `src/`
/// directory classifies the same. Path separators are '/'.
FileKind ClassifyPath(const std::string& path);

/// The declared layering, parsed from docs/layers.conf. Ranks order the
/// layers bottom (0) up; equal ranks are peer layers.
struct LayerSpec {
  std::map<std::string, int> rank;
  std::set<std::string> crosscut;

  bool declared(const std::string& layer) const {
    return rank.count(layer) > 0 || crosscut.count(layer) > 0;
  }
};

/// Parses the layer config. Grammar, one directive per line:
///   layer <name> <rank>     # declares a layer at a rank
///   crosscut <name>         # declares a cross-cutting layer
/// '#' starts a comment; blank lines are skipped. Returns false and
/// fills *error on malformed input (unknown directive, duplicate layer,
/// non-numeric rank).
bool ParseLayerSpec(const std::string& content, LayerSpec* spec,
                    std::string* error);

/// What one checker run reports.
struct LintResult {
  /// Surviving findings, sorted by (file, line, rule, message).
  std::vector<Finding> findings;
  /// Findings silenced by allow markers.
  size_t suppressed = 0;
};

/// The checker's one entry point. Runs the per-file rules each file's
/// kind admits (Status returners are collected across all of `files`)
/// and the include/layer rules under `spec` over the same files, drops
/// every finding whose line carries an allow marker naming its rule, and
/// sorts what is left once.
LintResult Lint(const std::vector<SourceFile>& files, const LayerSpec& spec);

/// Scans every file for function declarations returning qsp::Status or
/// qsp::Result<T> and returns the function names. The set is what makes
/// `discarded-status` work without an AST: a bare statement call is only
/// flagged when its callee is known to return one of these types.
std::set<std::string> CollectStatusReturners(
    const std::vector<SourceFile>& files);

/// Strips // and /* */ comments, string literals, and char literals,
/// replacing them with spaces (newlines preserved, so line numbers and
/// column positions survive). Exposed for tests.
std::string StripCommentsAndStrings(const std::string& content);

/// Shared token utilities for the per-file rules and the include rules
/// (include_graph.cc). They operate on comment/string-stripped text.
namespace text {
bool IsWordChar(char c);
bool IsSpace(char c);
/// True when content[pos, pos+word.size()) is `word` with non-word
/// characters (or the buffer edge) on both sides.
bool WordAt(const std::string& s, size_t pos, const std::string& word);
size_t SkipSpaces(const std::string& s, size_t pos);
/// Reads an identifier at pos; returns empty if none (or it starts with
/// a digit).
std::string ReadIdent(const std::string& s, size_t pos);
/// 1-based line number of a buffer offset.
int LineOf(const std::string& s, size_t pos);
}  // namespace text

}  // namespace lint
}  // namespace qsp

#endif  // QSP_TOOLS_LINT_LINT_H_
