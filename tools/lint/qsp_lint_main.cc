// qsp_lint: the project checker (see lint/lint.h and DESIGN.md §9, §14).
//
// Usage:
//   qsp_lint --root <repo-root> [--layers <conf>] [--sarif <out.sarif>]
//            [subdir...]
//
// Subdirs (default: src tools bench tests examples) are walked
// recursively for *.h / *.cc under <repo-root>, and every path is kept
// relative to the root, so path-scoped rules, include resolution and
// reports do not depend on where the checkout lives. A subdir that does
// not exist is skipped; `lint_fixtures` directories are skipped too
// (they hold deliberately broken corpora). The layer spec defaults to
// <repo-root>/docs/layers.conf. --sarif writes every finding as a SARIF
// 2.1.0 log (always, even when clean — CI uploads it either way).
//
// Exit status: 0 clean, 1 findings, 2 usage/I-O/config errors. Findings
// print as `file:line: [rule] message`, deterministically ordered.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.h"
#include "lint/sarif.h"

namespace {

namespace fs = std::filesystem;
using qsp::lint::Finding;
using qsp::lint::LayerSpec;
using qsp::lint::LintResult;
using qsp::lint::SourceFile;

constexpr char kVersion[] = "1.0";

bool IsSourcePath(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc";
}

bool ReadWholeFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream contents;
  contents << in.rdbuf();
  *out = contents.str();
  return true;
}

/// Adds the root-relative path of every source file under root/subdir.
bool CollectTree(const fs::path& root, const std::string& subdir,
                 std::set<std::string>* rel_paths) {
  const fs::path base = root / subdir;
  std::error_code ec;
  if (!fs::is_directory(base, ec)) return true;  // absent subdir is fine
  for (fs::recursive_directory_iterator it(base, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_directory() && it->path().filename() == "lint_fixtures") {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && IsSourcePath(it->path())) {
      rel_paths->insert(fs::relative(it->path(), root, ec).generic_string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "qsp_lint: error walking %s: %s\n",
                 base.string().c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: qsp_lint --root <repo-root> [--layers <conf>] "
               "[--sarif <out>] [subdir...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root, layers_path, sarif_path;
  std::vector<std::string> subdirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--layers" && i + 1 < argc) {
      layers_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg.rfind("-", 0) == 0) {
      return Usage();
    } else {
      subdirs.push_back(arg);
    }
  }
  if (root.empty()) return Usage();
  if (subdirs.empty()) {
    subdirs = {"src", "tools", "bench", "tests", "examples"};
  }
  if (layers_path.empty())
    layers_path = (fs::path(root) / "docs" / "layers.conf").string();

  std::string layers_text;
  if (!ReadWholeFile(layers_path, &layers_text)) {
    std::fprintf(stderr, "qsp_lint: cannot read layer spec %s\n",
                 layers_path.c_str());
    return 2;
  }
  LayerSpec spec;
  std::string spec_error;
  if (!qsp::lint::ParseLayerSpec(layers_text, &spec, &spec_error)) {
    std::fprintf(stderr, "qsp_lint: bad layer spec %s: %s\n",
                 layers_path.c_str(), spec_error.c_str());
    return 2;
  }

  std::set<std::string> rel_paths;
  for (const std::string& subdir : subdirs) {
    if (!CollectTree(root, subdir, &rel_paths)) return 2;
  }
  if (rel_paths.empty()) {
    std::fprintf(stderr, "qsp_lint: no sources found under %s\n",
                 root.c_str());
    return 2;
  }
  std::vector<SourceFile> files;
  for (const std::string& rel : rel_paths) {
    SourceFile file;
    file.path = rel;
    if (!ReadWholeFile(fs::path(root) / rel, &file.content)) {
      std::fprintf(stderr, "qsp_lint: cannot read %s\n", rel.c_str());
      return 2;
    }
    file.kind = qsp::lint::ClassifyPath(rel);
    files.push_back(std::move(file));
  }

  const LintResult result = qsp::lint::Lint(files, spec);

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "qsp_lint: cannot write %s\n", sarif_path.c_str());
      return 2;
    }
    out << qsp::lint::FindingsToSarif(result.findings, kVersion) << "\n";
  }

  for (const Finding& f : result.findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!result.findings.empty()) {
    std::fprintf(stderr,
                 "qsp_lint: %zu finding(s) in %zu file(s), %zu suppressed\n",
                 result.findings.size(), files.size(), result.suppressed);
    return 1;
  }
  std::fprintf(stderr, "qsp_lint: %zu file(s) clean, %zu suppressed\n",
               files.size(), result.suppressed);
  return 0;
}
