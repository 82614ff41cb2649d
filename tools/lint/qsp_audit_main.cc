// qsp_audit: whole-program analyzer (see lint/audit.h and DESIGN.md §14).
// Where qsp_lint checks one file at a time, qsp_audit sees the tree: the
// include graph against the declared layer DAG (docs/layers.conf).
//
// Usage:
//   qsp_audit [--layers <conf>] [--sarif <out.sarif>]
//             --root <repo-root> [subdir...]
//
// Subdirs (default: src tools bench) are walked recursively for *.h /
// *.cc under <repo-root>; paths are kept root-relative so include
// resolution and reports are location-independent. `lint_fixtures`
// directories are skipped (they hold deliberately broken corpora). The
// layer spec defaults to <repo-root>/docs/layers.conf. --sarif writes a
// SARIF 2.1.0 report (always, even when clean — CI uploads it either
// way).
//
// Exit status: 0 clean, 1 findings, 2 usage/I-O/config errors. Findings
// print as `file:line: [rule] message`, deterministically ordered.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/audit.h"
#include "lint/sarif.h"

namespace {

namespace fs = std::filesystem;
using qsp::lint::AuditResult;
using qsp::lint::ClassifyPath;
using qsp::lint::LayerSpec;
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

bool CollectTree(const fs::path& root, const std::string& subdir,
                 std::vector<SourceFile>* files) {
  const fs::path base = root / subdir;
  std::error_code ec;
  if (!fs::is_directory(base, ec)) return true;  // absent subdir is fine
  std::vector<std::string> rel_paths;
  for (fs::recursive_directory_iterator it(base, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_directory() && it->path().filename() == "lint_fixtures") {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && IsSourcePath(it->path())) {
      rel_paths.push_back(
          fs::relative(it->path(), root, ec).generic_string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "qsp_audit: error walking %s: %s\n",
                 base.string().c_str(), ec.message().c_str());
    return false;
  }
  std::sort(rel_paths.begin(), rel_paths.end());
  for (const std::string& rel : rel_paths) {
    SourceFile file;
    file.path = rel;
    if (!ReadWholeFile(root / rel, &file.content)) {
      std::fprintf(stderr, "qsp_audit: cannot read %s\n", rel.c_str());
      return false;
    }
    file.kind = ClassifyPath(rel);
    files->push_back(std::move(file));
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: qsp_audit [--layers <conf>] [--sarif <out>] "
               "--root <repo-root> [subdir...]\n");
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
    } else if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      subdirs.push_back(arg);
    }
  }
  if (root.empty()) return Usage();
  if (subdirs.empty()) subdirs = {"src", "tools", "bench"};
  if (layers_path.empty())
    layers_path = (fs::path(root) / "docs" / "layers.conf").string();

  std::string layers_text;
  if (!ReadWholeFile(layers_path, &layers_text)) {
    std::fprintf(stderr, "qsp_audit: cannot read layer spec %s\n",
                 layers_path.c_str());
    return 2;
  }
  LayerSpec spec;
  std::string spec_error;
  if (!qsp::lint::ParseLayerSpec(layers_text, &spec, &spec_error)) {
    std::fprintf(stderr, "qsp_audit: bad layer spec %s: %s\n",
                 layers_path.c_str(), spec_error.c_str());
    return 2;
  }

  std::vector<SourceFile> files;
  for (const std::string& subdir : subdirs) {
    if (!CollectTree(root, subdir, &files)) return 2;
  }
  if (files.empty()) {
    std::fprintf(stderr, "qsp_audit: no sources found under %s\n",
                 root.c_str());
    return 2;
  }

  const AuditResult result = qsp::lint::RunAudit(files, spec);

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "qsp_audit: cannot write %s\n",
                   sarif_path.c_str());
      return 2;
    }
    out << qsp::lint::FindingsToSarif(result.findings, kVersion) << "\n";
  }

  for (const qsp::lint::Finding& f : result.findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!result.findings.empty()) {
    std::fprintf(stderr,
                 "qsp_audit: %zu finding(s) in %zu file(s), %zu suppressed\n",
                 result.findings.size(), files.size(), result.suppressed);
    return 1;
  }
  std::fprintf(stderr, "qsp_audit: %zu file(s) clean, %zu suppressed\n",
               files.size(), result.suppressed);
  return 0;
}
