// Tests for tools/lint's per-file rules: each rule must fire exactly
// where the known-bad fixtures say it does, stay silent on the known-good
// corpus, and respect the FileKind scoping and `qsp-lint: allow(...)`
// suppressions. Every case runs the checker's one entry point, Lint().
#include "lint/lint.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#ifndef QSP_LINT_FIXTURE_DIR
#error "QSP_LINT_FIXTURE_DIR must point at tests/lint_fixtures"
#endif

namespace qsp {
namespace lint {
namespace {

std::string ReadFixture(const std::string& rel) {
  const std::string path = std::string(QSP_LINT_FIXTURE_DIR) + "/" + rel;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Loads a fixture and lints it standalone under the given kind. Fixtures
// are self-contained (they declare their own Status/Result/ServiceConfig),
// so single-file returner collection matches the real two-pass run; their
// project includes resolve to nothing, so no include rule fires.
std::vector<Finding> LintFixture(const std::string& rel, FileKind kind) {
  SourceFile file;
  file.path = rel;
  file.content = ReadFixture(rel);
  file.kind = kind;
  return Lint({file}, LayerSpec()).findings;
}

// (line, rule) pairs, sorted — the shape every fixture expectation uses.
std::vector<std::pair<int, std::string>> LinesAndRules(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<int, std::string>> out;
  for (const Finding& f : findings) out.emplace_back(f.line, f.rule);
  std::sort(out.begin(), out.end());
  return out;
}

using Expected = std::vector<std::pair<int, std::string>>;

TEST(StripCommentsAndStrings, ReplacesCommentsAndLiteralsWithSpaces) {
  const std::string in =
      "int a = 1; // trailing rand()\n"
      "const char* s = \"printf(\\\"x\\\")\";\n"
      "/* block\n   spanning */ char c = ';';\n";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(std::count(in.begin(), in.end(), '\n'),
            std::count(out.begin(), out.end(), '\n'));
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("printf"), std::string::npos);
  EXPECT_EQ(out.find("spanning"), std::string::npos);
  EXPECT_NE(out.find("int a = 1;"), std::string::npos);
  EXPECT_NE(out.find("char c ="), std::string::npos);
}

TEST(StripCommentsAndStrings, KeepsLineStructureInsideBlockComments) {
  const std::string out = StripCommentsAndStrings("a/*1\n2\n3*/b\n");
  EXPECT_EQ(3, std::count(out.begin(), out.end(), '\n'));
  EXPECT_EQ('a', out.front());
  EXPECT_NE(out.find('b'), std::string::npos);
}

TEST(ClassifyPath, MapsDirectoriesToKinds) {
  EXPECT_EQ(FileKind::kLibrary, ClassifyPath("src/merge/pair_merger.cc"));
  EXPECT_EQ(FileKind::kLibraryObs, ClassifyPath("src/obs/metrics.cc"));
  EXPECT_EQ(FileKind::kOther, ClassifyPath("tests/planner_test.cc"));
  EXPECT_EQ(FileKind::kOther, ClassifyPath("bench/bench_merge.cc"));
  EXPECT_EQ(FileKind::kOther, ClassifyPath("scripts/gen_tables.cc"));
  EXPECT_EQ(FileKind::kOther, ClassifyPath("tools/qsp_demo/main.cc"));
}

TEST(ClassifyPath, InnerSrcDirectoryIsNotLibraryCode) {
  // Paths are root-relative and only the leading directory counts, so a
  // `src/` deeper in the path (or above the checkout) changes nothing.
  EXPECT_EQ(FileKind::kOther, ClassifyPath("tests/src/fake_merger.cc"));
  EXPECT_EQ(FileKind::kOther, ClassifyPath("tools/lint/src/obs/clock.h"));
  EXPECT_EQ(FileKind::kOther,
            ClassifyPath("/work/src/qsp/bench/bench_fig15.cc"));
}

TEST(CollectStatusReturners, DemotesAmbiguousNames) {
  SourceFile a;
  a.path = "src/a.h";
  a.content =
      "namespace qsp {\n"
      "Status Flush();\n"
      "Result<int> Insert(int row);\n"
      "}\n";
  SourceFile b;
  b.path = "src/b.h";
  b.content =
      "namespace qsp {\n"
      "void Insert(double x, double y);\n"
      "}\n";
  const std::set<std::string> returners = CollectStatusReturners({a, b});
  EXPECT_TRUE(returners.count("Flush"));
  // Insert is declared with a non-Status return somewhere, so a bare
  // `x.Insert(...)` statement cannot be assumed to drop a Status.
  EXPECT_FALSE(returners.count("Insert"));
}

TEST(LintFixtures, DiscardedStatus) {
  const auto got = LinesAndRules(
      LintFixture("bad/discarded_status.cc", FileKind::kLibrary));
  const Expected want = {{20, "discarded-status"},
                         {21, "discarded-status"},
                         {22, "discarded-status"},
                         {23, "discarded-status"}};
  EXPECT_EQ(want, got);
}

TEST(LintFixtures, DiscardedStatusFiresEvenInTests) {
  // discarded-status is the one rule that applies to kOther files too.
  const auto got = LinesAndRules(
      LintFixture("bad/discarded_status.cc", FileKind::kOther));
  EXPECT_EQ(4u, got.size());
  for (const auto& [line, rule] : got) EXPECT_EQ("discarded-status", rule);
}

TEST(LintFixtures, Nondeterminism) {
  const auto got = LinesAndRules(
      LintFixture("bad/nondeterminism.cc", FileKind::kLibrary));
  const Expected want = {{11, "nondeterminism"},
                         {12, "nondeterminism"},
                         {16, "nondeterminism"},
                         {17, "nondeterminism"}};
  EXPECT_EQ(want, got);
}

TEST(LintFixtures, NondeterminismExemptInObsLayer) {
  // src/obs/ owns the clocks: the same file linted as kLibraryObs is clean.
  EXPECT_TRUE(
      LintFixture("bad/nondeterminism.cc", FileKind::kLibraryObs).empty());
}

TEST(LintFixtures, NondeterminismExemptInBenches) {
  EXPECT_TRUE(LintFixture("bad/nondeterminism.cc", FileKind::kOther).empty());
}

TEST(LintFixtures, UnorderedIteration) {
  const auto got = LinesAndRules(
      LintFixture("bad/unordered_iter.cc", FileKind::kLibrary));
  const Expected want = {{15, "unordered-iter"}, {18, "unordered-iter"}};
  EXPECT_EQ(want, got);
}

TEST(LintFixtures, UngatedKnob) {
  const auto got = LinesAndRules(
      LintFixture("bad/ungated_knob.cc", FileKind::kLibrary));
  const Expected want = {{19, "ungated-knob"},
                         {19, "ungated-knob"},
                         {23, "ungated-knob"},
                         {27, "ungated-knob"}};
  EXPECT_EQ(want, got);
}

TEST(LintFixtures, LibraryIo) {
  const auto got =
      LinesAndRules(LintFixture("bad/library_io.cc", FileKind::kLibrary));
  const Expected want = {{9, "library-io"},
                         {10, "library-io"},
                         {11, "library-io"}};
  EXPECT_EQ(want, got);
}

TEST(LintFixtures, LibraryIoExemptOutsideLibrary) {
  // Benches and tools print to stdout on purpose.
  EXPECT_TRUE(LintFixture("bad/library_io.cc", FileKind::kOther).empty());
}

TEST(LintFixtures, MetricName) {
  const auto got =
      LinesAndRules(LintFixture("bad/metric_name.cc", FileKind::kLibrary));
  const Expected want = {{8, "metric-name"},
                         {9, "metric-name"},
                         {10, "metric-name"},
                         {11, "metric-name"},
                         {12, "metric-name"},
                         {13, "metric-name"},
                         {14, "metric-name"},
                         {15, "metric-name"},
                         {16, "metric-name"}};
  EXPECT_EQ(want, got);
}

TEST(LintFixtures, MetricNameAppliesInObsLayerToo) {
  // The obs layer is exempt from nondeterminism, not from naming.
  const auto got =
      LinesAndRules(LintFixture("bad/metric_name.cc", FileKind::kLibraryObs));
  EXPECT_EQ(9u, got.size());
  for (const auto& [line, rule] : got) EXPECT_EQ("metric-name", rule);
}

TEST(LintFixtures, MetricNameExemptOutsideLibrary) {
  // Tests and benches may register whatever scratch names they like.
  EXPECT_TRUE(LintFixture("bad/metric_name.cc", FileKind::kOther).empty());
}

TEST(LintFixtures, GoodCorpusIsClean) {
  for (const std::string rel :
       {"good/clean_library.cc", "good/suppressed.cc",
        "good/metric_names.cc"}) {
    const auto findings = LintFixture(rel, FileKind::kLibrary);
    EXPECT_TRUE(findings.empty())
        << rel << ": " << findings.size() << " unexpected finding(s), first: "
        << (findings.empty() ? "" : findings[0].rule);
  }
}

TEST(LintFixtures, SuppressionMarkerIsRuleSpecific) {
  // allow(nondeterminism) must not silence a different rule on that line.
  SourceFile file;
  file.path = "src/x.cc";
  file.kind = FileKind::kLibrary;
  file.content =
      "namespace qsp { class Status {}; Status Flush();\n"
      "void F() {\n"
      "  Flush();  // qsp-lint: allow(nondeterminism) wrong rule\n"
      "  Flush();  // qsp-lint: allow(discarded-status) shutdown path\n"
      "}\n"
      "}\n";
  const LintResult result = Lint({file}, LayerSpec());
  const Expected want = {{3, "discarded-status"}};
  EXPECT_EQ(want, LinesAndRules(result.findings));
  EXPECT_EQ(1u, result.suppressed);
}

TEST(LintFixtures, FindingsSortedByFileAndLine) {
  SourceFile a;
  a.path = "src/b.cc";
  a.kind = FileKind::kLibrary;
  a.content = "void F() { rand(); }\n";
  SourceFile b;
  b.path = "src/a.cc";
  b.kind = FileKind::kLibrary;
  b.content = "void G() {\n  rand();\n}\n";
  const auto findings = Lint({a, b}, LayerSpec()).findings;
  ASSERT_EQ(2u, findings.size());
  EXPECT_EQ("src/a.cc", findings[0].file);
  EXPECT_EQ(2, findings[0].line);
  EXPECT_EQ("src/b.cc", findings[1].file);
}

}  // namespace
}  // namespace lint
}  // namespace qsp
