// Tests for tools/lint's include and layer rules (DESIGN.md §14): the
// layer spec parser, the include-graph rules, the suppression and
// ordering of the checker's one entry point, Lint(), and the SARIF
// writer (round-tripped through src/util/json_parser). Every fixture
// expectation pins exact (line, rule) pairs against
// tests/lint_fixtures/{good,bad}/.
#include "lint/lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint/include_graph.h"
#include "lint/sarif.h"
#include "util/json_parser.h"

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

// A fixture file re-homed at a corpus path, so the layering rules see
// it as part of the src/ tree it pretends to live in.
SourceFile FixtureAt(const std::string& rel, const std::string& as_path) {
  SourceFile file;
  file.path = as_path;
  file.content = ReadFixture(rel);
  file.kind = ClassifyPath(as_path);
  return file;
}

SourceFile InlineFile(const std::string& path, const std::string& content) {
  SourceFile file;
  file.path = path;
  file.content = content;
  file.kind = ClassifyPath(path);
  return file;
}

// The stub lower-layer header several fixtures include.
SourceFile HelperStub() {
  return InlineFile("src/util/helper.h",
                    "namespace qsp {\n"
                    "int HelperValue();\n"
                    "}\n");
}

std::vector<std::pair<int, std::string>> LinesAndRules(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<int, std::string>> out;
  for (const Finding& f : findings) out.emplace_back(f.line, f.rule);
  std::sort(out.begin(), out.end());
  return out;
}

using Expected = std::vector<std::pair<int, std::string>>;

// The miniature layer DAG the include fixtures are written against — a
// slice of docs/layers.conf with the same shape.
LayerSpec TestSpec() {
  LayerSpec spec;
  std::string error;
  const bool ok = ParseLayerSpec(
      "layer util 0\n"
      "layer geom 10\n"
      "layer merge 40\n"
      "crosscut obs\n",
      &spec, &error);
  EXPECT_TRUE(ok) << error;
  return spec;
}

// ------------------------------------------------------------ layer spec

TEST(ParseLayerSpec, ParsesLayersCrosscutsAndComments) {
  LayerSpec spec;
  std::string error;
  ASSERT_TRUE(ParseLayerSpec(
      "# comment\n\nlayer util 0\nlayer core 60  # trailing\ncrosscut obs\n",
      &spec, &error))
      << error;
  EXPECT_EQ(0, spec.rank.at("util"));
  EXPECT_EQ(60, spec.rank.at("core"));
  EXPECT_TRUE(spec.crosscut.count("obs"));
  EXPECT_TRUE(spec.declared("obs"));
  EXPECT_FALSE(spec.declared("nope"));
}

TEST(ParseLayerSpec, RejectsMalformedInput) {
  LayerSpec spec;
  std::string error;
  EXPECT_FALSE(ParseLayerSpec("layer util zero\n", &spec, &error));
  EXPECT_FALSE(ParseLayerSpec("frob util 0\n", &spec, &error));
  EXPECT_FALSE(ParseLayerSpec("layer util 0\nlayer util 1\n", &spec, &error));
}

TEST(LayerOfPath, ExtractsSrcSubsystem) {
  EXPECT_EQ("geom", LayerOf("src/geom/rect.h"));
  EXPECT_EQ("util", LayerOf("src/util/status.h"));
  EXPECT_EQ("", LayerOf("tools/qspctl.cc"));
  EXPECT_EQ("", LayerOf("bench/bench_merge.cc"));
  // Only a leading src/ names a layer.
  EXPECT_EQ("", LayerOf("tests/src/geom/rect.h"));
}

// --------------------------------------------------------- include rules

TEST(AuditFixtures, LayerBackEdge) {
  const std::vector<SourceFile> corpus = {
      FixtureAt("bad/layer_back_edge.cc", "src/geom/uses_merge.cc"),
      InlineFile("src/merge/planner_stub.h",
                 "namespace qsp {\n"
                 "double PlannerStubCost();\n"
                 "}\n"),
  };
  const auto got = LinesAndRules(CheckIncludes(corpus, TestSpec()));
  const Expected want = {{5, "layer-back-edge"}};
  EXPECT_EQ(want, got);
}

TEST(AuditFixtures, LayerUndeclaredForcesADecision) {
  const std::vector<SourceFile> corpus = {
      InlineFile("src/newthing/widget.cc", "namespace qsp {\nint W();\n}\n"),
  };
  const auto got = LinesAndRules(CheckIncludes(corpus, TestSpec()));
  ASSERT_EQ(1u, got.size());
  EXPECT_EQ("layer-undeclared", got[0].second);
}

TEST(AuditFixtures, CrosscutLayerIsExemptBothDirections) {
  // geom -> obs would be a back-edge if obs had a rank; as a crosscut
  // layer it is allowed, and obs may reach up into merge too.
  const std::vector<SourceFile> corpus = {
      InlineFile("src/geom/traced.cc",
                 "#include \"obs/probe.h\"\n"
                 "namespace qsp {\nint T() { return ProbeId(); }\n}\n"),
      InlineFile("src/obs/probe.h",
                 "#include \"merge/planner_stub.h\"\n"
                 "namespace qsp {\nint ProbeId();\n"
                 "double Uses() { return PlannerStubCost(); }\n}\n"),
      InlineFile("src/merge/planner_stub.h",
                 "namespace qsp {\ndouble PlannerStubCost();\n}\n"),
  };
  EXPECT_TRUE(CheckIncludes(corpus, TestSpec()).empty());
}

TEST(AuditFixtures, IncludeCycle) {
  const std::vector<SourceFile> corpus = {
      FixtureAt("bad/cycle_a.h", "src/util/cycle_a.h"),
      FixtureAt("bad/cycle_b.h", "src/util/cycle_b.h"),
  };
  const auto findings = CheckIncludes(corpus, TestSpec());
  const auto got = LinesAndRules(findings);
  const Expected want = {{7, "include-cycle"}};
  EXPECT_EQ(want, got);
  ASSERT_EQ(1u, findings.size());
  EXPECT_EQ("src/util/cycle_a.h", findings[0].file);
}

TEST(AuditFixtures, UnusedInclude) {
  const std::vector<SourceFile> corpus = {
      FixtureAt("bad/unused_include.cc", "src/util/unused.cc"),
      HelperStub(),
  };
  const auto got = LinesAndRules(CheckIncludes(corpus, TestSpec()));
  const Expected want = {{6, "unused-include"}};
  EXPECT_EQ(want, got);

  // A header used only for what it includes is named transitive-only;
  // the wrapper's own include of the helper is plain dead weight.
  const std::vector<SourceFile> chain = {
      InlineFile("src/geom/wrapper.h",
                 "#include \"util/helper.h\"\n"
                 "namespace qsp {\nint WrapperValue();\n}\n"),
      InlineFile("src/geom/uses_wrapper.cc",
                 "#include \"geom/wrapper.h\"\n"
                 "namespace qsp {\nint U() { return HelperValue(); }\n}\n"),
      HelperStub(),
  };
  const std::vector<Finding> findings = CheckIncludes(chain, TestSpec());
  ASSERT_EQ(2u, findings.size());
  for (const Finding& f : findings) {
    EXPECT_EQ("unused-include", f.rule);
    EXPECT_EQ(f.file == "src/geom/uses_wrapper.cc",
              f.message.find("only transitively used") != std::string::npos)
        << f.file << ": " << f.message;
  }
}

TEST(AuditFixtures, GoodIncludeCorpusIsClean) {
  const std::vector<SourceFile> corpus = {
      FixtureAt("good/includes_ok.cc", "src/geom/uses_util.cc"),
      HelperStub(),
  };
  const auto findings = CheckIncludes(corpus, TestSpec());
  EXPECT_TRUE(findings.empty())
      << findings.size() << " unexpected finding(s), first: "
      << (findings.empty() ? "" : findings[0].rule);
}

// ---------------------------------------------- Lint() + suppression

TEST(LintEntryPoint, AppliesSameLineAllowMarkers) {
  const std::vector<SourceFile> corpus = {
      InlineFile("src/geom/suppressed.cc",
                 "#include \"merge/planner_stub.h\"  "
                 "// qsp-lint: allow(layer-back-edge) fixture rationale\n"
                 "namespace qsp {\n"
                 "double G() { return PlannerStubCost(); }\n"
                 "}\n"),
      InlineFile("src/merge/planner_stub.h",
                 "namespace qsp {\ndouble PlannerStubCost();\n}\n"),
  };
  const LintResult result = Lint(corpus, TestSpec());
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(1u, result.suppressed);
}

TEST(LintEntryPoint, MarkerForOtherRuleDoesNotSuppress) {
  const std::vector<SourceFile> corpus = {
      InlineFile("src/geom/wrong_marker.cc",
                 "#include \"merge/planner_stub.h\"  "
                 "// qsp-lint: allow(unused-include) wrong rule\n"
                 "namespace qsp {\n"
                 "double G() { return PlannerStubCost(); }\n"
                 "}\n"),
      InlineFile("src/merge/planner_stub.h",
                 "namespace qsp {\ndouble PlannerStubCost();\n}\n"),
  };
  const LintResult result = Lint(corpus, TestSpec());
  const Expected want = {{1, "layer-back-edge"}};
  EXPECT_EQ(want, LinesAndRules(result.findings));
  EXPECT_EQ(0u, result.suppressed);
}

TEST(LintEntryPoint, SortsFindingsByFileThenLine) {
  // CheckIncludes reports rule by rule (every layer finding, then
  // cycles, then unused includes); Lint() orders them by file, then
  // line, across files and within one.
  const std::vector<SourceFile> corpus = {
      FixtureAt("bad/unused_include.cc", "src/util/unused.cc"),
      InlineFile("src/geom/mixed.cc",
                 "#include \"util/helper.h\"\n"
                 "#include \"merge/planner_stub.h\"\n"
                 "namespace qsp {\n"
                 "double M() { return PlannerStubCost(); }\n"
                 "}\n"),
      FixtureAt("bad/layer_back_edge.cc", "src/geom/uses_merge.cc"),
      InlineFile("src/merge/planner_stub.h",
                 "namespace qsp {\ndouble PlannerStubCost();\n}\n"),
      HelperStub(),
  };
  std::vector<std::tuple<std::string, int, std::string>> got;
  for (const Finding& f : Lint(corpus, TestSpec()).findings)
    got.emplace_back(f.file, f.line, f.rule);
  const decltype(got) want = {
      {"src/geom/mixed.cc", 1, "unused-include"},
      {"src/geom/mixed.cc", 2, "layer-back-edge"},
      {"src/geom/uses_merge.cc", 5, "layer-back-edge"},
      {"src/util/unused.cc", 6, "unused-include"},
  };
  EXPECT_EQ(want, got);
}

// ----------------------------------------------------------------- SARIF

TEST(Sarif, RoundTripsThroughJsonParser) {
  Finding a;
  a.file = "src/geom/uses_merge.cc";
  a.line = 5;
  a.rule = "layer-back-edge";
  a.message = "geom (rank 10) includes merge (rank 40)";
  Finding b;
  b.file = "src/util/cycle_a.h";
  b.line = 7;
  b.rule = "include-cycle";
  b.message =
      "include cycle: src/util/cycle_a.h -> src/util/cycle_b.h -> "
      "src/util/cycle_a.h";

  const std::string sarif = FindingsToSarif({a, b}, "1.0");
  const Result<JsonValue> parsed = ParseJson(sarif);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& root = parsed.value();

  ASSERT_NE(nullptr, root.Find("$schema"));
  EXPECT_EQ("2.1.0", root.Find("version")->AsString());

  const auto& runs = root.Find("runs")->AsArray();
  ASSERT_EQ(1u, runs.size());
  const JsonValue& driver = *runs[0].Find("tool")->Find("driver");
  EXPECT_EQ("qsp_lint", driver.Find("name")->AsString());
  EXPECT_EQ("1.0", driver.Find("version")->AsString());

  // The rule catalogue lists every id qsp_lint (six rules) and the
  // include graph (four) can emit, once each.
  const auto& rules = driver.Find("rules")->AsArray();
  std::vector<std::string> ids;
  for (const JsonValue& rule : rules)
    ids.push_back(rule.Find("id")->AsString());
  EXPECT_EQ(10u, ids.size());
  for (const char* id : {"discarded-status", "layer-back-edge",
                         "layer-undeclared", "include-cycle",
                         "unused-include"}) {
    EXPECT_EQ(1, std::count(ids.begin(), ids.end(), id)) << id;
  }

  const auto& results = runs[0].Find("results")->AsArray();
  ASSERT_EQ(2u, results.size());
  EXPECT_EQ("layer-back-edge", results[0].Find("ruleId")->AsString());
  EXPECT_EQ("error", results[0].Find("level")->AsString());
  EXPECT_EQ(a.message, results[0].Find("message")->Find("text")->AsString());
  const JsonValue& loc =
      *results[0].Find("locations")->AsArray()[0].Find("physicalLocation");
  EXPECT_EQ("src/geom/uses_merge.cc",
            loc.Find("artifactLocation")->Find("uri")->AsString());
  EXPECT_EQ(5, static_cast<int>(
                   loc.Find("region")->Find("startLine")->AsNumber()));
}

TEST(Sarif, OneEntryPointLogsPerFileAndIncludeFindings) {
  // One Lint() run over one corpus: the per-file library-io findings and
  // the include-cycle finding land in the same SARIF log.
  const std::vector<SourceFile> corpus = {
      FixtureAt("bad/cycle_a.h", "src/util/cycle_a.h"),
      FixtureAt("bad/cycle_b.h", "src/util/cycle_b.h"),
      FixtureAt("bad/library_io.cc", "src/util/progress.cc"),
  };
  const LintResult result = Lint(corpus, TestSpec());
  const Result<JsonValue> parsed =
      ParseJson(FindingsToSarif(result.findings, "1.0"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  std::vector<std::tuple<std::string, int, std::string>> got;
  for (const JsonValue& r :
       parsed.value().Find("runs")->AsArray()[0].Find("results")->AsArray()) {
    const JsonValue& loc =
        *r.Find("locations")->AsArray()[0].Find("physicalLocation");
    got.emplace_back(
        loc.Find("artifactLocation")->Find("uri")->AsString(),
        static_cast<int>(loc.Find("region")->Find("startLine")->AsNumber()),
        r.Find("ruleId")->AsString());
  }
  const decltype(got) want = {
      {"src/util/cycle_a.h", 7, "include-cycle"},
      {"src/util/progress.cc", 9, "library-io"},
      {"src/util/progress.cc", 10, "library-io"},
      {"src/util/progress.cc", 11, "library-io"},
  };
  EXPECT_EQ(want, got);
}

TEST(Sarif, EmptyFindingsStillProducesAValidRun) {
  const std::string sarif = FindingsToSarif({}, "1.0");
  const Result<JsonValue> parsed = ParseJson(sarif);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const auto& runs = parsed.value().Find("runs")->AsArray();
  ASSERT_EQ(1u, runs.size());
  EXPECT_TRUE(runs[0].Find("results")->AsArray().empty());
}

}  // namespace
}  // namespace lint
}  // namespace qsp
