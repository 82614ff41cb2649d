#include "lint/sarif.h"

#include "util/json_writer.h"

namespace qsp {
namespace lint {
namespace {

struct RuleDoc {
  const char* id;
  const char* description;
};

// Every rule qsp_lint can emit, in catalogue order. SARIF
// results reference rules by id (not index), so the order only affects
// the document, not consumers.
const RuleDoc kRules[] = {
    {"discarded-status",
     "qsp::Status / qsp::Result return value dropped without "
     "QSP_IGNORE_RESULT"},
    {"nondeterminism",
     "wall clock or ambient randomness in library code outside src/obs/"},
    {"unordered-iter",
     "range-for over an unordered container in library code"},
    {"ungated-knob",
     "ServiceConfig knob read outside its gate or outside src/core/"},
    {"library-io", "stdout I/O in library code"},
    {"metric-name",
     "metric or span literal violating the naming convention"},
    {"layer-back-edge",
     "include against the declared layer DAG (lower layer includes a "
     "higher one)"},
    {"layer-undeclared",
     "src/ subsystem missing from docs/layers.conf"},
    {"include-cycle", "cycle in the file-level include graph"},
    {"unused-include",
     "project include contributing no referenced name (dead or "
     "transitive-only)"},
};

}  // namespace

std::string FindingsToSarif(const std::vector<Finding>& findings,
                            const std::string& tool_version) {
  JsonWriter w;
  w.BeginObject();
  w.Key("$schema").String(
      "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json");
  w.Key("version").String("2.1.0");
  w.Key("runs").BeginArray();
  w.BeginObject();
  w.Key("tool").BeginObject();
  w.Key("driver").BeginObject();
  w.Key("name").String("qsp_lint");
  w.Key("version").String(tool_version);
  w.Key("informationUri")
      .String("https://example.invalid/qsp/DESIGN.md#14-the-project-checker");
  w.Key("rules").BeginArray();
  for (const RuleDoc& rule : kRules) {
    w.BeginObject();
    w.Key("id").String(rule.id);
    w.Key("shortDescription").BeginObject();
    w.Key("text").String(rule.description);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();  // rules
  w.EndObject();  // driver
  w.EndObject();  // tool
  w.Key("results").BeginArray();
  for (const Finding& f : findings) {
    w.BeginObject();
    w.Key("ruleId").String(f.rule);
    w.Key("level").String("error");
    w.Key("message").BeginObject();
    w.Key("text").String(f.message);
    w.EndObject();
    w.Key("locations").BeginArray();
    w.BeginObject();
    w.Key("physicalLocation").BeginObject();
    w.Key("artifactLocation").BeginObject();
    w.Key("uri").String(f.file);
    w.EndObject();
    w.Key("region").BeginObject();
    w.Key("startLine").Int(f.line);
    w.EndObject();
    w.EndObject();  // physicalLocation
    w.EndObject();  // location
    w.EndArray();   // locations
    w.EndObject();  // result
  }
  w.EndArray();   // results
  w.EndObject();  // run
  w.EndArray();   // runs
  w.EndObject();
  return w.str();
}

}  // namespace lint
}  // namespace qsp
