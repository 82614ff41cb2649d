#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <tuple>
#include <utility>

#include "lint/include_graph.h"

namespace qsp {
namespace lint {

namespace text {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

bool WordAt(const std::string& s, size_t pos, const std::string& word) {
  if (s.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && IsWordChar(s[pos - 1])) return false;
  const size_t end = pos + word.size();
  return end >= s.size() || !IsWordChar(s[end]);
}

size_t SkipSpaces(const std::string& s, size_t pos) {
  while (pos < s.size() && IsSpace(s[pos])) ++pos;
  return pos;
}

std::string ReadIdent(const std::string& s, size_t pos) {
  size_t end = pos;
  while (end < s.size() && IsWordChar(s[end])) ++end;
  if (end == pos || std::isdigit(static_cast<unsigned char>(s[pos])) != 0) {
    return std::string();
  }
  return s.substr(pos, end - pos);
}

int LineOf(const std::string& s, size_t pos) {
  return 1 + static_cast<int>(std::count(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
}

}  // namespace text

namespace {

using text::IsSpace;
using text::IsWordChar;
using text::LineOf;
using text::ReadIdent;
using text::SkipSpaces;
using text::WordAt;

/// Skips a balanced template-argument list starting at the '<' at `pos`;
/// returns the offset one past the matching '>'. Understands '>>' closing
/// two levels and ignores '->'. Returns pos on mismatch (caller bails).
size_t SkipAngles(const std::string& s, size_t pos) {
  int depth = 0;
  size_t i = pos;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (i > 0 && s[i - 1] == '-') {
        ++i;
        continue;  // '->' inside a decltype or similar.
      }
      --depth;
      if (depth == 0) return i + 1;
    } else if (c == ';' || c == '{') {
      return pos;  // Ran off the declaration; not a template list.
    }
    ++i;
  }
  return pos;
}

const char* const kStatementKeywords[] = {
    "if",      "else",    "for",      "while",   "do",        "switch",
    "case",    "return",  "break",    "continue", "goto",     "throw",
    "new",     "delete",  "using",    "namespace", "template", "typedef",
    "public",  "private", "protected", "static_assert", "extern", "class",
    "struct",  "enum",    "union",    "friend",   "operator", "co_return",
    "co_await", "sizeof", "default",
};

bool IsStatementKeyword(const std::string& word) {
  for (const char* kw : kStatementKeywords) {
    if (word == kw) return true;
  }
  return false;
}

/// Per-line `// qsp-lint: allow(rule, rule)` suppression markers, parsed
/// from the raw file content (they live inside comments, which the
/// stripped text loses).
std::map<int, std::set<std::string>> CollectAllowMarkers(
    const std::string& raw) {
  std::map<int, std::set<std::string>> allows;
  int line = 1;
  size_t pos = 0;
  while (pos < raw.size()) {
    const size_t eol = raw.find('\n', pos);
    const size_t end = eol == std::string::npos ? raw.size() : eol;
    const size_t marker = raw.find("qsp-lint: allow(", pos);
    if (marker != std::string::npos && marker < end) {
      const size_t open = marker + std::string("qsp-lint: allow(").size();
      const size_t close = raw.find(')', open);
      if (close != std::string::npos && close < end) {
        std::string rules = raw.substr(open, close - open);
        size_t start = 0;
        while (start < rules.size()) {
          size_t comma = rules.find(',', start);
          if (comma == std::string::npos) comma = rules.size();
          std::string rule = rules.substr(start, comma - start);
          rule.erase(std::remove_if(rule.begin(), rule.end(), IsSpace),
                     rule.end());
          if (!rule.empty()) allows[line].insert(rule);
          start = comma + 1;
        }
      }
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
    ++line;
  }
  return allows;
}

/// Shared per-file scanning state.
struct FileScan {
  const SourceFile* file = nullptr;
  std::string stripped;
  std::vector<Finding>* findings = nullptr;

  void Report(size_t pos, const std::string& rule,
              const std::string& message) const {
    findings->push_back(
        Finding{file->path, LineOf(stripped, pos), rule, message});
  }
};

/// --------------------------------------------------- rule: discarded-status

/// Parses a member-access call chain candidate ending at the first '(' of
/// `text` (offsets relative to `text`): the identifier directly before the
/// paren, reachable from the start through only identifiers, '.', '->',
/// '::', and whitespace. Returns empty when the shape does not match (a
/// declaration, an assignment, a keyword, ...).
std::string CallChainCandidate(const std::string& text, size_t* ident_offset) {
  const size_t paren = text.find('(');
  if (paren == std::string::npos) return std::string();
  // Identifier directly before the paren.
  size_t end = paren;
  while (end > 0 && IsSpace(text[end - 1])) --end;
  size_t start = end;
  while (start > 0 && IsWordChar(text[start - 1])) --start;
  if (start == end) return std::string();
  const std::string candidate = text.substr(start, end - start);
  if (IsStatementKeyword(candidate)) return std::string();
  // The prefix must be a pure member-access chain: `a.b->c::`.
  for (size_t i = 0; i < start; ++i) {
    const char c = text[i];
    if (IsWordChar(c) || IsSpace(c) || c == '.' || c == ':') continue;
    if (c == '-' && i + 1 < start && text[i + 1] == '>') continue;
    if (c == '>' && i > 0 && text[i - 1] == '-') continue;
    return std::string();
  }
  // ... and must not smuggle in a keyword: `return Status::OK(` is a
  // return statement, not a discarded call.
  for (size_t i = 0; i < start;) {
    if (!IsWordChar(text[i])) {
      ++i;
      continue;
    }
    size_t end_tok = i;
    while (end_tok < start && IsWordChar(text[end_tok])) ++end_tok;
    if (IsStatementKeyword(text.substr(i, end_tok - i))) return std::string();
    i = end_tok;
  }
  // A prefix ending in a bare identifier (`Status Foo(`) is a declaration,
  // not a call chain; require it to end with an access operator.
  size_t p = start;
  while (p > 0 && IsSpace(text[p - 1])) --p;
  if (p > 0) {
    const char c = text[p - 1];
    if (c != '.' && c != ':' && c != '>') return std::string();
  }
  *ident_offset = start;
  return candidate;
}

void CheckDiscardedStatus(const FileScan& scan,
                          const std::set<std::string>& returners) {
  const std::string& s = scan.stripped;
  static const std::string kRule = "discarded-status";

  // (a) Bare expression statements. A statement runs from the previous
  // ';', '{', or '}' to the next one; only ';'-terminated statements are
  // expression statements.
  size_t stmt_begin = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    const char c = i < s.size() ? s[i] : ';';
    if (c != ';' && c != '{' && c != '}') continue;
    if (c == ';') {
      const size_t begin = SkipSpaces(s, stmt_begin);
      if (begin < i && s[begin] != '#') {
        const std::string stmt = s.substr(begin, i - begin);
        size_t ident_offset = 0;
        const std::string candidate = CallChainCandidate(stmt, &ident_offset);
        if (!candidate.empty() && returners.count(candidate) > 0) {
          scan.Report(begin + ident_offset, kRule,
                      "result of '" + candidate +
                          "' (returns qsp::Status/Result) is discarded; "
                          "handle it or mark the drop with "
                          "QSP_IGNORE_RESULT(...)");
        }
      }
    }
    stmt_begin = i + 1;
  }

  // (b) Laundering through a void cast. QSP_IGNORE_RESULT is the blessed
  // spelling; a raw cast hides the drop from grep.
  for (size_t i = 0; i + 1 < s.size(); ++i) {
    size_t expr = std::string::npos;
    if (s[i] == '(' ) {
      size_t j = SkipSpaces(s, i + 1);
      if (WordAt(s, j, "void")) {
        j = SkipSpaces(s, j + 4);
        if (j < s.size() && s[j] == ')') expr = SkipSpaces(s, j + 1);
      }
    } else if (WordAt(s, i, "static_cast")) {
      size_t j = SkipSpaces(s, i + std::string("static_cast").size());
      if (j < s.size() && s[j] == '<') {
        j = SkipSpaces(s, j + 1);
        if (WordAt(s, j, "void")) {
          j = SkipSpaces(s, j + 4);
          if (j < s.size() && s[j] == '>') {
            j = SkipSpaces(s, j + 1);
            if (j < s.size() && s[j] == '(') expr = SkipSpaces(s, j + 1);
          }
        }
      }
    }
    if (expr == std::string::npos || expr >= s.size()) continue;
    // The cast operand up to the end of its (sub)statement.
    const size_t stop = s.find_first_of(";{}", expr);
    const std::string operand =
        s.substr(expr, (stop == std::string::npos ? s.size() : stop) - expr);
    size_t ident_offset = 0;
    const std::string candidate = CallChainCandidate(operand, &ident_offset);
    if (candidate.empty() || returners.count(candidate) == 0) continue;
    // QSP_IGNORE_RESULT itself expands to static_cast<void>; a call site
    // spelled through the macro carries the macro name on the same raw
    // line, which is the sanctioned form. (The macro's own definition in
    // util/status.h casts `expr`, never a real returner name, so it can
    // not reach this point either.)
    const int line = LineOf(s, expr);
    const std::string& raw = scan.file->content;
    size_t raw_pos = 0;
    for (int cur = 1; cur < line && raw_pos < raw.size(); ++raw_pos) {
      if (raw[raw_pos] == '\n') ++cur;
    }
    size_t raw_eol = raw.find('\n', raw_pos);
    if (raw_eol == std::string::npos) raw_eol = raw.size();
    if (raw.substr(raw_pos, raw_eol - raw_pos).find("QSP_IGNORE_RESULT") !=
        std::string::npos) {
      continue;
    }
    scan.Report(expr, kRule,
                "'" + candidate +
                    "' returns qsp::Status/Result; discarding through a raw "
                    "void cast hides the drop — use QSP_IGNORE_RESULT(...)");
  }
}

/// ----------------------------------------------------- rule: nondeterminism

void CheckNondeterminism(const FileScan& scan) {
  static const std::string kRule = "nondeterminism";
  const std::string& s = scan.stripped;
  static const char* const kBannedCalls[] = {
      "rand", "srand", "time", "clock", "gettimeofday", "timespec_get",
  };
  for (const char* fn : kBannedCalls) {
    const std::string name(fn);
    size_t pos = 0;
    while ((pos = s.find(name, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += name.size();
      if (!WordAt(s, here, name)) continue;
      const size_t after = SkipSpaces(s, here + name.size());
      if (after >= s.size() || s[after] != '(') continue;
      scan.Report(here, kRule,
                  "'" + name +
                      "()' is a nondeterminism source; library code must "
                      "draw randomness from a seeded qsp::Rng and must not "
                      "read wall clocks outside src/obs/");
    }
  }
  // std::random_device: nondeterministic by definition.
  size_t pos = 0;
  while ((pos = s.find("random_device", pos)) != std::string::npos) {
    const size_t here = pos;
    pos += std::string("random_device").size();
    if (!WordAt(s, here, "random_device")) continue;
    scan.Report(here, kRule,
                "std::random_device is a nondeterminism source; seed a "
                "qsp::Rng from configuration instead");
  }
  // <chrono> clock reads: any `<something>clock::now(`.
  pos = 0;
  while ((pos = s.find("::", pos)) != std::string::npos) {
    const size_t sep = pos;
    pos += 2;
    size_t after = SkipSpaces(s, sep + 2);
    if (!WordAt(s, after, "now")) continue;
    const size_t call = SkipSpaces(s, after + 3);
    if (call >= s.size() || s[call] != '(') continue;
    // Identifier before '::' must end in "clock".
    size_t end = sep;
    while (end > 0 && IsSpace(s[end - 1])) --end;
    size_t start = end;
    while (start > 0 && IsWordChar(s[start - 1])) --start;
    const std::string owner = s.substr(start, end - start);
    if (owner.size() < 5 || owner.compare(owner.size() - 5, 5, "clock") != 0) {
      continue;
    }
    scan.Report(start, kRule,
                "'" + owner +
                    "::now()' reads a wall clock; timing belongs to the "
                    "qsp::obs layer (src/obs/), not library code");
  }
}

/// ----------------------------------------------------- rule: unordered-iter

void CheckUnorderedIteration(const FileScan& scan) {
  static const std::string kRule = "unordered-iter";
  const std::string& s = scan.stripped;
  static const char* const kTypes[] = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset",
  };
  // Names declared with an unordered container type in this file.
  std::set<std::string> unordered_names;
  for (const char* type : kTypes) {
    const std::string name(type);
    size_t pos = 0;
    while ((pos = s.find(name, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += name.size();
      if (!WordAt(s, here, name)) continue;
      size_t j = SkipSpaces(s, here + name.size());
      if (j >= s.size() || s[j] != '<') continue;
      const size_t past = SkipAngles(s, j);
      if (past == j) continue;
      j = SkipSpaces(s, past);
      while (j < s.size() && (s[j] == '&' || s[j] == '*')) j = SkipSpaces(s, j + 1);
      const std::string ident = ReadIdent(s, j);
      if (!ident.empty()) unordered_names.insert(ident);
    }
  }
  if (unordered_names.empty()) return;

  // Range-fors whose range expression names one of them.
  size_t pos = 0;
  while ((pos = s.find("for", pos)) != std::string::npos) {
    const size_t here = pos;
    pos += 3;
    if (!WordAt(s, here, "for")) continue;
    size_t open = SkipSpaces(s, here + 3);
    if (open >= s.size() || s[open] != '(') continue;
    // Find the ':' of a range-for at paren depth 1 ('::' excluded).
    int depth = 0;
    size_t colon = std::string::npos;
    size_t close = std::string::npos;
    for (size_t i = open; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '(') ++depth;
      if (c == ')') {
        --depth;
        if (depth == 0) {
          close = i;
          break;
        }
      }
      if (c == ':' && depth == 1 && colon == std::string::npos) {
        const bool dbl = (i + 1 < s.size() && s[i + 1] == ':') ||
                         (i > 0 && s[i - 1] == ':');
        if (!dbl) colon = i;
      }
      if (c == ';') break;  // Classic three-clause for.
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    const std::string range = s.substr(colon + 1, close - colon - 1);
    for (size_t i = 0; i < range.size();) {
      if (!IsWordChar(range[i])) {
        ++i;
        continue;
      }
      size_t end = i;
      while (end < range.size() && IsWordChar(range[end])) ++end;
      const std::string word = range.substr(i, end - i);
      if (unordered_names.count(word) > 0) {
        scan.Report(colon + 1 + i, kRule,
                    "range-for over unordered container '" + word +
                        "': iteration order is unspecified and must never "
                        "feed a planner decision; iterate a sorted copy or "
                        "an ordered index");
        break;
      }
      i = end;
    }
  }
}

/// ------------------------------------------------------- rule: ungated-knob

void CheckUngatedKnobs(const FileScan& scan) {
  static const std::string kRule = "ungated-knob";
  const std::string& s = scan.stripped;
  static const char* const kConfigNames[] = {"config", "config_", "cfg"};
  static const char* const kKnobs[] = {
      "fault", "telemetry", "pruning", "client_cache", "threads",
  };
  const bool in_core = scan.file->path.rfind("src/core/", 0) == 0;
  const bool has_gate = s.find("Engaged") != std::string::npos;

  for (const char* cfg : kConfigNames) {
    const std::string base(cfg);
    size_t pos = 0;
    while ((pos = s.find(base, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += base.size();
      if (!WordAt(s, here, base)) continue;
      size_t j = SkipSpaces(s, here + base.size());
      if (j >= s.size() || s[j] != '.') continue;
      j = SkipSpaces(s, j + 1);
      const std::string member = ReadIdent(s, j);
      bool is_knob = false;
      for (const char* knob : kKnobs) is_knob = is_knob || member == knob;
      if (!is_knob) continue;
      size_t after = SkipSpaces(s, j + member.size());

      // Writes configure the knob; only reads must be gated.
      const bool is_write = after < s.size() && s[after] == '=' &&
                            (after + 1 >= s.size() || s[after + 1] != '=');
      if (is_write) continue;

      if (member == "fault" && after < s.size() && s[after] == '.') {
        // Reading a FaultPolicy field through the config: legal only in a
        // file that also consults the Engaged() gate. Writes configure
        // the policy and are always fine.
        const size_t f = SkipSpaces(s, after + 1);
        const std::string field = ReadIdent(s, f);
        const size_t fa = SkipSpaces(s, f + field.size());
        const bool field_write = fa < s.size() && s[fa] == '=' &&
                                 (fa + 1 >= s.size() || s[fa + 1] != '=');
        if (field_write) continue;
        if (field != "Engaged" && !has_gate) {
          scan.Report(here, kRule,
                      "reads ServiceConfig::fault." + field +
                          " without consulting FaultPolicy::Engaged(); the "
                          "kill switch must gate every use of the knob");
        }
        continue;
      }
      if (!in_core) {
        scan.Report(here, kRule,
                    "ServiceConfig::" + member +
                        " read outside src/core/; feature knobs are "
                        "resolved once at the service boundary and passed "
                        "down as plain values");
      }
    }
  }
}

/// --------------------------------------------------------- rule: library-io

void CheckLibraryIo(const FileScan& scan) {
  static const std::string kRule = "library-io";
  const std::string& s = scan.stripped;
  size_t pos = 0;
  while ((pos = s.find("cout", pos)) != std::string::npos) {
    const size_t here = pos;
    pos += 4;
    if (!WordAt(s, here, "cout")) continue;
    scan.Report(here, kRule,
                "std::cout in library code; output goes through qsp::obs "
                "or the table printers (benches and tools own stdout)");
  }
  static const char* const kBannedIo[] = {"printf", "puts", "putchar"};
  for (const char* fn : kBannedIo) {
    const std::string name(fn);
    pos = 0;
    while ((pos = s.find(name, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += name.size();
      if (!WordAt(s, here, name)) continue;
      const size_t after = SkipSpaces(s, here + name.size());
      if (after >= s.size() || s[after] != '(') continue;
      scan.Report(here, kRule,
                  "'" + name +
                      "()' writes to stdout from library code; use "
                      "qsp::obs, a table printer, or fprintf(stderr, ...) "
                      "for fatal diagnostics");
    }
  }
}

/// -------------------------------------------------------- rule: metric-name

bool IsLowerAlnumSegChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
         c == '-';
}

/// `subsystem.noun[.verb[.qualifier]]`: 2..4 dot-separated segments of
/// [a-z0-9_-]; the first segment starts with a letter, later segments may
/// start with a digit (p50-style leaves).
bool ValidMetricName(const std::string& name) {
  size_t segments = 0;
  size_t i = 0;
  while (true) {
    const size_t start = i;
    while (i < name.size() && name[i] != '.') ++i;
    if (i == start) return false;  // Empty segment.
    const char first = name[start];
    if (segments == 0 && !(first >= 'a' && first <= 'z')) return false;
    for (size_t j = start; j < i; ++j) {
      if (!IsLowerAlnumSegChar(name[j])) return false;
    }
    ++segments;
    if (i == name.size()) break;
    ++i;  // Skip the dot.
  }
  return segments >= 2 && segments <= 4;
}

/// Span names are slash-separated lowercase segments ("plan",
/// "broadcast/ch3"). `concatenated` marks a literal that is only the
/// prefix of a runtime-built name ("retx" + std::to_string(n)), where a
/// trailing '/' or partial segment is fine.
bool ValidSpanName(const std::string& name, bool concatenated) {
  if (name.empty()) return false;
  if (!(name[0] >= 'a' && name[0] <= 'z')) return false;
  for (char c : name) {
    if (!IsLowerAlnumSegChar(c) && c != '/') return false;
  }
  if (!concatenated && (name.back() == '/' || name.find("//") != std::string::npos)) {
    return false;
  }
  return true;
}

struct ObsApi {
  const char* name;
  bool is_span;      // Span convention instead of metric convention.
  bool needs_member; // Must be reached via '.'/'->' (registry accessors).
  bool needs_scope;  // Must be reached via '::' (free functions).
};

void CheckMetricNames(const FileScan& scan) {
  static const std::string kRule = "metric-name";
  const std::string& s = scan.stripped;
  const std::string& raw = scan.file->content;
  static const ObsApi kApis[] = {
      {"Count", false, false, true},     {"SetGauge", false, false, true},
      {"Observe", false, false, true},   {"ScopedTimer", false, false, false},
      {"counter", false, true, false},   {"gauge", false, true, false},
      {"histogram", false, true, false}, {"ScopedSpan", true, false, false},
      {"Begin", true, true, false},
  };
  for (const ObsApi& api : kApis) {
    const std::string name(api.name);
    size_t pos = 0;
    while ((pos = s.find(name, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += name.size();
      if (!WordAt(s, here, name)) continue;
      if (api.needs_member || api.needs_scope) {
        size_t before = here;
        while (before > 0 && IsSpace(s[before - 1])) --before;
        if (before == 0) continue;
        const char prev = s[before - 1];
        if (api.needs_member && prev != '.' && prev != '>') continue;
        if (api.needs_scope && prev != ':') continue;
      }
      size_t j = SkipSpaces(s, here + name.size());
      // ScopedTimer/ScopedSpan are types: allow `ScopedTimer t("...")`.
      if (!api.needs_member && !api.needs_scope) {
        const std::string var = ReadIdent(s, j);
        if (!var.empty()) j = SkipSpaces(s, j + var.size());
      }
      if (j >= s.size() || s[j] != '(') continue;
      // The stripped text blanks literals to spaces (offsets preserved),
      // so skip whitespace in the RAW content — where the quote survives.
      j = SkipSpaces(raw, j + 1);
      if (j >= raw.size() || raw[j] != '"') continue;  // Dynamic name.
      size_t end = j + 1;
      std::string literal;
      while (end < raw.size() && raw[end] != '"') {
        if (raw[end] == '\\') ++end;
        if (end < raw.size()) literal += raw[end];
        ++end;
      }
      size_t after = SkipSpaces(raw, end + 1);
      const bool concatenated = after < raw.size() && raw[after] == '+';
      const bool valid = api.is_span
                             ? ValidSpanName(literal, concatenated)
                             : (ValidMetricName(literal) && !concatenated);
      if (!valid) {
        scan.Report(
            j, kRule,
            "'" + literal + "' passed to " + name +
                (api.is_span
                     ? " is not a valid span name (lowercase "
                       "slash-separated segments, e.g. \"broadcast/ch3\")"
                     : " is not a valid metric name (lowercase "
                       "subsystem.noun[.verb] with 2..4 dot segments, "
                       "e.g. \"merge.pair-merging.runs\")"));
      }
    }
  }
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& content) {
  std::string out;
  out.reserve(content.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if (c == '"') {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += ' ';
        } else {
          out += ' ';
        }
        break;
    }
  }
  return out;
}

FileKind ClassifyPath(const std::string& path) {
  if (path.rfind("src/obs/", 0) == 0) return FileKind::kLibraryObs;
  if (path.rfind("src/", 0) == 0) return FileKind::kLibrary;
  return FileKind::kOther;
}

bool ParseLayerSpec(const std::string& content, LayerSpec* spec,
                    std::string* error) {
  *spec = LayerSpec();
  size_t pos = 0;
  int lineno = 0;
  while (pos <= content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    std::string line = content.substr(pos, eol - pos);
    ++lineno;
    pos = eol + 1;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::vector<std::string> words;
    size_t i = 0;
    while (i < line.size()) {
      if (IsSpace(line[i])) {
        ++i;
        continue;
      }
      size_t end = i;
      while (end < line.size() && !IsSpace(line[end])) ++end;
      words.push_back(line.substr(i, end - i));
      i = end;
    }
    if (words.empty()) {
      if (eol == content.size()) break;
      continue;
    }
    if (words[0] == "layer" && words.size() == 3) {
      char* rest = nullptr;
      const long rank = std::strtol(words[2].c_str(), &rest, 10);
      if (rest == nullptr || *rest != '\0') {
        *error = "line " + std::to_string(lineno) + ": non-numeric rank '" +
                 words[2] + "'";
        return false;
      }
      if (spec->declared(words[1])) {
        *error = "line " + std::to_string(lineno) + ": duplicate layer '" +
                 words[1] + "'";
        return false;
      }
      spec->rank[words[1]] = static_cast<int>(rank);
    } else if (words[0] == "crosscut" && words.size() == 2) {
      if (spec->declared(words[1])) {
        *error = "line " + std::to_string(lineno) + ": duplicate layer '" +
                 words[1] + "'";
        return false;
      }
      spec->crosscut.insert(words[1]);
    } else {
      *error = "line " + std::to_string(lineno) + ": expected 'layer <name> " +
               "<rank>' or 'crosscut <name>', got '" + words[0] + "'";
      return false;
    }
    if (eol == content.size()) break;
  }
  return true;
}

std::set<std::string> CollectStatusReturners(
    const std::vector<SourceFile>& files) {
  // Without an AST the linter cannot resolve a call's receiver type, so a
  // name only counts as a Status-returner when every declaration of it in
  // the scanned tree returns Status/Result. Names that are ambiguous
  // (SpatialGrid::Insert returns void, Table::Insert returns Result) are
  // demoted and left to the compiler's [[nodiscard]] backstop.
  std::set<std::string> returners;
  std::set<std::string> demoted;
  for (const SourceFile& file : files) {
    const std::string s = StripCommentsAndStrings(file.content);
    for (size_t i = 0; i < s.size(); ++i) {
      if (!IsWordChar(s[i]) || (i > 0 && IsWordChar(s[i - 1]))) continue;
      const std::string name = ReadIdent(s, i);
      if (name.empty() || IsStatementKeyword(name)) continue;
      const size_t paren = SkipSpaces(s, i + name.size());
      if (paren >= s.size() || s[paren] != '(') continue;
      // Walk back over `& * &&` and whitespace to the return-type token.
      size_t back = i;
      while (back > 0 && (IsSpace(s[back - 1]) || s[back - 1] == '&' ||
                          s[back - 1] == '*')) {
        --back;
      }
      if (back == 0) continue;
      if (s[back - 1] == '>') {
        // Template return type: find the word owning the '<...>' list.
        int depth = 0;
        size_t j = back;
        while (j > 0) {
          --j;
          if (s[j] == '>') ++depth;
          if (s[j] == '<') {
            --depth;
            if (depth == 0) break;
          }
        }
        size_t type_end = j;
        while (type_end > 0 && IsSpace(s[type_end - 1])) --type_end;
        size_t type_start = type_end;
        while (type_start > 0 && IsWordChar(s[type_start - 1])) --type_start;
        const std::string type = s.substr(type_start, type_end - type_start);
        if (type == "Result") {
          returners.insert(name);
        } else if (!type.empty()) {
          demoted.insert(name);
        }
      } else if (IsWordChar(s[back - 1])) {
        size_t type_start = back;
        while (type_start > 0 && IsWordChar(s[type_start - 1])) --type_start;
        const std::string type = s.substr(type_start, back - type_start);
        if (type == "Status") {
          returners.insert(name);
        } else if (!IsStatementKeyword(type) && type != "const" &&
                   type != "constexpr" && type != "inline" &&
                   type != "static" && type != "virtual" &&
                   type != "explicit" && type != "typename") {
          // `void Insert(`, `double Cost(`, ... — a declaration of `name`
          // with a non-Status return type.
          demoted.insert(name);
        }
      }
    }
  }
  std::set<std::string> unambiguous;
  for (const std::string& name : returners) {
    if (demoted.count(name) == 0) unambiguous.insert(name);
  }
  return unambiguous;
}

namespace {

/// Appends what the per-file rules `file`'s kind admits find, unsuppressed.
void CheckFile(const SourceFile& file,
               const std::set<std::string>& status_returners,
               std::vector<Finding>* findings) {
  FileScan scan;
  scan.file = &file;
  scan.stripped = StripCommentsAndStrings(file.content);
  scan.findings = findings;

  // discarded-status applies everywhere: a dropped Status in a test or
  // bench is exactly as silent as one in the library.
  CheckDiscardedStatus(scan, status_returners);

  if (file.kind != FileKind::kOther) {
    if (file.kind != FileKind::kLibraryObs) CheckNondeterminism(scan);
    CheckUnorderedIteration(scan);
    CheckUngatedKnobs(scan);
    CheckLibraryIo(scan);
    CheckMetricNames(scan);
  }
}

}  // namespace

LintResult Lint(const std::vector<SourceFile>& files, const LayerSpec& spec) {
  std::vector<Finding> raw = CheckIncludes(files, spec);
  const std::set<std::string> returners = CollectStatusReturners(files);
  std::map<std::string, std::map<int, std::set<std::string>>> allows;
  for (const SourceFile& file : files) {
    CheckFile(file, returners, &raw);
    allows[file.path] = CollectAllowMarkers(file.content);
  }

  LintResult result;
  for (Finding& f : raw) {
    const auto& file_allows = allows[f.file];
    const auto line_allows = file_allows.find(f.line);
    if (line_allows != file_allows.end() && line_allows->second.count(f.rule)) {
      ++result.suppressed;
      continue;
    }
    result.findings.push_back(std::move(f));
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return result;
}

}  // namespace lint
}  // namespace qsp
