#include "lint/include_graph.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

namespace qsp {
namespace lint {

namespace {

using text::IsWordChar;
using text::LineOf;
using text::ReadIdent;
using text::SkipSpaces;
using text::WordAt;

std::string DirOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string StemOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  const size_t base = slash == std::string::npos ? 0 : slash + 1;
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot < base) return path.substr(base);
  return path.substr(base, dot - base);
}

/// True when `cc` is the implementation file of header `h` (same
/// directory, same stem): foo.cc may include foo.h unconditionally.
bool IsPrimaryHeader(const std::string& cc, const std::string& h) {
  return DirOf(cc) == DirOf(h) && StemOf(cc) == StemOf(h);
}

const char* const kHarvestKeywords[] = {
    "if",     "else",   "for",    "while",  "do",      "switch",  "case",
    "return", "break",  "continue", "goto", "throw",   "new",     "delete",
    "using",  "namespace", "template", "typedef", "public", "private",
    "protected", "static_assert", "extern", "class", "struct", "enum",
    "union",  "friend", "operator", "sizeof", "default", "const",
    "constexpr", "inline", "static", "virtual", "explicit", "typename",
    "void",   "int",    "bool",   "char",   "double",  "float",   "auto",
    "noexcept", "decltype", "alignof", "requires", "catch",
};

bool IsHarvestKeyword(const std::string& word) {
  for (const char* kw : kHarvestKeywords) {
    if (word == kw) return true;
  }
  return false;
}

/// Names a header contributes to its includers, harvested token-wise:
/// macro #defines (from the raw text), type names introduced by
/// class/struct/union/enum, alias names (`using X = ...`, typedef),
/// enumerators, callable names (identifier directly followed by '('),
/// and initialized names (identifier directly followed by '='). The
/// harvest deliberately over-collects — a name that is really a use, not
/// a declaration, only makes the unused-include check more lenient,
/// never noisier.
std::set<std::string> HarvestProvidedNames(const SourceFile& file,
                                           const std::string& stripped) {
  std::set<std::string> names;

  // #define NAME — from the raw content (directives survive stripping,
  // but scanning raw is simplest for the one-line form).
  const std::string& raw = file.content;
  size_t pos = 0;
  while ((pos = raw.find("#define", pos)) != std::string::npos) {
    const size_t at = SkipSpaces(raw, pos + 7);
    const std::string name = ReadIdent(raw, at);
    if (!name.empty()) names.insert(name);
    pos += 7;
  }

  const std::string& s = stripped;
  for (size_t i = 0; i < s.size(); ++i) {
    if (!IsWordChar(s[i]) || (i > 0 && IsWordChar(s[i - 1]))) continue;
    const std::string word = ReadIdent(s, i);
    if (word.empty()) continue;
    const size_t after = i + word.size();

    if (word == "class" || word == "struct" || word == "union" ||
        word == "enum") {
      size_t j = SkipSpaces(s, after);
      // `enum class Name` / attribute macros: skip further keywords.
      std::string ident = ReadIdent(s, j);
      while (!ident.empty() && (ident == "class" || ident == "struct" ||
                                IsHarvestKeyword(ident))) {
        j = SkipSpaces(s, j + ident.size());
        ident = ReadIdent(s, j);
      }
      if (!ident.empty()) names.insert(ident);
      // Enumerators: first identifier after '{' and after each ',' until
      // the matching '}'.
      if (word == "enum") {
        size_t k = j;
        while (k < s.size() && s[k] != '{' && s[k] != ';') ++k;
        if (k < s.size() && s[k] == '{') {
          int depth = 0;
          bool expect = true;
          for (; k < s.size(); ++k) {
            if (s[k] == '{') {
              ++depth;
              expect = true;
            } else if (s[k] == '}') {
              if (--depth == 0) break;
            } else if (s[k] == ',') {
              if (depth == 1) expect = true;
            } else if (expect && IsWordChar(s[k])) {
              const std::string e = ReadIdent(s, k);
              if (!e.empty()) names.insert(e);
              k += e.empty() ? 0 : e.size() - 1;
              expect = false;
            }
          }
        }
      }
      i = after - 1;
      continue;
    }

    if (word == "using") {
      const size_t j = SkipSpaces(s, after);
      const std::string ident = ReadIdent(s, j);
      if (!ident.empty()) {
        const size_t eq = SkipSpaces(s, j + ident.size());
        if (eq < s.size() && s[eq] == '=') names.insert(ident);
      }
      i = after - 1;
      continue;
    }

    if (word == "typedef") {
      // Last identifier before the terminating ';'.
      size_t j = after;
      std::string last;
      while (j < s.size() && s[j] != ';') {
        if (IsWordChar(s[j]) && (j == 0 || !IsWordChar(s[j - 1]))) {
          const std::string ident = ReadIdent(s, j);
          if (!ident.empty()) last = ident;
        }
        ++j;
      }
      if (!last.empty() && !IsHarvestKeyword(last)) names.insert(last);
      i = after - 1;
      continue;
    }

    if (IsHarvestKeyword(word)) {
      i = after - 1;
      continue;
    }
    const size_t next = SkipSpaces(s, after);
    if (next < s.size() && (s[next] == '(' || s[next] == '=')) {
      names.insert(word);
    }
    i = after - 1;
  }
  return names;
}

/// Every word token a file references, excluding tokens on #include
/// lines (so the include target's path components never count as use).
std::set<std::string> CollectUsedNames(const std::string& stripped) {
  std::set<std::string> used;
  size_t pos = 0;
  while (pos < stripped.size()) {
    size_t eol = stripped.find('\n', pos);
    if (eol == std::string::npos) eol = stripped.size();
    const size_t first = SkipSpaces(stripped, pos);
    const bool directive = first < eol && stripped[first] == '#';
    if (!directive) {
      for (size_t i = pos; i < eol; ++i) {
        if (!IsWordChar(stripped[i]) || (i > pos && IsWordChar(stripped[i - 1]))) {
          continue;
        }
        const std::string word = ReadIdent(stripped, i);
        if (!word.empty()) {
          used.insert(word);
          i += word.size() - 1;
        }
      }
    }
    pos = eol + 1;
  }
  return used;
}

/// Iterative Tarjan SCC over the resolved include graph. Nodes are
/// corpus-path indices; returns the SCC id per node and SCC count.
size_t StronglyConnected(const std::vector<std::vector<size_t>>& adj,
                         std::vector<size_t>* scc_of) {
  const size_t n = adj.size();
  std::vector<size_t> index(n, SIZE_MAX), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  scc_of->assign(n, SIZE_MAX);
  size_t next_index = 0, scc_count = 0;

  struct Frame {
    size_t v;
    size_t child = 0;
  };
  for (size_t root = 0; root < n; ++root) {
    if (index[root] != SIZE_MAX) continue;
    std::vector<Frame> frames{{root}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < adj[f.v].size()) {
        const size_t w = adj[f.v][f.child++];
        if (index[w] == SIZE_MAX) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          while (true) {
            const size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            (*scc_of)[w] = scc_count;
            if (w == f.v) break;
          }
          ++scc_count;
        }
        const size_t v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  return scc_count;
}

}  // namespace

std::string LayerOf(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return std::string();
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return std::string();
  return path.substr(4, slash - 4);
}

std::vector<IncludeEdge> ExtractIncludes(
    const SourceFile& file, const std::set<std::string>& corpus_paths) {
  std::vector<IncludeEdge> edges;
  const std::string stripped = StripCommentsAndStrings(file.content);
  const std::string& raw = file.content;
  size_t pos = 0;
  while ((pos = stripped.find('#', pos)) != std::string::npos) {
    const size_t here = pos++;
    size_t j = SkipSpaces(stripped, here + 1);
    if (!WordAt(stripped, j, "include")) continue;
    // The target is a string literal, which stripping blanked; offsets
    // are preserved, so read it back from the raw text.
    j = SkipSpaces(raw, j + 7);
    if (j >= raw.size() || raw[j] != '"') continue;  // <system> include.
    const size_t close = raw.find('"', j + 1);
    if (close == std::string::npos) continue;
    IncludeEdge edge;
    edge.from = file.path;
    edge.target = raw.substr(j + 1, close - j - 1);
    edge.line = LineOf(stripped, here);
    const std::string candidates[] = {
        "src/" + edge.target,
        "tools/" + edge.target,
        edge.target,
        "bench/" + edge.target,
        DirOf(file.path).empty() ? edge.target
                                 : DirOf(file.path) + "/" + edge.target,
    };
    for (const std::string& candidate : candidates) {
      if (corpus_paths.count(candidate) > 0) {
        edge.to = candidate;
        break;
      }
    }
    edges.push_back(std::move(edge));
  }
  return edges;
}

std::vector<Finding> CheckIncludes(const std::vector<SourceFile>& files,
                                   const LayerSpec& spec) {
  std::vector<Finding> findings;

  std::set<std::string> corpus_paths;
  for (const SourceFile& file : files) corpus_paths.insert(file.path);

  std::map<std::string, size_t> index_of;
  std::vector<const SourceFile*> by_index;
  for (const SourceFile& file : files) {
    if (index_of.emplace(file.path, by_index.size()).second) {
      by_index.push_back(&file);
    }
  }

  std::vector<std::string> stripped(by_index.size());
  std::vector<std::vector<IncludeEdge>> edges(by_index.size());
  for (size_t i = 0; i < by_index.size(); ++i) {
    stripped[i] = StripCommentsAndStrings(by_index[i]->content);
    edges[i] = ExtractIncludes(*by_index[i], corpus_paths);
  }

  // ------------------------------------------------------ layer rules
  for (size_t i = 0; i < by_index.size(); ++i) {
    const std::string from_layer = LayerOf(by_index[i]->path);
    if (!from_layer.empty() && !spec.declared(from_layer)) {
      findings.push_back(Finding{
          by_index[i]->path, 1, "layer-undeclared",
          "subsystem 'src/" + from_layer +
              "/' is not declared in the layer spec; add a `layer " +
              from_layer +
              " <rank>` (or `crosscut`) line to docs/layers.conf"});
    }
    if (from_layer.empty() || spec.crosscut.count(from_layer) > 0) continue;
    const auto from_rank = spec.rank.find(from_layer);
    if (from_rank == spec.rank.end()) continue;
    for (const IncludeEdge& edge : edges[i]) {
      if (edge.to.empty()) continue;
      const std::string to_layer = LayerOf(edge.to);
      if (to_layer.empty() || to_layer == from_layer) continue;
      if (spec.crosscut.count(to_layer) > 0) continue;
      const auto to_rank = spec.rank.find(to_layer);
      if (to_rank == spec.rank.end()) continue;
      if (to_rank->second > from_rank->second) {
        findings.push_back(Finding{
            edge.from, edge.line, "layer-back-edge",
            "layer '" + from_layer + "' (rank " +
                std::to_string(from_rank->second) + ") includes '" +
                edge.target + "' from layer '" + to_layer + "' (rank " +
                std::to_string(to_rank->second) +
                "), against the declared layering in docs/layers.conf"});
      }
    }
  }

  // --------------------------------------------------- include cycles
  std::vector<std::vector<size_t>> adj(by_index.size());
  for (size_t i = 0; i < by_index.size(); ++i) {
    for (const IncludeEdge& edge : edges[i]) {
      if (edge.to.empty()) continue;
      adj[i].push_back(index_of.at(edge.to));
    }
  }
  std::vector<size_t> scc_of;
  const size_t scc_count = StronglyConnected(adj, &scc_of);
  std::vector<std::vector<size_t>> members(scc_count);
  for (size_t i = 0; i < by_index.size(); ++i) members[scc_of[i]].push_back(i);
  for (std::vector<size_t>& scc : members) {
    bool self_loop = false;
    if (scc.size() == 1) {
      for (const size_t w : adj[scc[0]]) self_loop = self_loop || w == scc[0];
      if (!self_loop) continue;
    }
    // Deterministic cycle listing: start at the lexicographically first
    // member, repeatedly step to the first in-SCC neighbor not yet
    // visited (or the start, closing the loop).
    std::sort(scc.begin(), scc.end(), [&](size_t a, size_t b) {
      return by_index[a]->path < by_index[b]->path;
    });
    const size_t start = scc[0];
    const std::set<size_t> in_scc(scc.begin(), scc.end());
    std::vector<size_t> path{start};
    std::set<size_t> visited{start};
    size_t cur = start;
    while (true) {
      std::vector<size_t> nexts;
      for (const size_t w : adj[cur]) {
        if (in_scc.count(w) > 0) nexts.push_back(w);
      }
      std::sort(nexts.begin(), nexts.end(), [&](size_t a, size_t b) {
        return by_index[a]->path < by_index[b]->path;
      });
      size_t next = SIZE_MAX;
      for (const size_t w : nexts) {
        if (w == start && (path.size() > 1 || self_loop)) {
          next = w;
          break;
        }
        if (visited.count(w) == 0) {
          next = w;
          break;
        }
      }
      if (next == SIZE_MAX || next == start) break;
      path.push_back(next);
      visited.insert(next);
      cur = next;
    }
    std::string cycle;
    for (const size_t v : path) cycle += by_index[v]->path + " -> ";
    cycle += by_index[start]->path;
    int line = 1;
    const size_t second = path.size() > 1 ? path[1] : start;
    for (const IncludeEdge& edge : edges[start]) {
      if (!edge.to.empty() && index_of.at(edge.to) == second) {
        line = edge.line;
        break;
      }
    }
    findings.push_back(Finding{by_index[start]->path, line, "include-cycle",
                               "include cycle: " + cycle});
  }

  // -------------------------------------------------- unused includes
  std::vector<std::set<std::string>> provided(by_index.size());
  for (size_t i = 0; i < by_index.size(); ++i) {
    provided[i] = HarvestProvidedNames(*by_index[i], stripped[i]);
  }
  // Whether `used` holds a name some header reachable from h provides,
  // for the "transitive-only" hint. Asked only for an include already
  // found unused, so the closure is walked on demand.
  const auto transitively_used = [&](const std::set<std::string>& used,
                                     size_t h) {
    std::vector<char> seen(by_index.size(), 0);
    std::vector<size_t> stack(adj[h].begin(), adj[h].end());
    while (!stack.empty()) {
      const size_t v = stack.back();
      stack.pop_back();
      if (seen[v]) continue;
      seen[v] = 1;
      for (const std::string& name : provided[v]) {
        if (used.count(name) > 0) return true;
      }
      stack.insert(stack.end(), adj[v].begin(), adj[v].end());
    }
    return false;
  };
  for (size_t i = 0; i < by_index.size(); ++i) {
    const std::set<std::string> used = CollectUsedNames(stripped[i]);
    for (const IncludeEdge& edge : edges[i]) {
      if (edge.to.empty()) continue;
      const size_t h = index_of.at(edge.to);
      if (h == i) continue;
      if (IsPrimaryHeader(by_index[i]->path, edge.to)) continue;
      if (provided[h].empty()) continue;  // Nothing harvestable; skip.
      bool direct = false;
      for (const std::string& name : provided[h]) {
        if (used.count(name) > 0) {
          direct = true;
          break;
        }
      }
      if (direct) continue;
      const bool transitive = transitively_used(used, h);
      findings.push_back(Finding{
          edge.from, edge.line, "unused-include",
          transitive
              ? "'" + edge.target +
                    "' is only transitively used: no name declared in it is "
                    "referenced here, only names from headers it includes — "
                    "include the real provider directly"
              : "'" + edge.target +
                    "' is unused: no name it declares is referenced in this "
                    "file"});
    }
  }

  return findings;
}

}  // namespace lint
}  // namespace qsp
