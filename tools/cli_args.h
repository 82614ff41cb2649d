#ifndef QSP_TOOLS_CLI_ARGS_H_
#define QSP_TOOLS_CLI_ARGS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace qsp {

/// The `--key value` flag parser of qspctl and qsp_explain, limited to
/// the flags a command reads: any other flag exits 2 naming it. A flag in
/// `switches` takes no value; every other flag takes the next argument,
/// which may start with a single '-' (a negative number), and exits 2
/// without one.
class Args {
 public:
  Args(int argc, char** argv, int first,
       const std::vector<std::string>& accepted,
       const std::vector<std::string>& switches) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      if (std::find(accepted.begin(), accepted.end(), key) ==
          accepted.end()) {
        std::fprintf(stderr, "unknown flag '--%s'\n", key.c_str());
        std::exit(2);
      }
      if (std::find(switches.begin(), switches.end(), key) !=
          switches.end()) {
        values_[key] = "true";
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        std::fprintf(stderr, "flag '--%s' needs a value\n", key.c_str());
        std::exit(2);
      }
    }
  }

  double F(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  int64_t I(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }
  std::string S(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace qsp

#endif  // QSP_TOOLS_CLI_ARGS_H_
