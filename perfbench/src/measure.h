#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Timing, percentile selection, failure counting and result formatting
// shared by the untraced and traced runs. Every latency is read from
// std::chrono::steady_clock here, never from the program's clocks.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/simulator.h"
#include "query/query.h"
#include "util/status.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();

class Stopwatch {
 public:
  Stopwatch() : start_(NowSeconds()) {}
  double Seconds() const { return NowSeconds() - start_; }
  double Millis() const { return Seconds() * 1e3; }

 private:
  double start_;
};

/// Middle value (mean of the two middle values for an even count);
/// nullopt when `samples` is empty.
std::optional<double> Median(std::vector<double> samples);

/// Arithmetic mean; nullopt when `samples` is empty.
std::optional<double> Mean(const std::vector<double>& samples);

/// Nearest-rank percentile `p` in (0, 1) that has at least `min_beyond`
/// samples strictly above its rank; nullopt otherwise. A p90 therefore
/// needs at least 100 samples.
std::optional<double> TailPercentile(std::vector<double> samples, double p,
                                     size_t min_beyond = 10);

/// Operations attempted and failed; the ratio is failed / attempted.
struct FailureCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double Ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// A round fails when RunRound errs or reports a wrong answer.
bool RoundOk(const qsp::Result<qsp::RoundStats>& round);

/// Peak resident set size of this process so far (ru_maxrss), in MB.
double PeakRssMb();
/// Current resident set size of this process (VmRSS), in MB; 0 when
/// /proc/self/status cannot be read.
double CurrentRssMb();

/// 64-bit FNV-1a over the deterministic outputs of a run, so two runs
/// (or the traced and untraced run) can be compared exactly.
class Digest {
 public:
  void Mix(uint64_t value);
  void MixDouble(double value);
  void MixPartition(const qsp::Partition& partition);
  void MixRound(const qsp::Result<qsp::RoundStats>& round);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

/// True when `partition` covers exactly `ids` (ascending), each once.
bool CoversExactly(const qsp::Partition& partition,
                   const std::vector<qsp::QueryId>& ids);

/// Minimal JSON object builder (keys in insertion order). The benchmark
/// keeps its own rather than use the program's util/json_writer, so that
/// its output format does not depend on the code under test.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& AddRaw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonString(const std::string& text);
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
