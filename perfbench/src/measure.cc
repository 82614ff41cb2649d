#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::optional<double> Median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::optional<double> Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::nullopt;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::optional<double> TailPercentile(std::vector<double> samples, double p,
                                     size_t min_beyond) {
  if (samples.empty() || !(p > 0.0 && p < 1.0)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));  // 1-based
  const size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < min_beyond) return std::nullopt;
  return samples[index];
}

bool RoundOk(const qsp::Result<qsp::RoundStats>& round) {
  return round.ok() && round.value().all_answers_correct;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Digest::Mix(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::MixDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Mix(bits);
}

void Digest::MixPartition(const qsp::Partition& partition) {
  Mix(partition.size());
  for (const qsp::QueryGroup& group : partition) {
    Mix(group.size());
    for (qsp::QueryId id : group) Mix(id);
  }
}

void Digest::MixRound(const qsp::Result<qsp::RoundStats>& round) {
  Mix(round.ok() ? 1 : 0);
  if (!round.ok()) return;
  const qsp::RoundStats& s = round.value();
  for (size_t v : {s.num_messages, s.payload_bytes, s.header_bytes,
                   s.payload_rows, s.irrelevant_rows, s.rows_examined,
                   s.headers_checked, s.cache_hits, s.channels_used,
                   s.wire_bytes, s.drops, s.corrupted_frames,
                   s.duplicate_deliveries, s.reordered_deliveries, s.nacks,
                   s.retx_messages, s.retx_bytes, s.retx_rounds,
                   s.backoff_units, s.crashed_clients, s.late_join_clients,
                   s.incomplete_answers}) {
    Mix(v);
  }
  Mix(s.wire_round_trip_ok ? 1 : 0);
  Mix(s.all_answers_correct ? 1 : 0);
}

bool CoversExactly(const qsp::Partition& partition,
                   const std::vector<qsp::QueryId>& ids) {
  std::vector<qsp::QueryId> members;
  for (const qsp::QueryGroup& group : partition) {
    if (group.empty()) return false;
    members.insert(members.end(), group.begin(), group.end());
  }
  std::sort(members.begin(), members.end());
  return members == ids;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::AddRaw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace perfbench
