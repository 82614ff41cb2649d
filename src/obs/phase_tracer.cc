#include "obs/phase_tracer.h"

#include <algorithm>
#include <cstdio>

#include "exec/thread_pool.h"
#include "util/json_writer.h"

namespace qsp {
namespace obs {

namespace {

/// Deltas of counters that advanced between two sorted snapshots.
/// `before` may be missing names that were created during the span.
std::vector<std::pair<std::string, uint64_t>> DiffCounters(
    const std::vector<std::pair<std::string, uint64_t>>& before,
    const std::vector<std::pair<std::string, uint64_t>>& after) {
  std::vector<std::pair<std::string, uint64_t>> deltas;
  size_t i = 0;
  for (const auto& [name, value] : after) {
    while (i < before.size() && before[i].first < name) ++i;
    const uint64_t base =
        (i < before.size() && before[i].first == name) ? before[i].second : 0;
    if (value > base) deltas.emplace_back(name, value - base);
  }
  return deltas;
}

void SpanToText(const PhaseTracer::Span& span, int depth, std::string* out) {
  char line[256];
  std::snprintf(line, sizeof(line), "%*s%s  %.1fus", 2 * depth, "",
                span.name.c_str(), span.wall_us);
  *out += line;
  for (const auto& [name, delta] : span.counter_deltas) {
    *out += "  ";
    *out += name;
    *out += "+";
    *out += std::to_string(delta);
  }
  *out += '\n';
  for (const PhaseTracer::Span& child : span.children) {
    SpanToText(child, depth + 1, out);
  }
}

void SpanToJson(const PhaseTracer::Span& span, JsonWriter* json) {
  json->BeginObject();
  json->Key("name").String(span.name);
  json->Key("wall_us").Number(span.wall_us);
  json->Key("counters").BeginObject();
  for (const auto& [name, delta] : span.counter_deltas) {
    json->Key(name).UInt(delta);
  }
  json->EndObject();
  json->Key("children").BeginArray();
  for (const PhaseTracer::Span& child : span.children) {
    SpanToJson(child, json);
  }
  json->EndArray();
  json->EndObject();
}

}  // namespace

bool PhaseTracer::CallerOwnsTree() const {
  if (exec::InParallelRegion()) return false;
  return open_.empty() || owner_ == std::this_thread::get_id();
}

bool PhaseTracer::Begin(std::string_view name) {
  if (!Enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!CallerOwnsTree()) return false;
  if (open_.empty()) owner_ = std::this_thread::get_id();
  OpenSpan open;
  open.span.name = std::string(name);
  open.counters_at_start = MetricRegistry::Default().CounterValues();
  open.start_us = CurrentClock()->NowMicros();
  open_.push_back(std::move(open));
  return true;
}

void PhaseTracer::End() {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_.empty() || !CallerOwnsTree()) return;
  OpenSpan open = std::move(open_.back());
  open_.pop_back();
  open.span.wall_us = CurrentClock()->NowMicros() - open.start_us;
  open.span.counter_deltas = DiffCounters(
      open.counters_at_start, MetricRegistry::Default().CounterValues());
  if (open_.empty()) {
    roots_.push_back(std::move(open.span));
  } else {
    open_.back().span.children.push_back(std::move(open.span));
  }
}

size_t PhaseTracer::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_.size();
}

std::vector<PhaseTracer::Span> PhaseTracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return roots_;
}

void PhaseTracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  open_.clear();
  roots_.clear();
}

std::string PhaseTracer::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Span& span : roots_) SpanToText(span, 0, &out);
  return out;
}

std::string PhaseTracer::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginArray();
  for (const Span& span : roots_) SpanToJson(span, &json);
  json.EndArray();
  return json.str();
}

PhaseTracer& PhaseTracer::Default() {
  static PhaseTracer* tracer = new PhaseTracer();
  return *tracer;
}

}  // namespace obs
}  // namespace qsp
