#include "obs/plan_explain.h"

#include <algorithm>
#include <cstdio>

#include "merge/plan_bounds.h"
#include "util/json_writer.h"
#include "util/status.h"

namespace qsp {
namespace obs {

namespace {

/// %.6g — the same precision Rect::ToString and the figure harnesses
/// use, chosen so the text EXPLAIN is stable enough to golden-diff.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string ClientListToString(const std::vector<ClientId>& clients) {
  std::string out = "{";
  for (size_t i = 0; i < clients.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(clients[i]);
  }
  out += "}";
  return out;
}

void GroupToJson(const GroupExplain& group, JsonWriter* json) {
  json->BeginObject();
  json->Key("channel").UInt(group.channel);
  if (group.shard != GroupExplain::kNoShard) {
    json->Key("shard").Int(group.shard);
  }
  json->Key("members").BeginArray();
  for (QueryId id : group.members) json->UInt(id);
  json->EndArray();
  json->Key("mbr").BeginObject();
  json->Key("x_lo").Number(group.mbr.x_lo());
  json->Key("y_lo").Number(group.mbr.y_lo());
  json->Key("x_hi").Number(group.mbr.x_hi());
  json->Key("y_hi").Number(group.mbr.y_hi());
  json->EndObject();
  json->Key("est_size").Number(group.est_size);
  if (group.exact_size >= 0.0) {
    json->Key("exact_size").Number(group.exact_size);
  }
  json->Key("messages").Number(group.messages);
  json->Key("irrelevant").Number(group.irrelevant);
  json->Key("size_lower_bound").Number(group.size_lower_bound);
  json->Key("cost_lower_bound").Number(group.cost_lower_bound);
  json->Key("message_cost").Number(group.message_cost);
  json->Key("check_cost").Number(group.check_cost);
  json->Key("size_cost").Number(group.size_cost);
  json->Key("irrelevant_cost").Number(group.irrelevant_cost);
  json->Key("total_cost").Number(group.total_cost);
  json->EndObject();
}

/// Renders the balanced-assignment cut tree depth-first (left child
/// first — the canonical order the bisection built it in). Negative
/// child encodings are leaves: shard -(node) - 1.
void CutTreeToText(const PlanExplain& plan, int32_t node, int depth,
                   std::string* out) {
  const std::string indent(2 * (depth + 1), ' ');
  if (node < 0) {
    const size_t s = static_cast<size_t>(-node - 1);
    *out += indent + "shard " + std::to_string(s) +
            ": queries=" + std::to_string(plan.shard_queries[s]) +
            " cost_est=" + Num(plan.shard_cost_est[s]) + "\n";
    return;
  }
  const ShardCutNode& cut = plan.shard_cuts[static_cast<size_t>(node)];
  *out += indent + std::string(cut.axis == 0 ? "x < " : "y < ") +
          Num(cut.coord) + "\n";
  CutTreeToText(plan, cut.left, depth + 1, out);
  CutTreeToText(plan, cut.right, depth + 1, out);
}

void CutTreeToJson(const PlanExplain& plan, int32_t node, JsonWriter* json) {
  json->BeginObject();
  if (node < 0) {
    const size_t s = static_cast<size_t>(-node - 1);
    json->Key("shard").UInt(s);
    json->Key("queries").UInt(plan.shard_queries[s]);
    json->Key("cost_est").Number(plan.shard_cost_est[s]);
  } else {
    const ShardCutNode& cut = plan.shard_cuts[static_cast<size_t>(node)];
    json->Key("axis").String(cut.axis == 0 ? "x" : "y");
    json->Key("coord").Number(cut.coord);
    json->Key("left");
    CutTreeToJson(plan, cut.left, json);
    json->Key("right");
    CutTreeToJson(plan, cut.right, json);
  }
  json->EndObject();
}

}  // namespace

std::string PlanExplain::ToText() const {
  std::string out = "=== plan explain ===\n";
  for (const auto& [key, value] : labels) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-15s : %s\n", key.c_str(),
                  value.c_str());
    out += line;
  }
  out += "queries         : " + std::to_string(num_queries) + "\n";
  out += "channels        : " + std::to_string(num_channels) + "\n";
  out += "merged groups   : " + std::to_string(num_groups) + "\n";
  if (initial_cost >= 0.0) {
    out += "initial cost    : " + Num(initial_cost) + "\n";
  }
  out += "planned cost    : " + Num(total_cost);
  if (initial_cost > 0.0) {
    out += " (" + Num(100.0 * (initial_cost - total_cost) / initial_cost) +
           "% saved)";
  }
  out += "\n";
  out += "bounds refined  : " + std::to_string(bounds_refined) + "\n";
  out += "bounds pruned   : " + std::to_string(bounds_pruned) + "\n";
  if (!shard_cuts.empty()) {
    double max_cost = 0.0, total = 0.0;
    for (double c : shard_cost_est) {
      max_cost = std::max(max_cost, c);
      total += c;
    }
    const double mean =
        shard_cost_est.empty()
            ? 0.0
            : total / static_cast<double>(shard_cost_est.size());
    out += "shard imbalance : " +
           Num(mean > 0.0 ? max_cost / mean : 0.0) + " (max_cost_est=" +
           Num(max_cost) + " mean=" + Num(mean) + ")\n";
    out += "shard cuts      :\n";
    CutTreeToText(*this, 0, 0, &out);
  }

  for (const ChannelExplain& channel : channels) {
    out += "\nchannel " + std::to_string(channel.index) +
           ": clients=" + ClientListToString(channel.clients) +
           " groups=" + std::to_string(channel.num_groups) +
           " group_cost=" + Num(channel.group_cost) +
           " k_d=" + Num(channel.channel_cost) +
           " total=" + Num(channel.total_cost) + "\n";
    for (const GroupExplain& group : groups) {
      if (group.channel != channel.index) continue;
      out += "  group " + GroupToString(group.members) +
             " mbr=" + group.mbr.ToString() +
             " est_size=" + Num(group.est_size);
      if (group.shard != GroupExplain::kNoShard) {
        out += group.shard == GroupExplain::kSeamGroup
                   ? " shard=seam"
                   : " shard=" + std::to_string(group.shard);
      }
      if (group.exact_size >= 0.0) {
        out += " exact_size=" + Num(group.exact_size);
      }
      out += " messages=" + Num(group.messages) + "\n";
      out += "    cost: k_m*|M|=" + Num(group.message_cost) +
             " + check=" + Num(group.check_cost) +
             " + k_t*size=" + Num(group.size_cost) +
             " + k_u*U=" + Num(group.irrelevant_cost) + " = " +
             Num(group.total_cost) + "\n";
      out += "    bound: size_lb=" + Num(group.size_lower_bound) +
             " cost_lb=" + Num(group.cost_lower_bound) + "\n";
    }
  }
  return out;
}

std::string PlanExplain::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("labels").BeginObject();
  for (const auto& [key, value] : labels) json.Key(key).String(value);
  json.EndObject();
  json.Key("num_queries").UInt(num_queries);
  json.Key("num_channels").UInt(num_channels);
  json.Key("num_groups").UInt(num_groups);
  if (initial_cost >= 0.0) json.Key("initial_cost").Number(initial_cost);
  json.Key("total_cost").Number(total_cost);
  json.Key("bounds_refined").UInt(bounds_refined);
  json.Key("bounds_pruned").UInt(bounds_pruned);
  json.Key("channels").BeginArray();
  for (const ChannelExplain& channel : channels) {
    json.BeginObject();
    json.Key("index").UInt(channel.index);
    json.Key("clients").BeginArray();
    for (ClientId c : channel.clients) json.UInt(c);
    json.EndArray();
    json.Key("num_groups").UInt(channel.num_groups);
    json.Key("group_cost").Number(channel.group_cost);
    json.Key("channel_cost").Number(channel.channel_cost);
    json.Key("total_cost").Number(channel.total_cost);
    json.EndObject();
  }
  json.EndArray();
  json.Key("groups").BeginArray();
  for (const GroupExplain& group : groups) GroupToJson(group, &json);
  json.EndArray();
  if (!shard_cuts.empty()) {
    json.Key("shard_cuts");
    CutTreeToJson(*this, 0, &json);
    json.Key("shard_cost_est").BeginArray();
    for (double c : shard_cost_est) json.Number(c);
    json.EndArray();
    json.Key("shard_queries").BeginArray();
    for (size_t q : shard_queries) json.UInt(q);
    json.EndArray();
  }
  json.EndObject();
  return json.str();
}

PlanExplainer::PlanExplainer(const MergeContext* ctx, const CostModel& model)
    : ctx_(ctx), model_(model) {
  QSP_CHECK(ctx != nullptr);
}

void PlanExplainer::AddLabel(std::string key, std::string value) {
  labels_.emplace_back(std::move(key), std::move(value));
}

void PlanExplainer::ExplainChannel(
    size_t channel_index, const std::vector<ClientId>& channel_clients,
    const Partition& partition, PlanExplain* out) const {
  // The model this channel's groups were actually costed under: k_check
  // scales with the channel's population (ChannelCostEvaluator folds it
  // into k_m before merging; here it stays a separate term).
  const double check_per_message =
      model_.k_check * static_cast<double>(channel_clients.size());
  CostModel channel_model = model_;
  channel_model.k_m += check_per_message;
  const plan::BenefitBounder bounder(*ctx_, channel_model);

  ChannelExplain channel;
  channel.index = channel_index;
  channel.clients = channel_clients;
  channel.num_groups = partition.size();

  for (size_t gi = 0; gi < partition.size(); ++gi) {
    const QueryGroup& group = partition[gi];
    GroupExplain explain;
    explain.channel = channel_index;
    // Shard attribution only applies to single-channel sharded plans,
    // where the attribution vector is parallel to the one partition.
    if (shard_attribution_ != nullptr && channel_index == 0 &&
        shard_attribution_->size() == partition.size()) {
      explain.shard = (*shard_attribution_)[gi];
    }
    explain.members = group;
    for (QueryId id : group) {
      explain.mbr = explain.mbr.BoundingUnion(ctx_->queries().rect(id));
    }
    const GroupStats& stats = ctx_->Stats(group);
    explain.est_size = stats.size;
    explain.messages = stats.messages;
    explain.irrelevant = stats.irrelevant;
    if (exact_ctx_ != nullptr) {
      explain.exact_size = exact_ctx_->Stats(group).size;
    }
    if (bounder.enabled()) {
      const plan::GroupSummary summary = bounder.Summarize(group);
      explain.size_lower_bound = summary.size_lb;
      explain.cost_lower_bound =
          channel_model.MergedCostLowerBound(summary.size_lb);
    }
    explain.message_cost = model_.k_m * stats.messages;
    explain.check_cost = check_per_message * stats.messages;
    explain.size_cost = model_.k_t * stats.size;
    explain.irrelevant_cost = model_.k_u * stats.irrelevant;
    explain.total_cost = explain.message_cost + explain.check_cost +
                         explain.size_cost + explain.irrelevant_cost;
    channel.group_cost += explain.total_cost;
    out->groups.push_back(std::move(explain));
  }

  channel.total_cost = channel.group_cost + channel.channel_cost;
  out->num_groups += channel.num_groups;
  out->channels.push_back(std::move(channel));
}

PlanExplain PlanExplainer::Explain(const Partition& partition) const {
  PlanExplain out;
  out.labels = labels_;
  out.num_queries = ctx_->num_queries();
  out.num_channels = 1;
  out.initial_cost = initial_cost_;
  out.bounds_refined = bounds_refined_;
  out.bounds_pruned = bounds_pruned_;
  // Sharded plans carry their cut tree into the EXPLAIN; single-shard
  // and unsharded plans have no cuts and emit nothing here, keeping
  // their goldens byte-identical.
  if (shard_layout_ != nullptr && !shard_layout_->cuts.empty()) {
    out.shard_cuts = shard_layout_->cuts;
    out.shard_cost_est = shard_layout_->shard_cost;
    out.shard_queries = shard_layout_->shard_queries;
  }
  // Single-channel broadcast: no k_check scaling, no K_D charge (the
  // basic model of Section 4, which is what the single-channel planner
  // costs plans with).
  ExplainChannel(0, {}, partition, &out);
  for (const ChannelExplain& channel : out.channels) {
    out.total_cost += channel.total_cost;
  }
  return out;
}

PlanExplain PlanExplainer::Explain(const DisseminationPlan& plan,
                                   const ClientSet& clients) const {
  (void)clients;
  PlanExplain out;
  out.labels = labels_;
  out.num_queries = ctx_->num_queries();
  out.initial_cost = initial_cost_;
  out.bounds_refined = bounds_refined_;
  out.bounds_pruned = bounds_pruned_;
  QSP_CHECK(plan.allocation.size() == plan.channel_partitions.size());
  for (size_t ch = 0; ch < plan.allocation.size(); ++ch) {
    ExplainChannel(ch, plan.allocation[ch], plan.channel_partitions[ch],
                   &out);
    if (!plan.allocation[ch].empty()) {
      // K_D is charged per channel actually used, as in
      // ChannelCostEvaluator::TotalCost.
      out.channels.back().channel_cost = model_.k_d;
      out.channels.back().total_cost += model_.k_d;
      ++out.num_channels;
    }
  }
  for (const ChannelExplain& channel : out.channels) {
    out.total_cost += channel.total_cost;
  }
  return out;
}

}  // namespace obs
}  // namespace qsp
