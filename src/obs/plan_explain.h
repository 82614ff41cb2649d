#ifndef QSP_OBS_PLAN_EXPLAIN_H_
#define QSP_OBS_PLAN_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "channel/client_set.h"
#include "cost/cost_model.h"
#include "geom/rect.h"
#include "merge/shard_assign.h"
#include "net/message.h"
#include "query/merge_context.h"
#include "query/query.h"

namespace qsp {
namespace obs {

/// EXPLAIN of one merged group: who is in it, what it looks like, and —
/// term by term — what it costs. The per-term decomposition mirrors the
/// paper's Section 4 model exactly as the planner charged it:
///   total = K_M·|M| + k_check·(channel clients)·|M| + K_T·size(M) + K_U·U
/// (the check term is the k6 share ChannelCostEvaluator folds into K_M in
/// multi-channel mode; it is 0 on a single-channel plan).
struct GroupExplain {
  /// Shard attribution sentinel: no sharded planner ran (the field is
  /// then omitted from both renderings, keeping unsharded EXPLAIN text
  /// and JSON byte-identical to what they were before sharding existed).
  static constexpr int32_t kNoShard = -2;
  /// kSeamGroup (-1) marks groups (re)formed by the boundary pass.
  static constexpr int32_t kSeamGroup = -1;

  /// Channel the group is served on.
  size_t channel = 0;
  /// Shard that produced the group under sharded planning (DESIGN.md
  /// §12); kSeamGroup for boundary-pass groups, kNoShard when the plan
  /// was not sharded.
  int32_t shard = kNoShard;
  /// Member query ids (canonical ascending order).
  QueryGroup members;
  /// Minimum bounding rectangle of the member queries.
  Rect mbr;
  /// Merged size under the planner's estimator (GroupStats::size).
  double est_size = 0.0;
  /// Merged size under an exact estimator, when one was provided to the
  /// explainer; negative when unavailable.
  double exact_size = -1.0;
  /// Messages the group contributes to |M| (GroupStats::messages).
  double messages = 0.0;
  /// Irrelevant data U the group's members receive (GroupStats).
  double irrelevant = 0.0;
  /// BenefitBounder view of the group, when bounds are valid for the
  /// model: the merged-size lower bound and the resulting admissible
  /// cost lower bound (0 when bounds are unavailable).
  double size_lower_bound = 0.0;
  double cost_lower_bound = 0.0;
  /// The cost terms. total_cost is their exact sum and equals the
  /// channel-scoped CostModel::GroupCost of this group.
  double message_cost = 0.0;
  double check_cost = 0.0;
  double size_cost = 0.0;
  double irrelevant_cost = 0.0;
  double total_cost = 0.0;
};

/// EXPLAIN of one channel: its audience and its share of the plan cost.
struct ChannelExplain {
  size_t index = 0;
  std::vector<ClientId> clients;
  size_t num_groups = 0;
  /// Sum of the channel's GroupExplain::total_cost values.
  double group_cost = 0.0;
  /// The per-channel K_D charge (0 for an unused or single channel).
  double channel_cost = 0.0;
  double total_cost = 0.0;
};

/// The full structured EXPLAIN of a dissemination plan.
struct PlanExplain {
  /// Free-form context lines ("scenario" -> "fig16", "merger" -> "pair",
  /// ...), rendered in order.
  std::vector<std::pair<std::string, std::string>> labels;
  size_t num_queries = 0;
  size_t num_channels = 0;
  size_t num_groups = 0;
  /// Cost of serving every query unmerged (the paper's Cost_initial);
  /// negative when the caller did not supply it.
  double initial_cost = -1.0;
  /// Sum over channels of group costs plus K_D charges — the quantity
  /// the planner minimized.
  double total_cost = 0.0;
  /// BenefitBounder effort accounting for the merge runs that built the
  /// plan (see MergeOutcome); zero when unavailable.
  uint64_t bounds_refined = 0;
  uint64_t bounds_pruned = 0;
  std::vector<ChannelExplain> channels;
  std::vector<GroupExplain> groups;
  /// Shard layout (DESIGN.md §13): the bisection cut tree plus
  /// per-shard query counts and estimated planning costs. All three are
  /// populated together, and only when the explainer was handed a
  /// layout with at least one cut — empty vectors render nothing, so
  /// unsharded EXPLAIN output is byte-identical to what it was before
  /// sharding existed.
  std::vector<ShardCutNode> shard_cuts;
  std::vector<double> shard_cost_est;
  std::vector<size_t> shard_queries;

  /// Human-readable EXPLAIN (stable formatting, %.6g numbers — the
  /// golden-diffable form).
  std::string ToText() const;
  /// The same structure as one JSON object.
  std::string ToJson() const;
};

/// Walks a finished plan and derives the EXPLAIN above from the same
/// memoized statistics the planner used, so every reported term is the
/// term the planner actually charged (ROADMAP item 5).
///
/// The explainer holds no results; Explain() is const and reusable.
class PlanExplainer {
 public:
  /// `ctx` and `model` must be the planner's context and cost model (and
  /// must outlive the explainer).
  PlanExplainer(const MergeContext* ctx, const CostModel& model);

  /// Optional second context over the same QuerySet backed by an exact
  /// estimator; fills GroupExplain::exact_size for estimated-vs-exact
  /// comparison.
  void set_exact_context(const MergeContext* exact_ctx) {
    exact_ctx_ = exact_ctx;
  }

  /// Adds a context line to the EXPLAIN header.
  void AddLabel(std::string key, std::string value);

  /// Cost_initial for the savings line; from PlanReport::initial_cost.
  void set_initial_cost(double cost) { initial_cost_ = cost; }

  /// Bound-refinement counters; from PlanReport or a MergeOutcome.
  void set_refinement(uint64_t refined, uint64_t pruned) {
    bounds_refined_ = refined;
    bounds_pruned_ = pruned;
  }

  /// Shard attribution of a sharded single-channel plan, parallel to the
  /// partition passed to Explain (SubscriptionService::plan_group_shard
  /// or ShardedMergeOutcome::group_shard; non-owning, must outlive the
  /// Explain call). Null or size-mismatched attribution leaves every
  /// group at kNoShard, and the EXPLAIN renders exactly as unsharded.
  void set_shard_attribution(const std::vector<int32_t>* group_shard) {
    shard_attribution_ = group_shard;
  }

  /// Shard layout of a sharded single-channel plan
  /// (ShardedMergeOutcome::layout; non-owning, must outlive the Explain
  /// call). Only a layout with more than one shard emits anything —
  /// the cut tree and per-shard cost estimates; null or single-shard
  /// layouts render exactly as unsharded.
  void set_shard_layout(const ShardLayout* layout) { shard_layout_ = layout; }

  /// EXPLAIN of a single-channel plan (no allocation, no k_check/K_D
  /// terms): one implicit channel carrying every client.
  PlanExplain Explain(const Partition& partition) const;

  /// EXPLAIN of a multi-channel plan. `clients` must be the client set
  /// the plan was made for (its channel populations scale the k_check
  /// term exactly as ChannelCostEvaluator did).
  PlanExplain Explain(const DisseminationPlan& plan,
                      const ClientSet& clients) const;

 private:
  void ExplainChannel(size_t channel_index,
                      const std::vector<ClientId>& channel_clients,
                      const Partition& partition, PlanExplain* out) const;

  const MergeContext* ctx_;
  CostModel model_;
  const MergeContext* exact_ctx_ = nullptr;
  const std::vector<int32_t>* shard_attribution_ = nullptr;
  const ShardLayout* shard_layout_ = nullptr;
  std::vector<std::pair<std::string, std::string>> labels_;
  double initial_cost_ = -1.0;
  uint64_t bounds_refined_ = 0;
  uint64_t bounds_pruned_ = 0;
};

}  // namespace obs
}  // namespace qsp

#endif  // QSP_OBS_PLAN_EXPLAIN_H_
