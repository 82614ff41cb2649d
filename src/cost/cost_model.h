#ifndef QSP_COST_COST_MODEL_H_
#define QSP_COST_COST_MODEL_H_

#include "query/merge_context.h"
#include "query/query.h"

namespace qsp {

/// The paper's total cost model (Section 4):
///
///   Cost_total = K_M * |M| + K_T * size(M) + K_U * U(Q, M)
///
/// where K_M aggregates per-merged-query overheads (server per-query cost
/// k1, per-message network/logical-channel cost k4, per-message client
/// checking cost k6 * num_clients), K_T aggregates per-size costs (server
/// retrieval k2, network transmission k3), and K_U = k5 is the client
/// extraction cost per unit of irrelevant data.
///
/// K_D extends the model to the multi-channel setting of Section 7: a
/// fixed cost per multicast channel actually used (router table space /
/// connection state). The paper lists K_D among its cost variables without
/// defining it; it defaults to 0 and only the channel-allocation code
/// reads it.
struct CostModel {
  double k_m = 1.0;
  double k_t = 1.0;
  double k_u = 1.0;
  double k_d = 0.0;

  /// k6 of Section 4 kept separate for the multi-channel model: the cost
  /// a client pays to check one message header. In the single-channel
  /// broadcast model it is folded into K_M (k6 * num clients, see
  /// FromComponents); with multiple channels only the clients *listening
  /// to a message's channel* check it, so ChannelCostEvaluator charges
  /// k_check * (clients on channel) * |M_channel| instead. This coupling
  /// is exactly why merging and allocation cannot be solved separately
  /// (Section 7.2). 0 disables the term.
  double k_check = 0.0;

  /// Derives the aggregate constants from the low-level proportionality
  /// constants of Section 4 for the single-channel broadcast model:
  /// k6 * num_clients is folded into K_M and k_check stays 0.
  [[nodiscard]] static CostModel FromComponents(double k1, double k2, double k3, double k4,
                                  double k5, double k6, int num_clients);

  /// Same derivation for the multi-channel model of Section 7: k6 is kept
  /// in k_check (charged per client actually listening to the channel)
  /// instead of being folded into K_M with a global client count.
  [[nodiscard]] static CostModel FromComponentsMultiChannel(double k1, double k2, double k3,
                                              double k4, double k5,
                                              double k6);

  /// Cost contribution of one merged group M_i.
  [[nodiscard]] double GroupCost(const MergeContext& ctx, const QueryGroup& group) const;

  /// Cost contribution given precomputed group statistics.
  [[nodiscard]] double GroupCost(const GroupStats& stats) const {
    return k_m * stats.messages + k_t * stats.size + k_u * stats.irrelevant;
  }

  /// Cost of a full candidate solution M.
  [[nodiscard]] double PartitionCost(const MergeContext& ctx,
                       const Partition& partition) const;

  /// Cost of answering every query separately (the paper's Cost_initial).
  [[nodiscard]] double InitialCost(const MergeContext& ctx) const;

  /// Cost_old - Cost_new of replacing groups `a` and `b` with their union
  /// (Section 6.2.1). Positive values mean the merge is beneficial.
  [[nodiscard]] double MergeBenefit(const MergeContext& ctx, const QueryGroup& a,
                      const QueryGroup& b) const;

  /// The 2-query decision rule of Section 5.1: it is beneficial to merge
  /// q1 and q2 (sizes s1, s2; merged size s3) iff
  ///   K_M + K_T*(s1 + s2 - s3) + K_U*(s1 + s2 - 2*s3) > 0.
  [[nodiscard]] bool TwoQueryMergeBeneficial(double s1, double s2, double s3) const;

  /// Clustering pre-filter (Section 6.3): an optimistic upper bound on the
  /// benefit of ever placing q1 and q2 in the same merged group. `r` is a
  /// lower bound on any merged size containing both (the pair's merged
  /// size, or — tighter — the size of their exact union). When the result
  /// is <= 0 the pair can be separated into different clusters.
  [[nodiscard]] double CoMergeBenefitBound(double s1, double s2, double r) const {
    return k_m + k_t * (s1 + s2 - r) + k_u * (s1 + s2 - 2.0 * r);
  }

  /// True when the planner's admissible benefit bounds are valid
  /// (DESIGN.md §8). The bounds lower-bound a merged group's cost by
  /// dropping the K_U term and under-estimating size(M), which is only
  /// conservative when every coefficient is non-negative.
  [[nodiscard]] bool SupportsBenefitBounds() const {
    return k_m >= 0.0 && k_t >= 0.0 && k_u >= 0.0;
  }

  /// Lower bound on GroupCost of any group with at least `msgs_lb`
  /// messages and size at least `size_lb` (irrelevant-data term >= 0 is
  /// dropped). Requires SupportsBenefitBounds().
  [[nodiscard]] double MergedCostLowerBound(double size_lb, double msgs_lb = 1.0) const {
    return k_m * msgs_lb + k_t * size_lb;
  }

  /// Admissible upper bound on MergeBenefit(a, b):
  ///   benefit = cost(a) + cost(b) - cost(a ∪ b)
  ///           <= cost(a) + cost(b) - MergedCostLowerBound(...).
  /// Requires SupportsBenefitBounds().
  [[nodiscard]] double BenefitUpperBound(double cost_a, double cost_b,
                           double merged_size_lb,
                           double merged_msgs_lb = 1.0) const {
    return cost_a + cost_b - MergedCostLowerBound(merged_size_lb,
                                                  merged_msgs_lb);
  }
};

}  // namespace qsp

#endif  // QSP_COST_COST_MODEL_H_
