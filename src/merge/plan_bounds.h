#ifndef QSP_MERGE_PLAN_BOUNDS_H_
#define QSP_MERGE_PLAN_BOUNDS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "cost/cost_model.h"
#include "geom/rect.h"
#include "geom/spatial_grid.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "query/query.h"

namespace qsp {
namespace plan {

/// Cached per-group quantities the admissible benefit bounds consume.
/// Built once when a group is created (its exact cost is computed then
/// anyway) and never mutated — merges create fresh groups.
struct GroupSummary {
  /// Exact GroupCost of the group (same memoized value the planner uses).
  double cost = 0.0;
  /// Exact merged size of the group (GroupStats::size).
  double size = 0.0;
  /// Largest member singleton size — a merged-size lower bound that holds
  /// for every procedure, because each member's rectangle must be covered
  /// by the merged regions serving it.
  double size_lb = 0.0;
  /// Number of member queries, and the sum of their singleton sizes.
  /// Under a single-message procedure the merged irrelevant data is
  /// exactly members * size(M) - member_size_sum (the one merged region
  /// covers every member rectangle, so each member's relevant portion is
  /// its full singleton size), which turns into an admissible K_U term.
  double members = 0.0;
  double member_size_sum = 0.0;
  /// Bounding box of the member rectangles (empty if all members are).
  Rect bbox;
  /// What the group's box holds beyond the density floor:
  /// max(0, size - density * Area(bbox)). Nonzero only under a
  /// distance_aware() bounder for a procedure whose region is the
  /// members' bounding box (so size is the box's own estimate), and
  /// meaningful only under the density floor of the bounder that built it.
  double excess = 0.0;
};

/// The planner's admissible benefit bounds (DESIGN.md §8): cheap upper
/// bounds on MergeBenefit(a, b) from cached group summaries, never below
/// the exact value, so a lazy bound→exact refinement heap selects exactly
/// the merges the exhaustive profit table would.
///
/// The bounder is total: it is the one place that decides whether a
/// bound is valid. When the caller turns pruning off, or the cost model
/// has a negative coefficient (CostModel::SupportsBenefitBounds), it
/// prunes nothing — every bound is +infinity and every partner test
/// accepts — so a bounded loop then evaluates every candidate exactly
/// and needs no exhaustive twin.
///
/// All bounds derive from one inequality: for any merged group M,
///   GroupCost(M) >= K_M * 1 + K_T * size_lb(M),
/// with size_lb(M) the best available merged-size lower bound. Which
/// lower bounds are available depends on the merge procedure's
/// ProcedureTraits and the estimator's DensityFloor; with none of them
/// the max-member bound still applies. The floating-point slack kSlack
/// absorbs rounding differences between the bound's arithmetic and the
/// estimator's own evaluation order.
class BenefitBounder {
 public:
  /// `pruning = false` makes a bounder that prunes nothing.
  BenefitBounder(const MergeContext& ctx, const CostModel& model,
                 bool pruning = true);

  /// Same, but takes the bounding union of every query the caller will
  /// ever pass through Summarize/UpperBound instead of scanning the
  /// QuerySet. The incremental merger uses this: its population grows
  /// after construction, so it maintains the universe itself and
  /// re-derives a (cheap) bounder whenever the universe grows — the
  /// distance term must be dropped the moment a query escapes the
  /// estimator's density-floor support.
  BenefitBounder(const MergeContext& ctx, const CostModel& model,
                 const Rect& universe, bool pruning = true);

  /// True when the bounds can prune: pruning was requested and the cost
  /// model has no negative coefficient. When false, UpperBound and every
  /// ExtractBound return +infinity and every PartnerTest accepts.
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// True when the density-floor distance term is active: enabled(), the
  /// procedure covers the bounding union, the estimator guarantees a positive
  /// density on a support containing every query, and K_T > 0. Only then
  /// can far-apart pairs be pruned without any evaluation (PartnerTest).
  [[nodiscard]] bool distance_aware() const { return distance_aware_; }

  /// Builds the summary of a group, computing (or re-reading memoized)
  /// exact group statistics.
  [[nodiscard]] GroupSummary Summarize(const QueryGroup& group) const;

  /// Same, from statistics the caller already holds for `group`.
  [[nodiscard]] GroupSummary Summarize(const QueryGroup& group,
                                       const GroupStats& stats) const;

  /// Admissible upper bound: UpperBound(a, b) >= MergeBenefit(a, b);
  /// +infinity when !enabled().
  [[nodiscard]] double UpperBound(const GroupSummary& a, const GroupSummary& b) const;

  /// True when UpperBound charges the irrelevant-data term: enabled(),
  /// a single-message procedure and K_U > 0. The partner test and the
  /// partner weight then charge it too.
  [[nodiscard]] bool charges_irrelevant() const { return charges_irrelevant_; }

  /// The weight a partner grid stores for group p: its exact cost, plus
  /// K_U * member_size_sum / kSlack when charges_irrelevant() (the part
  /// of UpperBound that grows with p's members, DESIGN.md §8). Every
  /// grid a PartnerTest walks must weigh its entries with this.
  [[nodiscard]] double PartnerWeight(const GroupSummary& p) const {
    return charges_irrelevant_
               ? p.cost + model_->k_u * p.member_size_sum / kSlack
               : p.cost;
  }

  /// The admissible partner test for one group g (DESIGN.md §8), with
  /// g's quantities folded in. test(region, max_weight) is false only
  /// when every partner p whose bounding box meets `region` and whose
  /// PartnerWeight is <= max_weight has UpperBound(g, p) <= 0, so
  /// SpatialGrid::QueryPassing with this test, over a grid whose entries
  /// carry PartnerWeight, returns every partner with a positive bound:
  /// the one candidate query of every pruned planner. With m_g g's
  /// member count, S_g their size sum, ex_g its excess, w x h g's box
  /// and g_x, g_y the gaps from g's box to `region`, it rejects when
  ///   K_M + (K_T + K_U * (m_g + 1)) * kSlack *
  ///       (density * (w + g_x) * (h + g_y) + ex_g)
  ///     >= cost_g + K_U * S_g / kSlack + max_weight
  /// if charges_irrelevant(), and when
  ///   K_M + K_T * kSlack * (density * (w + g_x) * (h + g_y) + ex_g)
  ///     >= cost_g + max_weight
  /// otherwise. The left side is scaled down by kMargin, so the test's
  /// own rounding can never make it bolder than UpperBound. Accepts
  /// everything when !distance_aware() or g has no box: no partner can
  /// then be dismissed by distance. Monotone, as
  /// SpatialGrid::QueryPassing requires.
  class PartnerTest {
   public:
    bool operator()(const Rect& region, double max_weight) const {
      if (accept_all_) return true;
      // A partner p whose box meets `region` lies at least gap_x / gap_y
      // away from g's box, so Area(BoundingUnion(g, p)) >= (w + gap_x) *
      // (h + gap_y), and UpperBound's density-floor term (with its K_U
      // term, m_p >= 1, and at least g's excess) gives
      //   UpperBound(g, p) <= weight_g + weight_p - base - scale * Area(BU).
      // Every quantity here is non-negative, so relative rounding errors
      // compose, and kMargin covers them many times over.
      const double gap_x = std::max(
          {0.0, region.x_lo() - box_.x_hi(), box_.x_lo() - region.x_hi()});
      const double gap_y = std::max(
          {0.0, region.y_lo() - box_.y_hi(), box_.y_lo() - region.y_hi()});
      const double merged_lb =
          base_ + scale_ * ((width_ + gap_x) * (height_ + gap_y));
      return merged_lb * (1.0 - kMargin) < weight_ + max_weight;
    }

   private:
    friend class BenefitBounder;
    bool accept_all_ = true;
    Rect box_;
    double width_ = 0.0;
    double height_ = 0.0;
    /// (K_T + K_U * (m_g + 1)) * kSlack * density, the K_U part only
    /// when charges_irrelevant().
    double scale_ = 0.0;
    /// K_M + scale / density * ex_g.
    double base_ = 0.0;
    /// PartnerWeight(g).
    double weight_ = 0.0;
  };
  [[nodiscard]] PartnerTest PartnerTestFor(const GroupSummary& g) const;

  /// The grid every partner walk runs over, sized for `groups` but
  /// empty: the caller inserts each group i as its id, under
  /// PartnerWeight(groups[i]). Its cells are sized to the bounder's
  /// reach, not to the boxes (DESIGN.md §8): with w the groups' mean
  /// PartnerWeight, a singleton probe of weight w stops accepting
  /// partners of weight w whose merged box with it has side
  ///   R = sqrt((2w - K_M) / ((K_T + 2 * K_U) * kSlack * density))
  /// (no K_U part unless charges_irrelevant()), so a walk accepts cells
  /// out to about R around the probe; a probe with more members has a
  /// larger per-area scale, and reaches less far for the same weight.
  /// The cell edge is max(mean box extent, R) under ForRects' cell cap;
  /// join sizing (edge ~ mean extent) would make the walk test hundreds
  /// of blocks and thousands of cells to return a few hundred ids.
  /// Without the distance term every cell passes, and the grid is one
  /// cell. The cells only change how many ids the walk returns, never
  /// which positive-bound partners are among them.
  [[nodiscard]] SpatialGrid EmptyPartnerGrid(
      const std::vector<GroupSummary>& groups) const;

  /// EmptyPartnerGrid(groups) holding every group: entry i is
  /// groups[i]'s box under PartnerWeight(groups[i]), so
  /// QueryPassing(PartnerTestFor(g)) on it returns every group with a
  /// positive bound against g.
  [[nodiscard]] SpatialGrid PartnerGrid(
      const std::vector<GroupSummary>& groups) const;

  /// The admissible bound on extract moves out of one group g (the
  /// incremental repair's second move kind): for every member q of g,
  /// with singleton size size_q and exact singleton cost cost_q,
  ///   bound(size_q, cost_q) >= GroupCost(g) - GroupCost(g \ {q}) - cost_q.
  /// The rest keeps g's largest other member, so its merged size is at
  /// least that member's singleton size. +infinity when !enabled().
  class ExtractBound {
   public:
    double operator()(double size_q, double cost_q) const {
      if (model_ == nullptr) return std::numeric_limits<double>::infinity();
      // Removing q leaves the largest surviving member: the second-largest
      // size when q is the unique largest, the largest otherwise.
      const double rest_lb =
          std::max(0.0, (size_q == max1_ && max_count_ == 1) ? max2_ : max1_);
      return group_cost_ - model_->MergedCostLowerBound(kSlack * rest_lb) -
             cost_q;
    }

   private:
    friend class BenefitBounder;
    /// Null when the bounder prunes nothing.
    const CostModel* model_ = nullptr;
    double group_cost_ = 0.0;
    /// Largest and second-largest member sizes, and how many members
    /// share the largest.
    double max1_ = 0.0;
    double max2_ = 0.0;
    size_t max_count_ = 0;
  };
  /// `group_cost` is g's exact cost.
  [[nodiscard]] ExtractBound ExtractBoundFor(const QueryGroup& group,
                                             double group_cost) const;

  /// Multiplier under 1 applied to every merged-size lower bound, so the
  /// bounds stay admissible under floating-point rounding (the bound and
  /// the estimator compute "the same" quantity via different operation
  /// orders; 1e-7 relative slack dwarfs any accumulated ulps).
  static constexpr double kSlack = 1.0 - 1e-7;

  /// Relative margin of PartnerTest: it absorbs the rounding of the
  /// test's own arithmetic against UpperBound's (a few ulps).
  static constexpr double kMargin = 1e-9;

 private:
  const MergeContext* ctx_;
  const CostModel* model_;
  ProcedureTraits traits_;
  bool enabled_ = false;
  bool charges_irrelevant_ = false;
  bool distance_aware_ = false;
  /// distance_aware_ and the procedure's region is the members' bounding
  /// box: Summarize records each group's excess.
  bool box_excess_ = false;
  double density_ = 0.0;
};

/// Admissible lower bound on the total cost of ANY partition of `live`
/// (no U term, so it also lower-bounds the K_M/K_T portion alone):
///   LB = K_M + K_T * kSlack * sum_{q in S} size(q)
/// for a greedily chosen pairwise-disjoint subset S of the live query
/// rectangles. Justification: every partition has >= 1 group; each
/// group's merged regions cover its member rectangles, so by additivity
/// of the (measure-like) estimator over disjoint sets the group sizes
/// sum to at least the chosen disjoint sizes — the same coverage
/// argument as the disjoint-boxes case of UpperBound. Ids are visited
/// in ascending order with a SpatialGrid over the chosen rects, so the
/// bound is deterministic and near-linear.
///
/// Returns 0 when `live` is empty or the model rejects benefit bounds
/// (negative coefficients). The live service compares its maintained
/// plan cost against this bound to trigger a from-scratch replan
/// (DESIGN.md §11); it is advisory — never used for correctness.
[[nodiscard]] double FreshPlanCostLowerBound(const MergeContext& ctx,
                                             const CostModel& model,
                                             const std::vector<QueryId>& live);

}  // namespace plan
}  // namespace qsp

#endif  // QSP_MERGE_PLAN_BOUNDS_H_
