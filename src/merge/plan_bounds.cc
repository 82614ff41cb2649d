#include "merge/plan_bounds.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace qsp {
namespace plan {

BenefitBounder::BenefitBounder(const MergeContext& ctx, const CostModel& model,
                               bool pruning)
    : BenefitBounder(ctx, model, [&ctx] {
        Rect universe = Rect::Empty();
        for (QueryId id = 0; id < ctx.num_queries(); ++id) {
          universe = universe.BoundingUnion(ctx.queries().rect(id));
        }
        return universe;
      }(), pruning) {}

BenefitBounder::BenefitBounder(const MergeContext& ctx, const CostModel& model,
                               const Rect& universe, bool pruning)
    : ctx_(&ctx), model_(&model), traits_(ctx.procedure().traits()) {
  // The bounds lower-bound a merged group's cost by dropping the K_U term
  // and under-estimating its size, which is conservative only when every
  // coefficient is non-negative.
  enabled_ = pruning && model.SupportsBenefitBounds();
  if (!enabled_) return;
  charges_irrelevant_ = traits_.single_message && model.k_u > 0.0;
  if (!traits_.covers_bounding_union || model.k_t <= 0.0) return;
  const SizeEstimator::DensityFloor floor = ctx.estimator().Floor();
  if (floor.density <= 0.0 || floor.support.IsEmpty()) return;
  // The floor only holds inside its support; the distance term measures
  // bounding unions of query boxes, so the support must contain every
  // query (otherwise e.g. a histogram that clips to its domain would
  // under-count a rect hanging outside it, making the "bound" wrong).
  if (!floor.support.Contains(universe)) return;
  distance_aware_ = true;
  box_excess_ = traits_.region_is_bounding_box;
  density_ = floor.density;
}

GroupSummary BenefitBounder::Summarize(const QueryGroup& group) const {
  return Summarize(group, ctx_->Stats(group));
}

GroupSummary BenefitBounder::Summarize(const QueryGroup& group,
                                       const GroupStats& stats) const {
  GroupSummary s;
  s.cost = model_->GroupCost(stats);
  s.size = stats.size;
  s.bbox = Rect::Empty();
  s.members = static_cast<double>(group.size());
  for (QueryId id : group) {
    const double size = ctx_->Size(id);
    s.size_lb = std::max(s.size_lb, size);
    s.member_size_sum += size;
    s.bbox = s.bbox.BoundingUnion(ctx_->queries().rect(id));
  }
  if (box_excess_ && !s.bbox.IsEmpty()) {
    s.excess = std::max(0.0, s.size - density_ * s.bbox.Area());
  }
  return s;
}

double BenefitBounder::UpperBound(const GroupSummary& a,
                                  const GroupSummary& b) const {
  if (!enabled_) return std::numeric_limits<double>::infinity();
  // Merged-size lower bounds, strongest applicable wins. Every candidate
  // is justified by region coverage under a measure-like estimator:
  //  * max member singleton: the merged regions cover each member rect;
  //  * monotone: the merged region of a superset covers each operand's
  //    merged region, so its size dominates both;
  //  * disjoint boxes: the parts covering a's members and b's members
  //    cannot overlap, so sizes add (exactly the operand sizes when the
  //    procedure is superadditive; else the per-operand max members);
  //  * density floor: the merged region covers the bounding union of the
  //    two boxes, which holds at least density * area, plus what a box
  //    group's own box holds beyond the floor (its excess): the larger
  //    excess when the boxes meet, both when they are disjoint.
  double size_lb = std::max(a.size_lb, b.size_lb);
  if (traits_.merged_size_monotone) {
    size_lb = std::max(size_lb, std::max(a.size, b.size));
  }
  const bool boxes = !a.bbox.IsEmpty() && !b.bbox.IsEmpty();
  const bool disjoint = boxes && !a.bbox.Intersects(b.bbox);
  if (disjoint) {
    size_lb = std::max(size_lb, traits_.superadditive_when_disjoint
                                    ? a.size + b.size
                                    : a.size_lb + b.size_lb);
  }
  if (distance_aware_ && boxes) {
    const double excess =
        disjoint ? a.excess + b.excess : std::max(a.excess, b.excess);
    size_lb = std::max(
        size_lb, density_ * a.bbox.BoundingUnion(b.bbox).Area() + excess);
  }
  const double slacked_lb = kSlack * size_lb;
  double ub = model_->BenefitUpperBound(a.cost, b.cost, slacked_lb);
  // With a single-message procedure the merged region covers every
  // member rectangle, so each member's relevant share is its full
  // singleton size and the irrelevant data is exactly
  //   members * size(M) - member_size_sum >= members * size_lb - sum.
  // That recovers the K_U term the base bound drops — for a pair of
  // singletons under bounding rect + a density floor it makes the bound
  // essentially exact, which is what keeps lazy refinements rare. The
  // sum is inflated by the slack so floating-point summation-order
  // differences against the estimator's own accumulation stay on the
  // admissible side.
  if (charges_irrelevant_) {
    const double irrelevant_lb = (a.members + b.members) * slacked_lb -
                                 (a.member_size_sum + b.member_size_sum) /
                                     kSlack;
    if (irrelevant_lb > 0.0) ub -= model_->k_u * irrelevant_lb;
  }
  return ub;
}

BenefitBounder::PartnerTest BenefitBounder::PartnerTestFor(
    const GroupSummary& g) const {
  PartnerTest test;
  if (!distance_aware_ || g.bbox.IsEmpty()) return test;
  test.accept_all_ = false;
  test.box_ = g.bbox;
  test.width_ = g.bbox.Width();
  test.height_ = g.bbox.Height();
  // Under a single-message procedure UpperBound(g, p) also subtracts
  //   K_U * ((m_g + m_p) * sl - (S_g + S_p) / kSlack)
  // whenever that is positive, with sl its slacked merged-size lower
  // bound, so it never exceeds the same expression taken linearly. The
  // S terms join the weights; every partner in a cell has a box, hence
  // m_p >= 1, and the rest joins the per-area scale. sl's density term
  // adds at least g's excess, which the per-area rate charges too.
  double per_area = model_->k_t;
  if (charges_irrelevant_) per_area += model_->k_u * (g.members + 1.0);
  test.scale_ = per_area * kSlack * density_;
  test.base_ = model_->k_m + per_area * kSlack * g.excess;
  test.weight_ = PartnerWeight(g);
  return test;
}

SpatialGrid BenefitBounder::EmptyPartnerGrid(
    const std::vector<GroupSummary>& groups) const {
  std::vector<Rect> boxes(groups.size());
  double weight_sum = 0.0;
  for (size_t i = 0; i < groups.size(); ++i) {
    boxes[i] = groups[i].bbox;
    weight_sum += PartnerWeight(groups[i]);
  }
  // The reach: PartnerTest rejects a region once K_M + scale * (merged
  // box area) reaches weight_g + max_weight, so two groups of the mean
  // weight stop pairing once their merged box has area `reach_area`
  // under a singleton probe's scale, the smallest any probe's test takes.
  double reach = std::numeric_limits<double>::infinity();
  if (distance_aware_) {
    const double mean_weight =
        groups.empty() ? 0.0 : weight_sum / static_cast<double>(groups.size());
    double per_area = model_->k_t;
    if (charges_irrelevant_) per_area += 2.0 * model_->k_u;
    const double reach_area =
        (2.0 * mean_weight - model_->k_m) / (per_area * kSlack * density_);
    reach = reach_area > 0.0 ? std::sqrt(reach_area) : 0.0;
  }
  return SpatialGrid::ForRects(boxes, reach);
}

SpatialGrid BenefitBounder::PartnerGrid(
    const std::vector<GroupSummary>& groups) const {
  SpatialGrid grid = EmptyPartnerGrid(groups);
  for (size_t i = 0; i < groups.size(); ++i) {
    grid.Insert(static_cast<uint32_t>(i), groups[i].bbox,
                PartnerWeight(groups[i]));
  }
  return grid;
}

BenefitBounder::ExtractBound BenefitBounder::ExtractBoundFor(
    const QueryGroup& group, double group_cost) const {
  ExtractBound bound;
  if (!enabled_) return bound;
  bound.model_ = model_;
  bound.group_cost_ = group_cost;
  bound.max1_ = -std::numeric_limits<double>::infinity();
  bound.max2_ = bound.max1_;
  for (QueryId q : group) {
    const double s = ctx_->Size(q);
    if (s > bound.max1_) {
      bound.max2_ = bound.max1_;
      bound.max1_ = s;
      bound.max_count_ = 1;
    } else if (s == bound.max1_) {
      ++bound.max_count_;
    } else if (s > bound.max2_) {
      bound.max2_ = s;
    }
  }
  return bound;
}

double FreshPlanCostLowerBound(const MergeContext& ctx, const CostModel& model,
                               const std::vector<QueryId>& live) {
  if (live.empty() || !model.SupportsBenefitBounds()) return 0.0;
  std::vector<QueryId> ordered = live;
  std::sort(ordered.begin(), ordered.end());
  std::vector<Rect> rects;
  rects.reserve(ordered.size());
  for (QueryId id : ordered) rects.push_back(ctx.queries().rect(id));
  SpatialGrid grid = SpatialGrid::ForRects(rects);
  std::vector<Rect> chosen;
  std::vector<uint32_t> candidates;
  SpatialGrid::Seen seen;
  double chosen_size_sum = 0.0;
  for (size_t i = 0; i < ordered.size(); ++i) {
    const Rect& rect = rects[i];
    // Empty rects carry no area to be disjoint about; skipping them only
    // weakens the bound (size 0 anyway under a measure-like estimator).
    if (rect.IsEmpty()) continue;
    candidates.clear();
    grid.Query(rect, &seen, &candidates);
    bool disjoint = true;
    for (uint32_t c : candidates) {
      if (chosen[c].Intersects(rect)) {
        disjoint = false;
        break;
      }
    }
    if (!disjoint) continue;
    grid.Insert(static_cast<uint32_t>(chosen.size()), rect);
    chosen.push_back(rect);
    chosen_size_sum += ctx.Size(ordered[i]);
  }
  return model.k_m +
         model.k_t * BenefitBounder::kSlack * chosen_size_sum;
}

}  // namespace plan
}  // namespace qsp
