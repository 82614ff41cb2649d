#ifndef QSP_QUERY_MERGE_PROCEDURE_H_
#define QSP_QUERY_MERGE_PROCEDURE_H_

#include <string>
#include <vector>

#include "geom/rect.h"
#include "query/query.h"

namespace qsp {

/// One merged query produced by a merge procedure: the region its answer
/// covers (as interior-disjoint rectangles) and the subscribed queries its
/// answer serves. The answer to a merged query is transmitted as one
/// message / logical channel, so each MergedQuery contributes 1 to |M|.
struct MergedQuery {
  /// Interior-disjoint rectangles whose union is the merged query range.
  std::vector<Rect> region;
  /// Ids of original queries whose answers are derivable from this one.
  std::vector<QueryId> members;
};

/// Structural guarantees a merge procedure makes about its output, used
/// by the planner's admissible benefit bounds (DESIGN.md §8). Each flag
/// licenses one lower bound on the merged size/cost of a group; a
/// procedure that cannot prove a property must leave it false — the
/// bounds then simply prune less.
struct ProcedureTraits {
  /// The procedure always emits exactly one MergedQuery per group
  /// (|M| contribution is 1), so merging two groups saves exactly
  /// K_M * (msgs_a + msgs_b - 1).
  bool single_message = false;
  /// size(merge(A ∪ B)) >= max(size(merge(A)), size(merge(B))): the
  /// merged region of a superset group covers the merged region of any
  /// subset (region monotonicity under an additive estimator).
  bool merged_size_monotone = false;
  /// When the bounding boxes of two groups are disjoint,
  /// size(merge(A ∪ B)) >= size(merge(A)) + size(merge(B)) — their
  /// merged regions cannot overlap, so sizes add.
  bool superadditive_when_disjoint = false;
  /// The merged region covers the bounding box of the group's members,
  /// so size(merge(G)) >= density_floor * Area(bounding box). This is
  /// the only distance-aware bound: it is what lets the spatial index
  /// prune far-apart pairs entirely.
  bool covers_bounding_union = false;
  /// The procedure emits exactly one MergedQuery per group: its region
  /// is the bounding box of the members' rectangles (no piece when every
  /// member is empty) and its members are the group, in order. Licenses
  /// MergeContext to evaluate a group without calling Merge(); a
  /// procedure (or a wrapper forwarding traits()) that sets it must
  /// produce exactly that output.
  bool region_is_bounding_box = false;
};

/// The paper's mrg() function (Section 3.2, Figure 5): combines a group of
/// queries into one or more merged queries, trading merged-query
/// complexity, extractor complexity, and irrelevant data.
class MergeProcedure {
 public:
  virtual ~MergeProcedure() = default;

  /// Structural guarantees for the planner's pruning bounds. The default
  /// claims nothing, which disables all bound-based pruning for unknown
  /// procedures (always sound).
  virtual ProcedureTraits traits() const { return ProcedureTraits{}; }

  /// Merges `group` (canonical ids into `queries`). Postconditions:
  ///  * every group member appears in at least one result's `members`;
  ///  * each result's region covers the rectangles of its `members`'
  ///    intersection with it (clients can extract their full answers).
  virtual std::vector<MergedQuery> Merge(const QuerySet& queries,
                                         const QueryGroup& group) const = 0;

  /// Human-readable procedure name for reports.
  virtual std::string name() const = 0;
};

/// Figure 5(a): the smallest rectangle bounding the group. One merged
/// query; simple extractors (re-apply the original query); most
/// irrelevant data.
class BoundingRectProcedure : public MergeProcedure {
 public:
  std::vector<MergedQuery> Merge(const QuerySet& queries,
                                 const QueryGroup& group) const override;
  std::string name() const override { return "bounding-rect"; }

  /// The merged region *is* the bounding union, so every trait holds:
  /// one message, bbox-monotone, disjoint bboxes => disjoint regions.
  ProcedureTraits traits() const override {
    return ProcedureTraits{true, true, true, true, true};
  }
};

/// Figure 5(b): a single rectilinear bounding polygon (orthogonal slab
/// hull of the union). One merged query with disjunctions; extractors are
/// still the original queries; less irrelevant data than the rectangle.
class BoundingPolygonProcedure : public MergeProcedure {
 public:
  std::vector<MergedQuery> Merge(const QuerySet& queries,
                                 const QueryGroup& group) const override;
  std::string name() const override { return "bounding-polygon"; }

  /// One hull per group; the hull (VerticalFill ∩ HorizontalFill) is
  /// monotone under set inclusion of the input rects and is contained in
  /// the bounding box, so disjoint bboxes give disjoint hulls. It does
  /// NOT cover the bounding box (that is its whole point), so the
  /// distance-aware bound is off.
  ProcedureTraits traits() const override {
    return ProcedureTraits{true, true, true, false};
  }
};

/// Figure 5(c): decomposes the union of the group into pieces such that
/// each piece lies inside every query it serves — zero irrelevant data,
/// but multiple merged queries whose answers clients must combine.
/// Vertically adjacent cells with identical member sets are coalesced to
/// keep the piece count low.
class ExactCoverProcedure : public MergeProcedure {
 public:
  std::vector<MergedQuery> Merge(const QuerySet& queries,
                                 const QueryGroup& group) const override;
  std::string name() const override { return "exact-cover"; }

  /// The region is the exact union of member rects: monotone and
  /// additive across disjoint groups, but the piece count (message
  /// count) varies and the union does not cover the bounding box.
  ProcedureTraits traits() const override {
    return ProcedureTraits{false, true, true, false};
  }
};

}  // namespace qsp

#endif  // QSP_QUERY_MERGE_PROCEDURE_H_
