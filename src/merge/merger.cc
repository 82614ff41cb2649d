#include "merge/merger.h"

#include "obs/metrics.h"
#include "obs/phase_tracer.h"

namespace qsp {

Result<MergeOutcome> Merger::Merge(const MergeContext& ctx,
                                   const CostModel& model) const {
  if (!obs::Enabled()) return DoMerge(ctx, model);

  const std::string prefix = "merge." + name();
  obs::ScopedSpan span("merge/" + name());
  obs::ScopedTimer timer(prefix + ".latency_us");
  const size_t groups_before = ctx.groups_evaluated();
  Result<MergeOutcome> outcome = DoMerge(ctx, model);
  obs::Count(prefix + ".runs");
  // Group statistics computed for this run — the oracle work actually
  // performed: memo hits are excluded on a storing context, and on an
  // evaluate-only context every lookup computes, so every lookup counts.
  obs::Count(prefix + ".group_evals",
             ctx.groups_evaluated() - groups_before);
  if (outcome.ok()) {
    obs::Count(prefix + ".candidates", outcome->candidates);
    obs::SetGauge(prefix + ".last_cost", outcome->cost);
    obs::SetGauge(prefix + ".last_groups",
                  static_cast<double>(outcome->partition.size()));
  } else {
    obs::Count(prefix + ".errors");
  }
  return outcome;
}

}  // namespace qsp
