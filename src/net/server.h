#ifndef QSP_NET_SERVER_H_
#define QSP_NET_SERVER_H_

#include <vector>

#include "channel/client_set.h"
#include "net/message.h"
#include "query/merge_procedure.h"
#include "query/query.h"
#include "relation/spatial_index.h"
#include "relation/table.h"

namespace qsp {

/// The subscription server of the conceptual model (Figure 4): it
/// periodically evaluates each merged query against the database and
/// emits one Message per merged query on the channel that serves it,
/// with recipient lists and extractors in the header.
///
/// Does not own any of its inputs.
class Server {
 public:
  Server(const Table* table, const SpatialIndex* index, const QuerySet* queries,
         const ClientSet* clients);

  /// Runs all merged queries of `plan` under `procedure` and builds the
  /// outgoing messages. A merged query whose answer is empty still
  /// produces a message (clients must learn their answers are empty).
  /// `mode` selects between self-extraction and server-side tagging
  /// (Section 3.1's two extractor implementations).
  std::vector<Message> ExecuteRound(
      const DisseminationPlan& plan, const MergeProcedure& procedure,
      ExtractionMode mode = ExtractionMode::kSelfExtract) const;

  /// Same, for explicit merged-query lists per channel — the shape cover
  /// plans (merge/cover_refiner.h) produce, where one query may be a
  /// member of several merged queries and combines their answers.
  /// `merged_per_channel` parallels `allocation`.
  std::vector<Message> ExecuteRoundMerged(
      const Allocation& allocation,
      const std::vector<std::vector<MergedQuery>>& merged_per_channel,
      ExtractionMode mode = ExtractionMode::kSelfExtract) const;

  /// Ground truth: the exact answer of one original query.
  std::vector<RowId> DirectAnswer(QueryId query) const;

  /// True when `answer` equals DirectAnswer(query), checked without
  /// building it: `answer` is strictly ascending (so it has no
  /// duplicates), every id is a table row whose position lies in the
  /// query's rectangle (so it is a subset of the true answer), and its
  /// size equals the index's Count of that rectangle (so it is the whole
  /// answer). Like DirectAnswer, it takes the index to cover every row of
  /// the table.
  bool MatchesDirectAnswer(QueryId query,
                           const std::vector<RowId>& answer) const;

 private:
  const Table* table_;
  const SpatialIndex* index_;
  const QuerySet* queries_;
  const ClientSet* clients_;
};

}  // namespace qsp

#endif  // QSP_NET_SERVER_H_
