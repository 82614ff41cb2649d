#ifndef QSP_NET_SIM_CLIENT_H_
#define QSP_NET_SIM_CLIENT_H_

#include <map>
#include <set>
#include <vector>

#include "net/message.h"
#include "query/query.h"
#include "relation/table.h"

namespace qsp {

/// Per-client resource counters for one round — the simulated analogues
/// of the client-side terms of the cost model.
struct ClientStats {
  /// Messages whose header the client had to check (everything broadcast
  /// on its channel — the k6 * |M| term).
  size_t headers_checked = 0;
  /// Messages actually addressed to the client.
  size_t messages_processed = 0;
  /// Rows the client's extractors had to examine (payload of processed
  /// messages, counted once per extractor application — the k5 * U term).
  size_t rows_examined = 0;
  /// Rows delivered to the client that ended up in none of its answers.
  size_t rows_irrelevant = 0;
  /// Rows skipped because they were already in the client's cache
  /// (dynamic-scenario extension; 0 with caching disabled).
  size_t cache_hits = 0;
  /// Messages that arrived on a channel this client does not listen to.
  /// A real receiver cannot trust the sender's routing, so these are
  /// counted and discarded instead of asserted away.
  size_t misrouted_messages = 0;
  /// Receptions discarded because their sequence number was already
  /// processed this round (duplicated deliveries, redundant
  /// retransmissions). Only nonzero in reliable mode.
  size_t duplicates_ignored = 0;
};

/// Delivery outcome of one subscription after a round under the lossy
/// channel (DESIGN.md §6). Lossless rounds are always kComplete.
enum class AnswerStatus {
  /// Every message of the round was received; the answer is exact.
  kComplete,
  /// Messages are missing after recovery but at least one message
  /// contributed to this subscription — the answer may be a subset.
  kPartial,
  /// Messages are missing and none of the received ones carried an
  /// extractor for this subscription; the answer is empty and unusable.
  kFailed,
};

/// A "dumb-but-not-that-dumb" operational unit: listens to one channel,
/// checks headers, applies extractors, combines partial answers.
class SimClient {
 public:
  /// `subscriptions` are the client's query ids (ascending). In
  /// `reliable` mode the client tracks sequence numbers: duplicate
  /// receptions are ignored and gaps are reported via MissingSeqs() for
  /// the NACK/retransmission protocol.
  SimClient(ClientId id, size_t channel, const QuerySet* queries,
            std::vector<QueryId> subscriptions, bool enable_cache = false,
            bool reliable = false);

  ClientId id() const { return id_; }
  size_t channel() const { return channel_; }

  /// Processes one broadcast message. Messages on a foreign channel are
  /// counted as misrouted and dropped (never trusted).
  void Receive(const Message& msg, const Table& table);

  /// The combined, deduplicated answer to one subscribed query after all
  /// messages of the round were received.
  std::vector<RowId> AnswerFor(QueryId query) const;

  const std::vector<QueryId>& subscriptions() const { return subscriptions_; }

  /// Replaces the subscription list (ascending), e.g. after the client
  /// subscribed or retired queries between rounds; the cache persists.
  void SetSubscriptions(const std::vector<QueryId>& subscriptions);

  const ClientStats& stats() const { return stats_; }

  /// Clears per-round answers, counters, sequence state, and answer
  /// statuses; the cache persists.
  void StartRound();

  /// Sequence numbers of this round not yet received, given the server's
  /// announced per-channel message count (the session announcement of the
  /// NACK protocol). Empty in non-reliable mode. A client that received
  /// nothing reports every sequence number as missing.
  std::vector<uint32_t> MissingSeqs(uint32_t channel_total) const;

  /// Grades each subscription after recovery ended: kComplete when no
  /// sequence gap remains; otherwise the client cannot know what the lost
  /// messages carried, so every subscription degrades to kPartial (some
  /// data arrived for it) or kFailed (none did). No-op in non-reliable
  /// mode (everything stays kComplete).
  void FinalizeRound(uint32_t channel_total);

  /// Status of one subscription (valid after FinalizeRound; defaults to
  /// kComplete).
  AnswerStatus StatusFor(QueryId query) const;

  /// Subscriptions whose status is not kComplete.
  size_t num_incomplete() const;

 private:
  ClientId id_;
  size_t channel_;
  const QuerySet* queries_;
  std::vector<QueryId> subscriptions_;
  bool enable_cache_;
  bool reliable_;
  std::map<QueryId, std::vector<std::vector<RowId>>> partial_answers_;
  std::set<RowId> cache_;
  std::set<uint32_t> seen_seqs_;
  std::map<QueryId, AnswerStatus> statuses_;
  ClientStats stats_;
};

}  // namespace qsp

#endif  // QSP_NET_SIM_CLIENT_H_
