#ifndef QSP_NET_MESSAGE_H_
#define QSP_NET_MESSAGE_H_

#include <cstddef>
#include <vector>

#include "channel/client_set.h"
#include "query/extractor.h"
#include "relation/table.h"

namespace qsp {

/// One (client, extractor, query) header entry: `client` applies
/// `spec.rect` to the payload to recover ans(spec.query) — the (e, q)
/// pairs of Section 3.1.
struct HeaderEntry {
  ClientId client = 0;
  ExtractorSpec spec;
};

/// How clients recover their answers from a merged answer (the two
/// extractor implementations of Section 3.1).
enum class ExtractionMode {
  /// The extractor is the original query: clients re-apply their
  /// rectangle to every payload tuple. No extra payload bytes.
  kSelfExtract,
  /// The server tags each payload object with the member queries whose
  /// answer it belongs to; clients just match tags. Costs 4 bytes per
  /// payload row, saves the per-tuple geometric test at the clients.
  /// Falls back to kSelfExtract for merged queries with more than 32
  /// members (tag bits are a u32).
  kServerTags,
};

/// A merged answer in flight on a multicast channel. The header carries
/// the list of intended recipients and their extractors; every client on
/// the channel sees the message and checks the header (that per-message
/// work is the k6 term of the cost model).
struct Message {
  /// Channel the message is broadcast on.
  size_t channel = 0;
  /// Reliability header: position of this message in its channel's round
  /// (assigned contiguously from 0 by the server), the round it belongs
  /// to, and how many messages the channel carries this round. Clients
  /// detect losses as gaps in `seq` against `total_in_round` and NACK
  /// them (DESIGN.md §6). These fields ride in the wire frame; the
  /// cost-model byte accounting (HeaderBytes) intentionally excludes
  /// them so lossless figures are unchanged.
  uint32_t seq = 0;
  uint32_t round_id = 0;
  uint32_t total_in_round = 0;
  /// Clients that should process the message.
  std::vector<ClientId> recipients;
  /// Per-recipient extraction instructions.
  std::vector<HeaderEntry> extractors;
  /// The merged answer: row ids into the server's table, ascending and
  /// unique. (A real system ships tuples; row ids keep the simulator
  /// cheap while byte accounting uses real tuple sizes.)
  std::vector<RowId> payload;
  /// Member queries of the merged query this message answers, defining
  /// the bit positions of payload_tags. Only set under kServerTags.
  std::vector<QueryId> members;
  /// Parallel to payload when non-empty: bit k set means the row belongs
  /// to ans(members[k]).
  std::vector<uint32_t> payload_tags;

  bool HasTags() const { return !payload_tags.empty(); }

  /// Approximate header wire size in bytes.
  size_t HeaderBytes() const {
    return 8 + 4 * recipients.size() + (4 + 4 + 4 * 8) * extractors.size() +
           4 * members.size();
  }

  /// Payload wire size in bytes given the backing table (tags included).
  size_t PayloadBytes(const Table& table) const {
    size_t bytes = 4 * payload_tags.size();
    for (RowId id : payload) bytes += table.RowWireSize(id);
    return bytes;
  }
};

/// The server's full output for one subscription period: which clients
/// listen to which channel, and how each channel's queries are grouped.
struct DisseminationPlan {
  /// allocation[ch] = clients listening to channel ch.
  Allocation allocation;
  /// channel_partitions[ch] = merged grouping of the queries served on
  /// channel ch (the union of that channel's clients' subscriptions).
  std::vector<Partition> channel_partitions;
};

}  // namespace qsp

#endif  // QSP_NET_MESSAGE_H_
