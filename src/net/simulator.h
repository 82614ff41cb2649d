#ifndef QSP_NET_SIMULATOR_H_
#define QSP_NET_SIMULATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "net/fault_injector.h"
#include "net/message.h"
#include "net/server.h"
#include "net/sim_client.h"

namespace qsp {

/// Aggregate measurements of one dissemination round — the simulated
/// counterparts of the cost-model terms, for validating that the planner's
/// estimated costs track real traffic.
struct RoundStats {
  /// Number of merged-answer messages broadcast (|M|).
  size_t num_messages = 0;
  /// Total payload bytes on the wire (size(M) in bytes).
  size_t payload_bytes = 0;
  /// Total header bytes on the wire.
  size_t header_bytes = 0;
  /// Total payload rows across messages (size(M) in tuples).
  size_t payload_rows = 0;
  /// Rows delivered to clients that none of their answers needed (U).
  size_t irrelevant_rows = 0;
  /// Rows examined by client extractors.
  size_t rows_examined = 0;
  /// Header checks performed across all clients.
  size_t headers_checked = 0;
  /// Rows clients had already cached from earlier rounds (only nonzero
  /// with the client cache enabled).
  size_t cache_hits = 0;
  /// Channels that carried at least one message.
  size_t channels_used = 0;
  /// Bytes actually serialized through the wire format (0 unless the
  /// simulator was built with verify_wire).
  size_t wire_bytes = 0;
  /// True when every message survived an encode/decode round trip with
  /// identical header and tuples. Trivially true with verify_wire off, so
  /// the default is true — a stats object that never saw a wire failure
  /// reports success.
  bool wire_round_trip_ok = true;
  /// True when every client's recovered answer for every subscription
  /// exactly equals the direct evaluation of the original query. Checked
  /// by Server::MatchesDirectAnswer without building that evaluation: the
  /// answer is strictly ascending, every row lies in the query rectangle,
  /// and its size is the index's Count of the rectangle.
  bool all_answers_correct = false;

  // --- reliability & fault injection (DESIGN.md §6) -----------------------
  // All zero unless the simulator was built with a FaultPolicy, so the
  // lossless figures are unaffected.

  /// Delivery attempts lost: stochastic drops, forced drops, and frames
  /// rejected by the checksum.
  size_t drops = 0;
  /// Frames whose corruption was caught by the CRC32 (subset of drops).
  size_t corrupted_frames = 0;
  /// Receptions discarded by sequence-number dedup (duplicated
  /// deliveries and redundant retransmissions).
  size_t duplicate_deliveries = 0;
  /// Adjacent swaps injected into client delivery queues.
  size_t reordered_deliveries = 0;
  /// Missing-sequence reports sent by clients across recovery passes.
  size_t nacks = 0;
  /// Messages re-broadcast in response to NACKs.
  size_t retx_messages = 0;
  /// Header + payload bytes of those retransmissions.
  size_t retx_bytes = 0;
  /// Recovery passes that actually ran (<= FaultPolicy::max_retx).
  size_t retx_rounds = 0;
  /// Exponential-backoff accounting: sum of 2^(pass-1) over recovery
  /// passes, in units of the base backoff interval.
  size_t backoff_units = 0;
  /// Clients that crashed this round (received nothing, sent no NACKs).
  size_t crashed_clients = 0;
  /// Clients that joined late (missed the broadcast pass, recovered via
  /// NACKs only).
  size_t late_join_clients = 0;
  /// Subscriptions that ended the round kPartial or kFailed.
  size_t incomplete_answers = 0;

  bool operator==(const RoundStats&) const = default;
};

/// End-to-end dissemination simulator (the environment of Figure 15):
/// builds clients per the plan's allocation, runs the server, broadcasts
/// each message to every client on its channel, and verifies extraction.
///
/// With a FaultPolicy the broadcast passes through a lossy channel
/// (drops, duplicates, reordering, corruption, churn) and a bounded
/// NACK/retransmission protocol recovers the losses; see DESIGN.md §6.
class MulticastSimulator {
 public:
  /// `verify_wire` additionally serializes every message through the
  /// binary wire format (net/wire.h), decodes it, and checks the round
  /// trip — exercising what a real deployment would put on the network.
  /// Supplying `fault` (even with all-zero rates) routes delivery through
  /// the reliability path: sequence tracking, NACK collection, and
  /// AnswerStatus grading. With all-zero rates that path reproduces the
  /// lossless simulator's RoundStats exactly.
  MulticastSimulator(const Table* table, const SpatialIndex* index,
                     const QuerySet* queries, const ClientSet* clients,
                     bool enable_client_cache = false,
                     bool verify_wire = false,
                     std::optional<FaultPolicy> fault = std::nullopt);

  /// Executes one round under `plan` and `procedure`; `mode` selects the
  /// extractor implementation (self-extraction vs server tags).
  RoundStats RunRound(const DisseminationPlan& plan,
                      const MergeProcedure& procedure,
                      ExtractionMode mode = ExtractionMode::kSelfExtract);

  /// Clients built for the most recent round (inspection/testing).
  const std::vector<SimClient>& sim_clients() const { return sim_clients_; }

 private:
  /// One channel's message range and client range in a round.
  struct ChannelRange;

  /// Each channel's ranges, indexed by channel. Checks the orderings they
  /// rely on: `messages` ascend by channel with seq equal to the offset
  /// within the channel, and sim_clients_ is grouped by channel.
  std::vector<ChannelRange> ChannelRanges(
      size_t num_channels, const std::vector<Message>& messages) const;

  /// Lossy broadcast pass plus bounded NACK/retransmission recovery.
  void RunLossyRound(const std::vector<Message>& messages,
                     const std::vector<ChannelRange>& channels,
                     RoundStats* stats);

  const Table* table_;
  const SpatialIndex* index_;
  const QuerySet* queries_;
  const ClientSet* clients_;
  bool enable_client_cache_;
  bool verify_wire_;
  std::optional<FaultInjector> fault_;
  Server server_;
  std::vector<SimClient> sim_clients_;
  Allocation last_allocation_;
  uint32_t round_counter_ = 0;
};

}  // namespace qsp

#endif  // QSP_NET_SIMULATOR_H_
