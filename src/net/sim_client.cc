#include "net/sim_client.h"

#include <algorithm>
#include <cstdint>

#include "query/extractor.h"
#include "util/status.h"

namespace qsp {

SimClient::SimClient(ClientId id, size_t channel, const QuerySet* queries,
                     std::vector<QueryId> subscriptions, bool enable_cache,
                     bool reliable)
    : id_(id),
      channel_(channel),
      queries_(queries),
      subscriptions_(std::move(subscriptions)),
      enable_cache_(enable_cache),
      reliable_(reliable) {
  QSP_CHECK(queries != nullptr);
}

void SimClient::SetSubscriptions(const std::vector<QueryId>& subscriptions) {
  subscriptions_ = subscriptions;
}

void SimClient::StartRound() {
  partial_answers_.clear();
  seen_seqs_.clear();
  statuses_.clear();
  stats_ = ClientStats{};
}

void SimClient::Receive(const Message& msg, const Table& table) {
  if (msg.channel != channel_) {
    ++stats_.misrouted_messages;
    return;
  }
  ++stats_.headers_checked;
  if (reliable_ && !seen_seqs_.insert(msg.seq).second) {
    ++stats_.duplicates_ignored;
    return;
  }
  const bool addressed =
      std::find(msg.recipients.begin(), msg.recipients.end(), id_) !=
      msg.recipients.end();
  if (!addressed) return;
  ++stats_.messages_processed;

  // Flag the payload rows that land in at least one of this client's
  // answers, to count irrelevant rows once per message. The payload is
  // unique, so one flag per index is one flag per row. Every extractor
  // examines the whole payload, so cached rows are counted once per
  // extractor; positions are gathered once for all of them.
  std::vector<uint8_t> used(msg.payload.size(), 0);
  size_t cached_rows = 0;
  if (enable_cache_) {
    for (RowId row : msg.payload) cached_rows += cache_.count(row);
  }
  std::vector<Point> positions;
  for (const HeaderEntry& entry : msg.extractors) {
    if (entry.client != id_) continue;
    stats_.rows_examined += msg.payload.size();
    stats_.cache_hits += cached_rows;

    // Server-tagged payloads skip the per-tuple geometric test: the tag
    // bit of this entry's query decides membership.
    int tag_bit = -1;
    if (msg.HasTags()) {
      for (size_t k = 0; k < msg.members.size(); ++k) {
        if (msg.members[k] == entry.spec.query) {
          tag_bit = static_cast<int>(k);
          break;
        }
      }
    }

    if (tag_bit < 0 && positions.size() != msg.payload.size()) {
      positions.reserve(msg.payload.size());
      for (RowId row : msg.payload) positions.push_back(table.PositionOf(row));
    }

    // Write every row and advance past the ones this extractor keeps.
    std::vector<RowId> part(msg.payload.size());
    size_t kept = 0;
    for (size_t i = 0; i < msg.payload.size(); ++i) {
      const bool mine = tag_bit >= 0
                            ? (msg.payload_tags[i] & (1u << tag_bit)) != 0
                            : entry.spec.rect.Contains(positions[i]);
      part[kept] = msg.payload[i];
      kept += mine;
      used[i] |= static_cast<uint8_t>(mine);
    }
    part.resize(kept);
    part.shrink_to_fit();
    partial_answers_[entry.spec.query].push_back(std::move(part));
  }
  const size_t used_rows =
      static_cast<size_t>(std::count(used.begin(), used.end(), 1));
  stats_.rows_irrelevant += msg.payload.size() - used_rows;
  if (enable_cache_) {
    cache_.insert(msg.payload.begin(), msg.payload.end());
  }
}

std::vector<RowId> SimClient::AnswerFor(QueryId query) const {
  auto it = partial_answers_.find(query);
  if (it == partial_answers_.end()) return {};
  return CombineAnswers(it->second);
}

std::vector<uint32_t> SimClient::MissingSeqs(uint32_t channel_total) const {
  std::vector<uint32_t> missing;
  if (!reliable_) return missing;
  for (uint32_t seq = 0; seq < channel_total; ++seq) {
    if (seen_seqs_.count(seq) == 0) missing.push_back(seq);
  }
  return missing;
}

void SimClient::FinalizeRound(uint32_t channel_total) {
  statuses_.clear();
  if (!reliable_) return;
  if (MissingSeqs(channel_total).empty()) return;  // All kComplete.
  for (QueryId query : subscriptions_) {
    auto it = partial_answers_.find(query);
    const bool any_data = it != partial_answers_.end() && !it->second.empty();
    statuses_[query] = any_data ? AnswerStatus::kPartial
                                : AnswerStatus::kFailed;
  }
}

AnswerStatus SimClient::StatusFor(QueryId query) const {
  auto it = statuses_.find(query);
  return it == statuses_.end() ? AnswerStatus::kComplete : it->second;
}

size_t SimClient::num_incomplete() const { return statuses_.size(); }

}  // namespace qsp
