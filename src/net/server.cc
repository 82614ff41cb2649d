#include "net/server.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "query/extractor.h"
#include "util/status.h"

namespace qsp {

Server::Server(const Table* table, const SpatialIndex* index,
               const QuerySet* queries, const ClientSet* clients)
    : table_(table), index_(index), queries_(queries), clients_(clients) {
  QSP_CHECK(table != nullptr);
  QSP_CHECK(index != nullptr);
  QSP_CHECK(queries != nullptr);
  QSP_CHECK(clients != nullptr);
}

namespace {

/// Marks "client not on the channel" in a channel-position map.
constexpr uint32_t kOffChannel = 0xffffffffu;

/// Builds the message for one merged query on one channel.
/// `channel_pos[c]` is client c's position in `channel_clients`, or
/// kOffChannel.
Message BuildMessage(size_t channel, const MergedQuery& merged,
                     const std::vector<ClientId>& channel_clients,
                     const std::vector<uint32_t>& channel_pos,
                     const SpatialIndex& index, const Table& table,
                     const QuerySet& queries, const ClientSet& clients,
                     ExtractionMode mode) {
  Message msg;
  msg.channel = channel;

  // Evaluate the merged region. Pieces are interior-disjoint but share
  // boundaries; combining dedupes to keep each row once.
  std::vector<std::vector<RowId>> parts;
  parts.reserve(merged.region.size());
  for (const Rect& piece : merged.region) parts.push_back(index.Query(piece));
  msg.payload = CombineAnswers(std::move(parts));

  // Server-side tagging: mark which member queries each row serves.
  if (mode == ExtractionMode::kServerTags && merged.members.size() <= 32) {
    msg.members = merged.members;
    msg.payload_tags.reserve(msg.payload.size());
    for (RowId row : msg.payload) {
      uint32_t tags = 0;
      const Point position = table.PositionOf(row);
      for (size_t k = 0; k < merged.members.size(); ++k) {
        if (queries.rect(merged.members[k]).Contains(position)) {
          tags |= 1u << k;
        }
      }
      msg.payload_tags.push_back(tags);
    }
  }

  // Header: every channel client subscribed to a member query is a
  // recipient, with one extractor entry per such query, in channel-client
  // order, then member order. The (position, member) hits come from the
  // members' subscriber lists, so a header costs its members'
  // subscribers rather than the channel's clients times the members.
  std::vector<std::pair<uint32_t, uint32_t>> hits;
  for (uint32_t k = 0; k < merged.members.size(); ++k) {
    for (ClientId client : clients.SubscribersOf(merged.members[k])) {
      if (channel_pos[client] != kOffChannel) {
        hits.emplace_back(channel_pos[client], k);
      }
    }
  }
  std::sort(hits.begin(), hits.end());
  for (const auto& [pos, k] : hits) {
    const ClientId client = channel_clients[pos];
    const QueryId member = merged.members[k];
    msg.extractors.push_back({client, {member, queries.rect(member)}});
    if (msg.recipients.empty() || msg.recipients.back() != client) {
      msg.recipients.push_back(client);
    }
  }
  return msg;
}

}  // namespace

std::vector<Message> Server::ExecuteRound(const DisseminationPlan& plan,
                                          const MergeProcedure& procedure,
                                          ExtractionMode mode) const {
  QSP_CHECK(plan.channel_partitions.size() == plan.allocation.size());
  std::vector<std::vector<MergedQuery>> merged_per_channel(
      plan.allocation.size());
  for (size_t ch = 0; ch < plan.allocation.size(); ++ch) {
    for (const QueryGroup& group : plan.channel_partitions[ch]) {
      std::vector<MergedQuery> merged = procedure.Merge(*queries_, group);
      for (MergedQuery& m : merged) {
        merged_per_channel[ch].push_back(std::move(m));
      }
    }
  }
  return ExecuteRoundMerged(plan.allocation, merged_per_channel, mode);
}

std::vector<Message> Server::ExecuteRoundMerged(
    const Allocation& allocation,
    const std::vector<std::vector<MergedQuery>>& merged_per_channel,
    ExtractionMode mode) const {
  QSP_CHECK(merged_per_channel.size() == allocation.size());
  std::vector<Message> messages;
  // Each channel's client positions, cleared again after the channel. A
  // client the ClientSet does not know has no subscriptions, so it can
  // receive nothing and stays off the map.
  std::vector<uint32_t> channel_pos(clients_->num_clients(), kOffChannel);
  for (size_t ch = 0; ch < allocation.size(); ++ch) {
    const std::vector<ClientId>& channel_clients = allocation[ch];
    for (uint32_t p = 0; p < channel_clients.size(); ++p) {
      if (channel_clients[p] < channel_pos.size()) {
        channel_pos[channel_clients[p]] = p;
      }
    }
    const uint32_t channel_total =
        static_cast<uint32_t>(merged_per_channel[ch].size());
    uint32_t seq = 0;
    for (const MergedQuery& merged : merged_per_channel[ch]) {
      Message msg =
          BuildMessage(ch, merged, channel_clients, channel_pos, *index_,
                       *table_, *queries_, *clients_, mode);
      // Reliability header: contiguous per-channel sequence numbers and
      // the channel's announced round size, so clients can detect gaps
      // (including trailing losses) and NACK them.
      msg.seq = seq++;
      msg.total_in_round = channel_total;
      messages.push_back(std::move(msg));
    }
    for (ClientId client : channel_clients) {
      if (client < channel_pos.size()) channel_pos[client] = kOffChannel;
    }
  }
  return messages;
}

std::vector<RowId> Server::DirectAnswer(QueryId query) const {
  return index_->Query(queries_->rect(query));
}

bool Server::MatchesDirectAnswer(QueryId query,
                                 const std::vector<RowId>& answer) const {
  const Rect& rect = queries_->rect(query);
  for (size_t i = 0; i < answer.size(); ++i) {
    const RowId id = answer[i];
    if (i > 0 && id <= answer[i - 1]) return false;
    if (id >= table_->num_rows() || !rect.Contains(table_->PositionOf(id))) {
      return false;
    }
  }
  return answer.size() == index_->Count(rect);
}

}  // namespace qsp
