#include "channel/client_set.h"

#include <algorithm>

namespace qsp {

ClientId ClientSet::AddClient() {
  subscriptions_.emplace_back();
  return static_cast<ClientId>(subscriptions_.size() - 1);
}

void ClientSet::Subscribe(ClientId client, QueryId query) {
  auto& queries = subscriptions_[client];
  auto it = std::lower_bound(queries.begin(), queries.end(), query);
  if (it != queries.end() && *it == query) return;
  queries.insert(it, query);
  if (subscribers_.size() <= query) subscribers_.resize(query + size_t{1});
  auto& subscribers = subscribers_[query];
  subscribers.insert(
      std::lower_bound(subscribers.begin(), subscribers.end(), client),
      client);
}

void ClientSet::Unsubscribe(ClientId client, QueryId query) {
  if (client >= subscriptions_.size()) return;
  auto& queries = subscriptions_[client];
  auto it = std::lower_bound(queries.begin(), queries.end(), query);
  if (it == queries.end() || *it != query) return;
  queries.erase(it);
  auto& subscribers = subscribers_[query];
  subscribers.erase(
      std::lower_bound(subscribers.begin(), subscribers.end(), client));
  // The live service never reuses a retired query id, so an emptied
  // list gives its memory back.
  if (subscribers.empty()) std::vector<ClientId>().swap(subscribers);
}

const std::vector<ClientId>& ClientSet::SubscribersOf(QueryId query) const {
  static const std::vector<ClientId> kNone;
  return query < subscribers_.size() ? subscribers_[query] : kNone;
}

std::vector<QueryId> ClientSet::QueriesOfClients(
    const std::vector<ClientId>& clients) const {
  std::vector<QueryId> out;
  for (ClientId c : clients) {
    out.insert(out.end(), subscriptions_[c].begin(), subscriptions_[c].end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<ClientId> ClientSet::AllClients() const {
  std::vector<ClientId> out(subscriptions_.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<ClientId>(i);
  return out;
}

void CanonicalizeAllocation(Allocation* allocation) {
  for (auto& channel : *allocation) {
    std::sort(channel.begin(), channel.end());
    channel.erase(std::unique(channel.begin(), channel.end()),
                  channel.end());
  }
  allocation->erase(
      std::remove_if(allocation->begin(), allocation->end(),
                     [](const std::vector<ClientId>& ch) {
                       return ch.empty();
                     }),
      allocation->end());
  std::sort(allocation->begin(), allocation->end(),
            [](const std::vector<ClientId>& a,
               const std::vector<ClientId>& b) {
              return a.front() < b.front();
            });
}

bool IsValidAllocation(const Allocation& allocation, size_t num_clients,
                       size_t num_channels) {
  if (allocation.size() > num_channels) return false;
  std::vector<int> seen(num_clients, 0);
  for (const auto& channel : allocation) {
    for (ClientId c : channel) {
      if (c >= num_clients) return false;
      if (++seen[c] > 1) return false;
    }
  }
  for (int count : seen) {
    if (count != 1) return false;
  }
  return true;
}

std::string AllocationToString(const Allocation& allocation) {
  std::string out = "[";
  for (size_t ch = 0; ch < allocation.size(); ++ch) {
    if (ch > 0) out += " ";
    out += "{";
    for (size_t i = 0; i < allocation[ch].size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(allocation[ch][i]);
    }
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace qsp
