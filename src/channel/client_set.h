#ifndef QSP_CHANNEL_CLIENT_SET_H_
#define QSP_CHANNEL_CLIENT_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"

namespace qsp {

/// Identifier of a subscribing client (operational unit in the BADD
/// scenario). Dense, assigned in registration order.
using ClientId = uint32_t;

/// An assignment of clients to multicast channels: allocation[ch] is the
/// list of clients listening to channel ch. Every client listens to
/// exactly one channel (Section 7.2).
using Allocation = std::vector<std::vector<ClientId>>;

/// The client population and their subscriptions Q_i.
class ClientSet {
 public:
  ClientSet() = default;

  /// Registers a new client; returns its id.
  ClientId AddClient();

  /// Records that `client` subscribed to `query`.
  void Subscribe(ClientId client, QueryId query);

  /// Retires a subscription (lease expiry or voluntary departure in the
  /// live service). No-op when the pair is not recorded.
  void Unsubscribe(ClientId client, QueryId query);

  size_t num_clients() const { return subscriptions_.size(); }

  /// The queries client `c` subscribed to, ascending, deduplicated.
  const std::vector<QueryId>& QueriesOf(ClientId c) const {
    return subscriptions_[c];
  }

  /// Clients subscribed to `query`, ascending. Read from an index that
  /// Subscribe and Unsubscribe keep, so it costs no scan of the clients;
  /// the reference is valid until the next Subscribe or Unsubscribe.
  const std::vector<ClientId>& SubscribersOf(QueryId query) const;

  /// Union of the queries of a set of clients, ascending.
  std::vector<QueryId> QueriesOfClients(
      const std::vector<ClientId>& clients) const;

  /// All client ids, ascending.
  std::vector<ClientId> AllClients() const;

 private:
  std::vector<std::vector<QueryId>> subscriptions_;
  /// subscribers_[q]: the clients subscribed to q, ascending — the
  /// inverse of subscriptions_, for the server's message headers.
  std::vector<std::vector<ClientId>> subscribers_;
};

/// Drops empty channels and orders clients/channels canonically so that
/// structurally equal allocations compare equal.
void CanonicalizeAllocation(Allocation* allocation);

/// True when every client 0..num_clients-1 appears exactly once and at
/// most `num_channels` channels are used.
bool IsValidAllocation(const Allocation& allocation, size_t num_clients,
                       size_t num_channels);

/// "[{0,2} {1}]" rendering.
std::string AllocationToString(const Allocation& allocation);

}  // namespace qsp

#endif  // QSP_CHANNEL_CLIENT_SET_H_
