#include "net/simulator.h"

#include <string>
#include <utility>

#include "exec/thread_pool.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/phase_tracer.h"
#include "util/status.h"

namespace qsp {

MulticastSimulator::MulticastSimulator(const Table* table,
                                       const SpatialIndex* index,
                                       const QuerySet* queries,
                                       const ClientSet* clients,
                                       bool enable_client_cache,
                                       bool verify_wire,
                                       std::optional<FaultPolicy> fault)
    : table_(table),
      index_(index),
      queries_(queries),
      clients_(clients),
      enable_client_cache_(enable_client_cache),
      verify_wire_(verify_wire),
      server_(table, index, queries, clients) {
  if (fault.has_value()) fault_.emplace(std::move(fault).value());
}

namespace {

/// Folds one round's measurements into the default registry so that the
/// measured counterparts of the cost-model terms (|M|, size(M), U) are
/// queryable next to the planner's estimates. Counters accumulate across
/// rounds; gauges keep the most recent round. Recovery-path counters use
/// zero-delta elision (obs::Count skips them), so a lossless run
/// registers no net.recover.* metrics and its reports are unchanged.
void RecordRoundMetrics(const RoundStats& stats) {
  obs::Count("net.round.rounds");
  obs::Count("net.round.messages", stats.num_messages);
  obs::Count("net.round.payload_rows", stats.payload_rows);
  obs::Count("net.round.payload_bytes", stats.payload_bytes);
  obs::Count("net.round.header_bytes", stats.header_bytes);
  obs::Count("net.round.irrelevant_rows", stats.irrelevant_rows);
  obs::Count("net.round.rows_examined", stats.rows_examined);
  obs::Count("net.round.headers_checked", stats.headers_checked);
  obs::Count("net.round.cache_hits", stats.cache_hits);
  obs::Count("net.round.wire_bytes", stats.wire_bytes);
  obs::Count("net.recover.drops", stats.drops);
  obs::Count("net.recover.corrupted_frames", stats.corrupted_frames);
  obs::Count("net.recover.duplicate_deliveries", stats.duplicate_deliveries);
  obs::Count("net.recover.reordered_deliveries", stats.reordered_deliveries);
  obs::Count("net.recover.nacks", stats.nacks);
  obs::Count("net.recover.retx_messages", stats.retx_messages);
  obs::Count("net.recover.retx_bytes", stats.retx_bytes);
  obs::Count("net.recover.retx_rounds", stats.retx_rounds);
  obs::Count("net.recover.backoff_units", stats.backoff_units);
  obs::Count("net.recover.crashed_clients", stats.crashed_clients);
  obs::Count("net.recover.late_join_clients", stats.late_join_clients);
  obs::Count("net.recover.incomplete_answers", stats.incomplete_answers);
  obs::SetGauge("net.round.last_messages",
                static_cast<double>(stats.num_messages));
  obs::SetGauge("net.round.last_payload_rows",
                static_cast<double>(stats.payload_rows));
  obs::SetGauge("net.round.last_irrelevant_rows",
                static_cast<double>(stats.irrelevant_rows));
  obs::SetGauge("net.round.last_channels_used",
                static_cast<double>(stats.channels_used));
}

}  // namespace

/// Messages [msg_begin, msg_end) of the round's message list and clients
/// [client_begin, client_end) of sim_clients_.
struct MulticastSimulator::ChannelRange {
  size_t msg_begin = 0;
  size_t msg_end = 0;
  size_t client_begin = 0;
  size_t client_end = 0;

  uint32_t num_messages() const {
    return static_cast<uint32_t>(msg_end - msg_begin);
  }
};

std::vector<MulticastSimulator::ChannelRange> MulticastSimulator::ChannelRanges(
    size_t num_channels, const std::vector<Message>& messages) const {
  std::vector<ChannelRange> ranges(num_channels);
  size_t m = 0;
  size_t c = 0;
  for (size_t ch = 0; ch < num_channels; ++ch) {
    ChannelRange& range = ranges[ch];
    range.msg_begin = m;
    while (m < messages.size() && messages[m].channel == ch) {
      QSP_CHECK(messages[m].seq == m - range.msg_begin);
      ++m;
    }
    range.msg_end = m;
    range.client_begin = c;
    while (c < sim_clients_.size() && sim_clients_[c].channel() == ch) ++c;
    range.client_end = c;
  }
  // Server::ExecuteRoundMerged emits messages in ascending channel order
  // and RunRound builds the clients channel by channel; an item left
  // over here breaks one of those orderings.
  QSP_CHECK(m == messages.size());
  QSP_CHECK(c == sim_clients_.size());
  return ranges;
}

void MulticastSimulator::RunLossyRound(
    const std::vector<Message>& messages,
    const std::vector<ChannelRange>& channels, RoundStats* stats) {
  FaultInjector& injector = *fault_;
  const FaultPolicy& policy = injector.policy();

  // Per-round churn: crashed clients receive nothing and send no NACKs;
  // late joiners miss the broadcast pass and recover through NACKs only.
  std::vector<bool> crashed(sim_clients_.size(), false);
  std::vector<bool> late(sim_clients_.size(), false);
  for (size_t i = 0; i < sim_clients_.size(); ++i) {
    crashed[i] = injector.CrashesThisRound();
    late[i] = !crashed[i] && injector.JoinsLate();
    if (crashed[i]) ++stats->crashed_clients;
    if (late[i]) ++stats->late_join_clients;
  }

  // Corruption is modeled on the real encoded frames: a delivery whose
  // corrupted frame fails the checksummed decode is a detected drop. The
  // pristine frame is encoded once per message (empty if encoding failed).
  const bool model_corruption = policy.corrupt_rate > 0;
  std::vector<std::vector<uint8_t>> frames;
  if (model_corruption) {
    frames.resize(messages.size());
    for (size_t m = 0; m < messages.size(); ++m) {
      auto frame = EncodeMessage(messages[m], *table_);
      if (frame.ok()) frames[m] = std::move(frame).value();
    }
  }

  // Hands message m to a client, possibly corrupting it in flight. A
  // corrupted frame that fails the checksummed decode is a detected drop.
  auto deliver = [&](size_t m, SimClient& client) {
    if (model_corruption && !frames[m].empty()) {
      std::vector<uint8_t> corrupted = frames[m];
      if (injector.CorruptFrame(&corrupted) > 0 &&
          !DecodeMessage(corrupted, table_->schema()).ok()) {
        ++stats->corrupted_frames;
        ++stats->drops;
        return;
      }
    }
    client.Receive(messages[m], *table_);
  };

  // Broadcast pass: per client, build the delivery queue the lossy
  // channel presents (drops, duplicates, reordering), then deliver it.
  {
    obs::ScopedSpan broadcast_span("broadcast");
    for (const ChannelRange& range : channels) {
      for (size_t i = range.client_begin; i < range.client_end; ++i) {
        if (crashed[i] || late[i]) continue;
        std::vector<size_t> queue;
        for (size_t m = range.msg_begin; m < range.msg_end; ++m) {
          if (injector.DropDelivery(messages[m].seq, /*attempt=*/0)) {
            ++stats->drops;
            continue;
          }
          queue.push_back(m);
          if (injector.DuplicateDelivery()) queue.push_back(m);
        }
        for (size_t j = 0; j + 1 < queue.size(); ++j) {
          if (injector.ReorderPair()) {
            std::swap(queue[j], queue[j + 1]);
            ++stats->reordered_deliveries;
          }
        }
        for (size_t m : queue) deliver(m, sim_clients_[i]);
      }
    }
  }

  // Bounded NACK/retransmission recovery: clients report sequence gaps
  // against the announced per-channel round size; the server re-multicasts
  // the union of NACKed messages, with exponential backoff accounted per
  // pass. After max_retx passes clients degrade to partial answers.
  obs::ScopedSpan recover_span("recover");
  for (int attempt = 1; attempt <= policy.max_retx; ++attempt) {
    // nacked[m]: a live client on message m's channel misses it.
    std::vector<bool> nacked(messages.size(), false);
    size_t nacks_this_pass = 0;
    for (const ChannelRange& range : channels) {
      for (size_t i = range.client_begin; i < range.client_end; ++i) {
        if (crashed[i]) continue;
        const std::vector<uint32_t> missing =
            sim_clients_[i].MissingSeqs(range.num_messages());
        nacks_this_pass += missing.size();
        for (uint32_t s : missing) nacked[range.msg_begin + s] = true;
      }
    }
    if (nacks_this_pass == 0) break;
    stats->nacks += nacks_this_pass;
    ++stats->retx_rounds;
    stats->backoff_units += static_cast<size_t>(1) << (attempt - 1);

    obs::ScopedSpan pass_span("retx" + std::to_string(attempt));
    for (const ChannelRange& range : channels) {
      for (size_t m = range.msg_begin; m < range.msg_end; ++m) {
        if (!nacked[m]) continue;
        const Message& msg = messages[m];
        ++stats->retx_messages;
        stats->retx_bytes += msg.HeaderBytes() + msg.PayloadBytes(*table_);
        // Retransmissions are multicast too: every live client on the
        // channel sees them (and dedups by seq); each delivery runs the
        // same lossy gauntlet as the original.
        for (size_t i = range.client_begin; i < range.client_end; ++i) {
          if (crashed[i]) continue;
          if (injector.DropDelivery(msg.seq, attempt)) {
            ++stats->drops;
            continue;
          }
          deliver(m, sim_clients_[i]);
        }
      }
    }
  }

  // Grade every subscription; remaining gaps degrade to partial/failed.
  for (const ChannelRange& range : channels) {
    for (size_t i = range.client_begin; i < range.client_end; ++i) {
      sim_clients_[i].FinalizeRound(range.num_messages());
      stats->incomplete_answers += sim_clients_[i].num_incomplete();
    }
  }
}

RoundStats MulticastSimulator::RunRound(const DisseminationPlan& plan,
                                        const MergeProcedure& procedure,
                                        ExtractionMode mode) {
  obs::ScopedSpan round_span("simulate");
  // Per-round wall-time distribution — the dissemination-side SLO
  // histogram the PeriodicSampler exports in service mode.
  obs::ScopedTimer round_timer("net.round.latency_us");
  RoundStats stats;

  // Build the client processes per the allocation; when the allocation
  // is unchanged between rounds the same processes are reused so their
  // caches persist (the dynamic-scenario extension). A reused client
  // still takes its current subscriptions: the ClientSet can change
  // under one allocation (the live service subscribes and retires
  // between rounds, always on AllClients()).
  if (plan.allocation != last_allocation_) {
    sim_clients_.clear();
    for (size_t ch = 0; ch < plan.allocation.size(); ++ch) {
      for (ClientId c : plan.allocation[ch]) {
        sim_clients_.emplace_back(c, ch, queries_, clients_->QueriesOf(c),
                                  enable_client_cache_,
                                  /*reliable=*/fault_.has_value());
      }
    }
    last_allocation_ = plan.allocation;
  } else {
    for (SimClient& client : sim_clients_) {
      client.SetSubscriptions(clients_->QueriesOf(client.id()));
    }
  }
  for (SimClient& client : sim_clients_) client.StartRound();

  // Server side.
  std::vector<Message> messages = [&] {
    obs::ScopedSpan execute_span("execute");
    return server_.ExecuteRound(plan, procedure, mode);
  }();
  const uint32_t round_id = round_counter_++;
  for (Message& msg : messages) msg.round_id = round_id;
  const std::vector<ChannelRange> channels =
      ChannelRanges(plan.allocation.size(), messages);
  stats.num_messages = messages.size();
  for (const Message& msg : messages) {
    stats.payload_bytes += msg.PayloadBytes(*table_);
    stats.header_bytes += msg.HeaderBytes();
    stats.payload_rows += msg.payload.size();
  }
  for (const ChannelRange& range : channels) {
    if (range.num_messages() > 0) ++stats.channels_used;
  }

  // Optional wire-format round trip: what a real deployment would
  // actually broadcast.
  stats.wire_round_trip_ok = true;
  if (verify_wire_) {
    for (const Message& msg : messages) {
      auto frame = EncodeMessage(msg, *table_);
      if (!frame.ok()) {
        stats.wire_round_trip_ok = false;
        continue;
      }
      stats.wire_bytes += frame->size();
      auto decoded = DecodeMessage(frame.value(), table_->schema());
      if (!decoded.ok() || decoded->channel != msg.channel ||
          decoded->seq != msg.seq || decoded->round_id != msg.round_id ||
          decoded->total_in_round != msg.total_in_round ||
          decoded->recipients != msg.recipients ||
          decoded->tuples.size() != msg.payload.size()) {
        stats.wire_round_trip_ok = false;
        continue;
      }
      for (size_t i = 0; i < msg.payload.size(); ++i) {
        if (decoded->tuples[i] != table_->row(msg.payload[i])) {
          stats.wire_round_trip_ok = false;
        }
      }
    }
  }

  // Broadcast: every client on a channel sees every message on it, in seq
  // order. Channels partition the clients, so each channel is one
  // independent task, run across the exec pool when there is one and
  // serially otherwise; the phase tracer records nothing inside a
  // parallel region, so one span encloses the pass. With a fault policy,
  // delivery instead runs the lossy channel + NACK recovery path (kept
  // serial: the injector's seeded draw order is part of the
  // reproducibility contract).
  if (fault_.has_value()) {
    RunLossyRound(messages, channels, &stats);
  } else {
    obs::ScopedSpan broadcast_span("broadcast");
    exec::ParallelFor(channels.size(), [&](size_t ch) {
      const ChannelRange& range = channels[ch];
      for (size_t m = range.msg_begin; m < range.msg_end; ++m) {
        for (size_t i = range.client_begin; i < range.client_end; ++i) {
          sim_clients_[i].Receive(messages[m], *table_);
        }
      }
    });
  }

  // Client-side accounting + end-to-end verification.
  {
    obs::ScopedSpan verify_span("extract-verify");
    stats.all_answers_correct = true;
    for (const SimClient& client : sim_clients_) {
      stats.irrelevant_rows += client.stats().rows_irrelevant;
      stats.rows_examined += client.stats().rows_examined;
      stats.headers_checked += client.stats().headers_checked;
      stats.cache_hits += client.stats().cache_hits;
      stats.duplicate_deliveries += client.stats().duplicates_ignored;
      for (QueryId q : client.subscriptions()) {
        if (!server_.MatchesDirectAnswer(q, client.AnswerFor(q))) {
          stats.all_answers_correct = false;
        }
      }
    }
  }

  if (obs::Enabled()) RecordRoundMetrics(stats);
  return stats;
}

}  // namespace qsp
