#include "net/simulator.h"

#include <map>
#include <set>
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

void MulticastSimulator::RunLossyRound(const std::vector<Message>& messages,
                                       RoundStats* stats) {
  FaultInjector& injector = *fault_;
  const FaultPolicy& policy = injector.policy();

  // Per-channel views: message order within a channel is seq order, so
  // by_channel[ch][s]->seq == s.
  std::map<size_t, std::vector<const Message*>> by_channel;
  for (const Message& msg : messages) by_channel[msg.channel].push_back(&msg);
  for (const auto& [channel, channel_messages] : by_channel) {
    for (size_t s = 0; s < channel_messages.size(); ++s) {
      QSP_CHECK(channel_messages[s]->seq == s);
    }
  }
  auto channel_total = [&by_channel](size_t channel) -> uint32_t {
    auto it = by_channel.find(channel);
    return it == by_channel.end()
               ? 0u
               : static_cast<uint32_t>(it->second.size());
  };

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
  // pristine frame is encoded once per message.
  const bool model_corruption = policy.corrupt_rate > 0;
  std::map<const Message*, std::vector<uint8_t>> frames;
  if (model_corruption) {
    for (const Message& msg : messages) {
      auto frame = EncodeMessage(msg, *table_);
      if (frame.ok()) frames.emplace(&msg, std::move(frame).value());
    }
  }

  // Hands one frame to a client, possibly corrupting it in flight. A
  // corrupted frame that fails the checksummed decode is a detected drop.
  auto deliver = [&](const Message& msg, SimClient& client) {
    if (model_corruption) {
      auto it = frames.find(&msg);
      if (it != frames.end()) {
        std::vector<uint8_t> corrupted = it->second;
        if (injector.CorruptFrame(&corrupted) > 0 &&
            !DecodeMessage(corrupted, table_->schema()).ok()) {
          ++stats->corrupted_frames;
          ++stats->drops;
          return;
        }
      }
    }
    client.Receive(msg, *table_);
  };

  // Broadcast pass: per client, build the delivery queue the lossy
  // channel presents (drops, duplicates, reordering), then deliver it.
  for (const auto& [channel, channel_messages] : by_channel) {
    obs::ScopedSpan channel_span("broadcast/ch" + std::to_string(channel));
    for (size_t i = 0; i < sim_clients_.size(); ++i) {
      SimClient& client = sim_clients_[i];
      if (client.channel() != channel || crashed[i] || late[i]) continue;
      std::vector<const Message*> queue;
      for (const Message* msg : channel_messages) {
        if (injector.DropDelivery(msg->seq, /*attempt=*/0)) {
          ++stats->drops;
          continue;
        }
        queue.push_back(msg);
        if (injector.DuplicateDelivery()) queue.push_back(msg);
      }
      for (size_t j = 0; j + 1 < queue.size(); ++j) {
        if (injector.ReorderPair()) {
          std::swap(queue[j], queue[j + 1]);
          ++stats->reordered_deliveries;
        }
      }
      for (const Message* msg : queue) deliver(*msg, client);
    }
  }

  // Bounded NACK/retransmission recovery: clients report sequence gaps
  // against the announced per-channel round size; the server re-multicasts
  // the union of NACKed messages, with exponential backoff accounted per
  // pass. After max_retx passes clients degrade to partial answers.
  obs::ScopedSpan recover_span("recover");
  for (int attempt = 1; attempt <= policy.max_retx; ++attempt) {
    std::map<size_t, std::set<uint32_t>> nacked;
    size_t nacks_this_pass = 0;
    for (size_t i = 0; i < sim_clients_.size(); ++i) {
      if (crashed[i]) continue;
      const SimClient& client = sim_clients_[i];
      const std::vector<uint32_t> missing =
          client.MissingSeqs(channel_total(client.channel()));
      nacks_this_pass += missing.size();
      for (uint32_t s : missing) nacked[client.channel()].insert(s);
    }
    if (nacks_this_pass == 0) break;
    stats->nacks += nacks_this_pass;
    ++stats->retx_rounds;
    stats->backoff_units += static_cast<size_t>(1) << (attempt - 1);

    obs::ScopedSpan pass_span("retx" + std::to_string(attempt));
    for (const auto& [channel, seqs] : nacked) {
      for (uint32_t s : seqs) {
        const Message& msg = *by_channel[channel][s];
        ++stats->retx_messages;
        stats->retx_bytes += msg.HeaderBytes() + msg.PayloadBytes(*table_);
        // Retransmissions are multicast too: every live client on the
        // channel sees them (and dedups by seq); each delivery runs the
        // same lossy gauntlet as the original.
        for (size_t i = 0; i < sim_clients_.size(); ++i) {
          if (sim_clients_[i].channel() != channel || crashed[i]) continue;
          if (injector.DropDelivery(msg.seq, attempt)) {
            ++stats->drops;
            continue;
          }
          deliver(msg, sim_clients_[i]);
        }
      }
    }
  }

  // Grade every subscription; remaining gaps degrade to partial/failed.
  for (SimClient& client : sim_clients_) {
    client.FinalizeRound(channel_total(client.channel()));
    stats->incomplete_answers += client.num_incomplete();
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
  obs::PhaseTracer::Default().Begin("execute");
  std::vector<Message> messages = server_.ExecuteRound(plan, procedure, mode);
  obs::PhaseTracer::Default().End();
  const uint32_t round_id = round_counter_++;
  for (Message& msg : messages) msg.round_id = round_id;
  stats.num_messages = messages.size();
  std::set<size_t> used_channels;
  for (const Message& msg : messages) {
    stats.payload_bytes += msg.PayloadBytes(*table_);
    stats.header_bytes += msg.HeaderBytes();
    stats.payload_rows += msg.payload.size();
    used_channels.insert(msg.channel);
  }
  stats.channels_used = used_channels.size();

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

  // Broadcast: every client on a channel sees every message on it. Each
  // client listens to exactly one channel, so delivering channel-by-channel
  // preserves every client's message order; with tracing on, that grouping
  // gives one span per channel. With a fault policy, delivery instead runs
  // the lossy channel + NACK recovery path (kept serial: the injector's
  // seeded draw order is part of the reproducibility contract).
  if (fault_.has_value()) {
    RunLossyRound(messages, &stats);
  } else if (exec::DefaultPool() != nullptr) {
    // Channels partition the clients, so the per-channel passes are
    // independent and fan out across the exec pool; within a channel,
    // message order (and therefore every client's delivery order) is
    // unchanged. The phase tracer is single-threaded, so the parallel
    // pass records one span for the whole broadcast instead of one per
    // channel.
    obs::ScopedSpan broadcast_span("broadcast");
    std::map<size_t, std::vector<const Message*>> by_channel;
    for (const Message& msg : messages) by_channel[msg.channel].push_back(&msg);
    std::vector<const std::vector<const Message*>*> channel_messages;
    std::vector<size_t> channel_ids;
    for (const auto& [channel, msgs] : by_channel) {
      channel_ids.push_back(channel);
      channel_messages.push_back(&msgs);
    }
    exec::ParallelFor(channel_ids.size(), [&](size_t k) {
      const size_t channel = channel_ids[k];
      for (const Message* msg : *channel_messages[k]) {
        for (SimClient& client : sim_clients_) {
          if (client.channel() == channel) client.Receive(*msg, *table_);
        }
      }
    });
  } else if (!obs::Enabled()) {
    for (const Message& msg : messages) {
      for (SimClient& client : sim_clients_) {
        if (client.channel() == msg.channel) client.Receive(msg, *table_);
      }
    }
  } else {
    std::map<size_t, std::vector<const Message*>> by_channel;
    for (const Message& msg : messages) by_channel[msg.channel].push_back(&msg);
    for (const auto& [channel, channel_messages] : by_channel) {
      obs::ScopedSpan channel_span("broadcast/ch" + std::to_string(channel));
      for (const Message* msg : channel_messages) {
        for (SimClient& client : sim_clients_) {
          if (client.channel() == channel) client.Receive(*msg, *table_);
        }
      }
    }
  }

  // Client-side accounting + end-to-end verification.
  obs::PhaseTracer::Default().Begin("extract-verify");
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
  obs::PhaseTracer::Default().End();

  if (obs::Enabled()) RecordRoundMetrics(stats);
  return stats;
}

}  // namespace qsp
