#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "channel/channel_cost.h"
#include "channel/client_set.h"
#include "channel/hill_climb_allocator.h"
#include "cost/cost_model.h"
#include "net/message.h"
#include "net/server.h"
#include "net/sim_client.h"
#include "net/simulator.h"
#include "net/wire.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "relation/generator.h"
#include "relation/grid_index.h"
#include "stats/size_estimator.h"
#include "util/rng.h"
#include "workload/client_gen.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

/// Small end-to-end world: table + index + queries + clients.
struct World {
  Rect domain{0, 0, 100, 100};
  Table table;
  std::unique_ptr<GridIndex> index;
  QuerySet queries;
  ClientSet clients;

  explicit World(uint64_t seed, size_t num_objects = 500,
                 size_t num_queries = 6, size_t num_clients = 3)
      : table(Schema::Geographic(0)) {
    Rng rng(seed);
    TableGeneratorConfig tconfig;
    tconfig.domain = domain;
    tconfig.num_objects = num_objects;
    tconfig.payload_fields = 0;
    table = GenerateTable(tconfig, &rng);
    index = std::make_unique<GridIndex>(table, domain);
    QueryGenConfig qconfig;
    qconfig.domain = domain;
    qconfig.num_queries = num_queries;
    qconfig.max_extent = 0.3;
    queries = QuerySet(GenerateQueries(qconfig, &rng));
    clients = AssignClients(queries, num_clients,
                            ClientAssignment::kLocality, &rng);
  }

  /// All clients on one channel, each query its own group.
  DisseminationPlan UnmergedPlan() const {
    DisseminationPlan plan;
    plan.allocation.push_back(clients.AllClients());
    plan.channel_partitions.push_back(SingletonPartition(queries.size()));
    return plan;
  }
};

// --------------------------------------------------------------- Message

TEST(MessageTest, ByteAccounting) {
  Table table(Schema::Geographic(0));
  ASSERT_TRUE(table.Insert({1.0, 1.0}).ok());
  ASSERT_TRUE(table.Insert({2.0, 2.0}).ok());
  Message msg;
  msg.recipients = {0, 1};
  msg.extractors = {{0, {0, Rect(0, 0, 5, 5)}}, {1, {1, Rect(0, 0, 5, 5)}}};
  msg.payload = {0, 1};
  EXPECT_EQ(msg.HeaderBytes(), 8 + 4 * 2 + 40 * 2);
  EXPECT_EQ(msg.PayloadBytes(table), 32u);
}

// ---------------------------------------------------------------- Server

TEST(ServerTest, UnmergedPlanProducesOneMessagePerQuery) {
  World world(1);
  Server server(&world.table, world.index.get(), &world.queries,
                &world.clients);
  BoundingRectProcedure proc;
  const auto messages = server.ExecuteRound(world.UnmergedPlan(), proc);
  EXPECT_EQ(messages.size(), world.queries.size());
  for (const Message& msg : messages) {
    EXPECT_EQ(msg.channel, 0u);
    EXPECT_FALSE(msg.recipients.empty());
  }
}

TEST(ServerTest, PayloadMatchesDirectAnswerForSingletons) {
  World world(2);
  Server server(&world.table, world.index.get(), &world.queries,
                &world.clients);
  BoundingRectProcedure proc;
  const auto messages = server.ExecuteRound(world.UnmergedPlan(), proc);
  ASSERT_EQ(messages.size(), world.queries.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    // Plan order is query order for singleton partitions.
    const QueryId q = world.UnmergedPlan().channel_partitions[0][i][0];
    EXPECT_EQ(messages[i].payload, server.DirectAnswer(q));
  }
}

TEST(ServerTest, MergedGroupProducesSupersetPayload) {
  World world(3);
  Server server(&world.table, world.index.get(), &world.queries,
                &world.clients);
  BoundingRectProcedure proc;
  DisseminationPlan plan;
  plan.allocation.push_back(world.clients.AllClients());
  plan.channel_partitions.push_back(
      {QueryGroup{0, 1}, QueryGroup{2, 3, 4}, QueryGroup{5}});
  const auto messages = server.ExecuteRound(plan, proc);
  ASSERT_EQ(messages.size(), 3u);
  // Every direct answer row of a member query appears in its message.
  for (QueryId q : {0u, 1u}) {
    for (RowId row : server.DirectAnswer(q)) {
      EXPECT_TRUE(std::binary_search(messages[0].payload.begin(),
                                     messages[0].payload.end(), row));
    }
  }
}

TEST(ServerTest, RecipientsOnlyListSubscribedChannelClients) {
  World world(4);
  Server server(&world.table, world.index.get(), &world.queries,
                &world.clients);
  BoundingRectProcedure proc;
  const auto messages = server.ExecuteRound(world.UnmergedPlan(), proc);
  for (const Message& msg : messages) {
    for (const HeaderEntry& entry : msg.extractors) {
      const auto& subs = world.clients.QueriesOf(entry.client);
      EXPECT_TRUE(std::binary_search(subs.begin(), subs.end(),
                                     entry.spec.query));
    }
  }
}

// Message headers list every channel client subscribed to a member
// query, in channel-client order, then member order: the order a scan of
// the channel's clients gives. Queries get several subscribers, clients
// sit on channels in shuffled (non-ascending) order, and groups are
// random, over several seeds.
TEST(ServerTest, HeadersFollowChannelOrderThenMemberOrder) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    World world(seed, /*num_objects=*/300, /*num_queries=*/30,
                /*num_clients=*/7);
    Rng rng(seed * 11);
    for (int k = 0; k < 40; ++k) {
      world.clients.Subscribe(
          static_cast<ClientId>(rng.UniformInt(0, 6)),
          static_cast<QueryId>(rng.UniformInt(0, 29)));
    }
    Allocation allocation(3);
    for (ClientId c = 0; c < 7; ++c) {
      allocation[static_cast<size_t>(rng.UniformInt(0, 2))].push_back(c);
    }
    // Each list ascends as built; reversed, with its head swapped, it is
    // neither ascending nor descending.
    for (auto& channel : allocation) {
      std::reverse(channel.begin(), channel.end());
      if (channel.size() > 2) std::swap(channel[0], channel[1]);
    }
    BoundingRectProcedure proc;
    std::vector<std::vector<MergedQuery>> merged(allocation.size());
    for (QueryId q = 0; q < 30;) {
      QueryGroup group;
      const int size = static_cast<int>(rng.UniformInt(1, 4));
      for (int k = 0; k < size && q < 30; ++k) group.push_back(q++);
      for (MergedQuery& m : proc.Merge(world.queries, group)) {
        merged[static_cast<size_t>(rng.UniformInt(0, 2))].push_back(
            std::move(m));
      }
    }
    Server server(&world.table, world.index.get(), &world.queries,
                  &world.clients);
    const std::vector<Message> messages =
        server.ExecuteRoundMerged(allocation, merged);
    size_t m = 0;
    for (size_t ch = 0; ch < allocation.size(); ++ch) {
      for (const MergedQuery& mq : merged[ch]) {
        ASSERT_LT(m, messages.size());
        const Message& msg = messages[m++];
        std::vector<ClientId> recipients;
        std::vector<std::pair<ClientId, QueryId>> extractors;
        for (ClientId client : allocation[ch]) {
          bool is_recipient = false;
          for (QueryId member : mq.members) {
            const auto& subs = world.clients.QueriesOf(client);
            if (std::binary_search(subs.begin(), subs.end(), member)) {
              extractors.emplace_back(client, member);
              is_recipient = true;
            }
          }
          if (is_recipient) recipients.push_back(client);
        }
        EXPECT_EQ(msg.recipients, recipients) << "seed " << seed;
        ASSERT_EQ(msg.extractors.size(), extractors.size()) << "seed " << seed;
        for (size_t k = 0; k < extractors.size(); ++k) {
          EXPECT_EQ(msg.extractors[k].client, extractors[k].first);
          EXPECT_EQ(msg.extractors[k].spec.query, extractors[k].second);
          EXPECT_EQ(msg.extractors[k].spec.rect,
                    world.queries.rect(extractors[k].second));
        }
      }
    }
    EXPECT_EQ(m, messages.size());
  }
}

/// Property: the simulator's count-based answer check agrees with
/// comparing against DirectAnswer, on the true answer and on each way an
/// answer can be wrong. Several perturbations keep the size, so each of
/// the check's three conditions is exercised on its own.
class AnswerCheckProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnswerCheckProperty, AgreesWithDirectAnswer) {
  World world(GetParam(), /*num_objects=*/800, /*num_queries=*/40,
              /*num_clients=*/4);
  Server server(&world.table, world.index.get(), &world.queries,
                &world.clients);
  Rng rng(GetParam() + 1);
  const auto num_rows = static_cast<RowId>(world.table.num_rows());
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  size_t nonempty = 0;
  size_t partial = 0;
  for (QueryId q = 0; q < world.queries.size(); ++q) {
    const std::vector<RowId> truth = server.DirectAnswer(q);
    const Rect& rect = world.queries.rect(q);
    std::vector<std::vector<RowId>> answers = {truth, {}};
    if (!truth.empty()) {
      ++nonempty;
      const size_t at = pick(truth.size());
      std::vector<RowId> dropped = truth;
      dropped.erase(dropped.begin() + static_cast<ptrdiff_t>(at));
      std::vector<RowId> duplicated = truth;
      duplicated.insert(duplicated.begin() + static_cast<ptrdiff_t>(at),
                        truth[at]);
      std::vector<RowId> out_of_range = truth;
      out_of_range.back() = num_rows;
      answers.insert(answers.end(), {dropped, duplicated, out_of_range});
      answers.push_back(truth);
      answers.back().push_back(num_rows + 7);
    }
    if (truth.size() >= 2) {
      const size_t at = pick(truth.size() - 1);
      std::vector<RowId> swapped = truth;
      std::swap(swapped[at], swapped[at + 1]);
      // Same size, all rows inside, but one row twice: only the order
      // condition can reject it.
      std::vector<RowId> repeated = truth;
      repeated[at + 1] = repeated[at];
      answers.insert(answers.end(), {swapped, repeated});
    }
    // A row from outside the rectangle, added, or replacing a true row
    // (same size, still ascending: only the membership condition can
    // reject that one).
    RowId outside = 0;
    while (outside < num_rows &&
           rect.Contains(world.table.PositionOf(outside))) {
      ++outside;
    }
    if (outside < num_rows) {
      ++partial;
      std::vector<RowId> added = truth;
      added.insert(std::lower_bound(added.begin(), added.end(), outside),
                   outside);
      answers.push_back(added);
      if (!truth.empty()) {
        std::vector<RowId> replaced = truth;
        replaced.erase(replaced.begin() +
                       static_cast<ptrdiff_t>(pick(replaced.size())));
        replaced.insert(
            std::lower_bound(replaced.begin(), replaced.end(), outside),
            outside);
        answers.push_back(replaced);
      }
    }
    for (size_t k = 0; k < answers.size(); ++k) {
      EXPECT_EQ(server.MatchesDirectAnswer(q, answers[k]),
                answers[k] == truth)
          << "query " << q << " answer variant " << k;
    }
  }
  EXPECT_GT(nonempty, 0u);
  EXPECT_GT(partial, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnswerCheckProperty,
                         ::testing::Values(21, 42, 63));

// ------------------------------------------------------------- SimClient

TEST(SimClientTest, IgnoresMessagesNotAddressedToIt) {
  Table table(Schema::Geographic(0));
  ASSERT_TRUE(table.Insert({1.0, 1.0}).ok());
  QuerySet queries({Rect(0, 0, 5, 5)});
  SimClient client(7, 0, &queries, {0});
  client.StartRound();
  Message msg;
  msg.channel = 0;
  msg.recipients = {3};  // Someone else.
  msg.payload = {0};
  client.Receive(msg, table);
  EXPECT_EQ(client.stats().headers_checked, 1u);
  EXPECT_EQ(client.stats().messages_processed, 0u);
  EXPECT_TRUE(client.AnswerFor(0).empty());
}

TEST(SimClientTest, ExtractsOwnAnswer) {
  Table table(Schema::Geographic(0));
  ASSERT_TRUE(table.Insert({1.0, 1.0}).ok());
  ASSERT_TRUE(table.Insert({9.0, 9.0}).ok());
  QuerySet queries({Rect(0, 0, 5, 5)});
  SimClient client(0, 0, &queries, {0});
  client.StartRound();
  Message msg;
  msg.channel = 0;
  msg.recipients = {0};
  msg.extractors = {{0, {0, queries.rect(0)}}};
  msg.payload = {0, 1};
  client.Receive(msg, table);
  EXPECT_EQ(client.AnswerFor(0), (std::vector<RowId>{0}));
  EXPECT_EQ(client.stats().rows_examined, 2u);
  EXPECT_EQ(client.stats().rows_irrelevant, 1u);
}

TEST(SimClientTest, CacheCountsRepeatedRows) {
  Table table(Schema::Geographic(0));
  ASSERT_TRUE(table.Insert({1.0, 1.0}).ok());
  QuerySet queries({Rect(0, 0, 5, 5)});
  SimClient client(0, 0, &queries, {0}, /*enable_cache=*/true);
  client.StartRound();
  Message msg;
  msg.channel = 0;
  msg.recipients = {0};
  msg.extractors = {{0, {0, queries.rect(0)}}};
  msg.payload = {0};
  client.Receive(msg, table);
  EXPECT_EQ(client.stats().cache_hits, 0u);
  client.StartRound();  // New round; cache persists.
  client.Receive(msg, table);
  EXPECT_EQ(client.stats().cache_hits, 1u);
}

// ------------------------------------------------------------- Simulator

TEST(SimulatorTest, UnmergedRoundDeliversExactAnswers) {
  World world(5);
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients);
  BoundingRectProcedure proc;
  const RoundStats stats = sim.RunRound(world.UnmergedPlan(), proc);
  EXPECT_TRUE(stats.all_answers_correct);
  EXPECT_EQ(stats.num_messages, world.queries.size());
  EXPECT_EQ(stats.channels_used, 1u);
  EXPECT_EQ(stats.irrelevant_rows, 0u);  // No merging => nothing foreign.
}

TEST(SimulatorTest, WireRoundTripOkDefaultsTrueAndHoldsWithoutVerify) {
  // The documented contract: wire_round_trip_ok is trivially true unless
  // verify_wire detected a failure — including on a default-constructed
  // stats object that never ran a round.
  EXPECT_TRUE(RoundStats{}.wire_round_trip_ok);
  World world(5);
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients);
  BoundingRectProcedure proc;
  const RoundStats stats = sim.RunRound(world.UnmergedPlan(), proc);
  EXPECT_TRUE(stats.wire_round_trip_ok);
  EXPECT_EQ(stats.wire_bytes, 0u);  // Nothing serialized with verify off.
}

TEST(SimulatorTest, MergedRoundStillCorrectButCarriesIrrelevantRows) {
  World world(6);
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients);
  BoundingRectProcedure proc;
  DisseminationPlan plan;
  plan.allocation.push_back(world.clients.AllClients());
  plan.channel_partitions.push_back(
      {QueryGroup{0, 1, 2}, QueryGroup{3, 4, 5}});
  const RoundStats stats = sim.RunRound(plan, proc);
  EXPECT_TRUE(stats.all_answers_correct);
  EXPECT_EQ(stats.num_messages, 2u);
  EXPECT_GT(stats.rows_examined, 0u);
}

TEST(SimulatorTest, FewerMessagesAfterMergingThanUnmerged) {
  World world(7);
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients);
  BoundingRectProcedure proc;
  const RoundStats unmerged = sim.RunRound(world.UnmergedPlan(), proc);
  DisseminationPlan merged;
  merged.allocation.push_back(world.clients.AllClients());
  merged.channel_partitions.push_back(OneGroupPartition(6));
  const RoundStats stats = sim.RunRound(merged, proc);
  EXPECT_LT(stats.num_messages, unmerged.num_messages);
  EXPECT_TRUE(stats.all_answers_correct);
}

// The orderings the simulator's per-channel delivery relies on, on a
// 3-channel plan whose middle channel carries no groups (its one client
// subscribes to nothing): the server emits a round's messages in
// non-decreasing channel order, each with its offset within its channel
// as seq and its channel's message count as total_in_round, and the
// simulator's clients are grouped by channel in allocation order.
TEST(SimulatorTest, RoundMessagesAndClientsAreGroupedByChannel) {
  World world(12, /*num_objects=*/500, /*num_queries=*/9, /*num_clients=*/3);
  const ClientId idle = world.clients.AddClient();
  DisseminationPlan plan;
  plan.allocation = {{2, 0}, {idle}, {1}};
  for (const std::vector<ClientId>& channel_clients : plan.allocation) {
    std::vector<QueryId> served;
    for (ClientId c : channel_clients) {
      const std::vector<QueryId>& subs = world.clients.QueriesOf(c);
      served.insert(served.end(), subs.begin(), subs.end());
    }
    std::sort(served.begin(), served.end());
    served.erase(std::unique(served.begin(), served.end()), served.end());
    // The first two served queries share a group, the rest are singletons.
    Partition partition;
    for (size_t k = 0; k < served.size(); ++k) {
      if (k == 1) {
        partition.back().push_back(served[k]);
      } else {
        partition.push_back(QueryGroup{served[k]});
      }
    }
    plan.channel_partitions.push_back(partition);
  }
  ASSERT_GE(plan.channel_partitions[0].size(), 2u);
  ASSERT_TRUE(plan.channel_partitions[1].empty());
  ASSERT_GE(plan.channel_partitions[2].size(), 2u);

  BoundingRectProcedure proc;
  Server server(&world.table, world.index.get(), &world.queries,
                &world.clients);
  const std::vector<Message> messages = server.ExecuteRound(plan, proc);
  std::vector<uint32_t> per_channel(plan.allocation.size(), 0);
  for (size_t m = 0; m < messages.size(); ++m) {
    const Message& msg = messages[m];
    ASSERT_LT(msg.channel, plan.allocation.size());
    if (m > 0) {
      EXPECT_LE(messages[m - 1].channel, msg.channel) << m;
    }
    EXPECT_EQ(msg.seq, per_channel[msg.channel]++) << m;
  }
  EXPECT_EQ(per_channel,
            (std::vector<uint32_t>{
                static_cast<uint32_t>(plan.channel_partitions[0].size()), 0,
                static_cast<uint32_t>(plan.channel_partitions[2].size())}));
  for (const Message& msg : messages) {
    EXPECT_EQ(msg.total_in_round, per_channel[msg.channel]);
  }

  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients);
  const RoundStats stats = sim.RunRound(plan, proc);
  EXPECT_TRUE(stats.all_answers_correct);
  EXPECT_EQ(stats.num_messages, messages.size());
  EXPECT_EQ(stats.channels_used, 2u);
  std::vector<std::pair<ClientId, size_t>> clients;
  for (const SimClient& client : sim.sim_clients()) {
    clients.emplace_back(client.id(), client.channel());
  }
  EXPECT_EQ(clients, (std::vector<std::pair<ClientId, size_t>>{
                         {2, 0}, {0, 0}, {idle, 1}, {1, 2}}));
}

TEST(ServerTest, ServerTagsMarkMembershipBits) {
  World world(9);
  Server server(&world.table, world.index.get(), &world.queries,
                &world.clients);
  BoundingRectProcedure proc;
  DisseminationPlan plan;
  plan.allocation.push_back(world.clients.AllClients());
  plan.channel_partitions.push_back({QueryGroup{0, 1, 2}, QueryGroup{3, 4, 5}});
  const auto messages =
      server.ExecuteRound(plan, proc, ExtractionMode::kServerTags);
  for (const Message& msg : messages) {
    ASSERT_TRUE(msg.HasTags());
    ASSERT_EQ(msg.payload_tags.size(), msg.payload.size());
    for (size_t i = 0; i < msg.payload.size(); ++i) {
      for (size_t k = 0; k < msg.members.size(); ++k) {
        const bool tagged = (msg.payload_tags[i] & (1u << k)) != 0;
        const bool inside = world.queries.rect(msg.members[k])
                                .Contains(world.table.PositionOf(
                                    msg.payload[i]));
        EXPECT_EQ(tagged, inside);
      }
    }
  }
}

TEST(SimulatorTest, TagExtractionMatchesSelfExtraction) {
  World world(10, 800, 8, 3);
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients);
  BoundingRectProcedure proc;
  DisseminationPlan plan;
  plan.allocation.push_back(world.clients.AllClients());
  plan.channel_partitions.push_back(
      {QueryGroup{0, 1, 2, 3}, QueryGroup{4, 5, 6, 7}});
  const RoundStats self_stats =
      sim.RunRound(plan, proc, ExtractionMode::kSelfExtract);
  const RoundStats tag_stats =
      sim.RunRound(plan, proc, ExtractionMode::kServerTags);
  EXPECT_TRUE(self_stats.all_answers_correct);
  EXPECT_TRUE(tag_stats.all_answers_correct);
  EXPECT_EQ(self_stats.payload_rows, tag_stats.payload_rows);
  // Tags cost 4 bytes per payload row on the wire.
  EXPECT_EQ(tag_stats.payload_bytes,
            self_stats.payload_bytes + 4 * tag_stats.payload_rows);
}

TEST(WireMessageTaggedTest, TaggedFrameRoundTrips) {
  World world(11);
  Server server(&world.table, world.index.get(), &world.queries,
                &world.clients);
  BoundingRectProcedure proc;
  DisseminationPlan plan;
  plan.allocation.push_back(world.clients.AllClients());
  plan.channel_partitions.push_back({QueryGroup{0, 1, 2}});
  const auto messages =
      server.ExecuteRound(plan, proc, ExtractionMode::kServerTags);
  ASSERT_FALSE(messages.empty());
  for (const Message& msg : messages) {
    auto frame = EncodeMessage(msg, world.table);
    ASSERT_TRUE(frame.ok());
    auto decoded = DecodeMessage(frame.value(), world.table.schema());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->members, msg.members);
    EXPECT_EQ(decoded->tags, msg.payload_tags);
  }
}

TEST(SimulatorTest, WireVerificationRoundTripsEveryMessage) {
  World world(8);
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients, /*enable_client_cache=*/false,
                         /*verify_wire=*/true);
  BoundingRectProcedure proc;
  const RoundStats stats = sim.RunRound(world.UnmergedPlan(), proc);
  EXPECT_TRUE(stats.all_answers_correct);
  EXPECT_TRUE(stats.wire_round_trip_ok);
  EXPECT_GT(stats.wire_bytes, stats.payload_bytes / 2);
}

TEST(SimulatorTest, WireBytesZeroWhenVerificationOff) {
  World world(8);
  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients);
  BoundingRectProcedure proc;
  const RoundStats stats = sim.RunRound(world.UnmergedPlan(), proc);
  EXPECT_TRUE(stats.wire_round_trip_ok);
  EXPECT_EQ(stats.wire_bytes, 0u);
}

/// Property: every (procedure, plan shape, seed) combination delivers
/// exactly correct answers to every client — the library's core
/// correctness contract end to end.
class EndToEndCorrectness
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(EndToEndCorrectness, AllClientsRecoverExactAnswers) {
  const int proc_kind = std::get<0>(GetParam());
  World world(std::get<1>(GetParam()), 800, 10, 4);

  BoundingRectProcedure rect_proc;
  BoundingPolygonProcedure poly_proc;
  ExactCoverProcedure cover_proc;
  const MergeProcedure* proc =
      proc_kind == 0 ? static_cast<const MergeProcedure*>(&rect_proc)
      : proc_kind == 1 ? static_cast<const MergeProcedure*>(&poly_proc)
                       : static_cast<const MergeProcedure*>(&cover_proc);

  // Two channels, split clients, pair-merged per channel.
  UniformDensityEstimator estimator(0.05);
  MergeContext ctx(&world.queries, &estimator, proc);
  const CostModel model{2.0, 1.0, 1.0, 0.0};
  ChannelCostEvaluator evaluator(&ctx, model, &world.clients);
  HillClimbAllocator allocator(StartPolicy::kBestOfBoth, 5);
  auto allocation = allocator.Allocate(evaluator, 2);
  ASSERT_TRUE(allocation.ok());

  DisseminationPlan plan;
  plan.allocation = allocation->allocation;
  for (const auto& channel_clients : plan.allocation) {
    plan.channel_partitions.push_back(
        evaluator.Plan(channel_clients).partition);
  }

  MulticastSimulator sim(&world.table, world.index.get(), &world.queries,
                         &world.clients);
  const RoundStats stats = sim.RunRound(plan, *proc);
  EXPECT_TRUE(stats.all_answers_correct) << proc->name();
  if (proc_kind == 2) {
    // Exact cover never ships a row no recipient needs... per message;
    // a row may still be irrelevant to one of several recipients of a
    // piece only if that piece is outside the recipient's query, which
    // exact cover forbids.
    EXPECT_EQ(stats.irrelevant_rows, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProceduresAndSeeds, EndToEndCorrectness,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(11, 22, 33)));

}  // namespace
}  // namespace qsp
