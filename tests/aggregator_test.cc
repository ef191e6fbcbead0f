// Tests for the aggregator: join -> decrypt -> window -> estimate, plus the
// historical batch path with second-round sampling.

#include <gtest/gtest.h>

#include "aggregator/aggregator.h"
#include <cmath>
#include <map>

#include "aggregator/historical.h"
#include "broker/broker.h"
#include "client/client.h"
#include "proxy/proxy.h"
#include "ship_share.h"
#include "transport/inproc_bus.h"

namespace privapprox::aggregator {
namespace {

core::Query MakeQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(10000)
      .WithSlideMs(10000)
      .Build();
}

core::ExecutionParams NoNoiseParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {1.0, 0.5};
  return params;
}

struct Harness {
  explicit Harness(size_t population, core::ExecutionParams params,
                   bool inverted = false, size_t num_shards = 1)
      : query(MakeQuery()),
        proxy0(proxy::ProxyConfig{0, 2}, bus),
        proxy1(proxy::ProxyConfig{1, 2}, bus) {
    proxy0.EnsureLane(query.query_id);
    proxy1.EnsureLane(query.query_id);
    AggregatorConfig config;
    config.num_proxies = 2;
    config.population = population;
    config.answers_inverted = inverted;
    config.num_shards = num_shards;
    aggregator = std::make_unique<Aggregator>(
        config, bus,
        [this](const WindowedResult& r) { results.push_back(r); });
    // Default source topics: each proxy's lane outbound for the query.
    aggregator->RegisterQuery(query, params);
  }

  // Ships one client answer (already-built shares) through both proxies.
  void Ship(const std::vector<crypto::MessageShare>& shares, int64_t ts) {
    proxy::Ship(proxy0, query.query_id, shares[0], ts);
    proxy::Ship(proxy1, query.query_id, shares[1], ts);
  }

  void Pump() {
    proxy0.ForwardLanes();
    proxy1.ForwardLanes();
    aggregator->Drain();
  }

  broker::Broker broker;
  transport::InProcessBus bus{broker};
  core::Query query;
  proxy::Proxy proxy0;
  proxy::Proxy proxy1;
  std::unique_ptr<Aggregator> aggregator;
  std::vector<WindowedResult> results;
};

client::Client MakeClient(uint64_t id, double speed) {
  client::Client c(client::ClientConfig{id, 2, 99});
  c.database().CreateTable("vehicle", {"speed"})
      .Insert(500, {localdb::Value(speed)});
  return c;
}

TEST(AggregatorTest, EndToEndExactWhenNoNoise) {
  const size_t population = 50;
  Harness harness(population, NoNoiseParams());
  // 50 clients: 30 at 15 mph (bucket 1), 20 at 42 mph (bucket 4).
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, i < 30 ? 15.0 : 42.0);
    c.Subscribe(harness.query, NoNoiseParams());
    const auto answer = c.AnswerQuery(5000);
    ASSERT_TRUE(answer.has_value());
    harness.Ship(answer->shares, answer->timestamp_ms);
  }
  harness.Pump();
  harness.aggregator->AdvanceWatermark(10000);
  ASSERT_EQ(harness.results.size(), 1u);
  const core::QueryResult& result = harness.results[0].result;
  EXPECT_EQ(result.participants, population);
  EXPECT_NEAR(result.buckets[1].estimate.value, 30.0, 1e-9);
  EXPECT_NEAR(result.buckets[4].estimate.value, 20.0, 1e-9);
  EXPECT_NEAR(result.buckets[0].estimate.value, 0.0, 1e-9);
  EXPECT_EQ(harness.aggregator->join_stats().joined, population);
}

TEST(AggregatorTest, WindowsFireOnlyPastWatermark) {
  Harness harness(10, NoNoiseParams());
  client::Client c = MakeClient(0, 15.0);
  c.Subscribe(harness.query, NoNoiseParams());
  const auto answer = c.AnswerQuery(5000);
  harness.Ship(answer->shares, answer->timestamp_ms);
  harness.Pump();
  harness.aggregator->AdvanceWatermark(9999);
  EXPECT_TRUE(harness.results.empty());
  harness.aggregator->AdvanceWatermark(10000);
  EXPECT_EQ(harness.results.size(), 1u);
}

TEST(AggregatorTest, FlushFiresPendingWindows) {
  Harness harness(10, NoNoiseParams());
  client::Client c = MakeClient(0, 15.0);
  c.Subscribe(harness.query, NoNoiseParams());
  const auto answer = c.AnswerQuery(5000);
  harness.Ship(answer->shares, answer->timestamp_ms);
  harness.Pump();
  harness.aggregator->Flush();
  EXPECT_EQ(harness.results.size(), 1u);
}

TEST(AggregatorTest, MalformedSharesAreCountedAndDropped) {
  Harness harness(10, NoNoiseParams());
  // Feed garbage directly into the proxy path: two shares whose combined
  // payload is too short for an AnswerMessage.
  harness.Ship({crypto::MessageShare{77, {1, 2}},
                crypto::MessageShare{77, {3, 4}}},
               100);
  harness.Pump();
  EXPECT_EQ(harness.aggregator->malformed_dropped(), 1u);
  harness.aggregator->Flush();
  EXPECT_TRUE(harness.results.empty());
}

TEST(AggregatorTest, WrongQueryIdIsDropped) {
  Harness harness(10, NoNoiseParams());
  // A valid message for a different query id.
  crypto::AnswerMessage message{/*query_id=*/999, BitVector(11)};
  crypto::XorSplitter splitter(2, crypto::ChaCha20Rng::FromSeed(3, 0));
  harness.Ship(splitter.Split(message.Serialize()), 100);
  harness.Pump();
  EXPECT_EQ(harness.aggregator->wrong_query_dropped(), 1u);
}

TEST(AggregatorTest, WrongWidthAnswerIsDropped) {
  Harness harness(10, NoNoiseParams());
  crypto::AnswerMessage message{/*query_id=*/1, BitVector(5)};  // wrong width
  crypto::XorSplitter splitter(2, crypto::ChaCha20Rng::FromSeed(4, 0));
  harness.Ship(splitter.Split(message.Serialize()), 100);
  harness.Pump();
  EXPECT_EQ(harness.aggregator->wrong_query_dropped(), 1u);
}

TEST(AggregatorTest, LostShareNeverJoins) {
  Harness harness(10, NoNoiseParams());
  client::Client c = MakeClient(0, 15.0);
  c.Subscribe(harness.query, NoNoiseParams());
  const auto answer = c.AnswerQuery(5000);
  // Only proxy 0 receives its share; proxy 1's is lost.
  proxy::Ship(harness.proxy0, harness.query.query_id, answer->shares[0],
              5000);
  harness.Pump();
  EXPECT_EQ(harness.aggregator->join_stats().joined, 0u);
  harness.aggregator->AdvanceWatermark(100000);
  // No complete message ever entered a window: nothing fires, and the
  // partial group is eventually evicted by the join timeout.
  EXPECT_TRUE(harness.results.empty());
  EXPECT_EQ(harness.aggregator->join_stats().evicted_partial, 1u);
}

TEST(AggregatorTest, DebiasesRandomizedAnswers) {
  // With RR on and many answers, the de-biased estimate approaches truth.
  const size_t population = 3000;
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {0.5, 0.5};
  Harness harness(population, params);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, i < 1800 ? 15.0 : 42.0);  // 60% bucket 1
    c.Subscribe(harness.query, params);
    const auto answer = c.AnswerQuery(5000);
    harness.Ship(answer->shares, answer->timestamp_ms);
  }
  harness.Pump();
  harness.aggregator->Flush();
  ASSERT_EQ(harness.results.size(), 1u);
  const auto& buckets = harness.results[0].result.buckets;
  EXPECT_NEAR(buckets[1].estimate.value, 1800.0, 150.0);
  EXPECT_NEAR(buckets[4].estimate.value, 1200.0, 150.0);
  // Error bars should cover the truth.
  EXPECT_LE(std::fabs(buckets[1].estimate.value - 1800.0),
            buckets[1].estimate.error * 1.5);
}

TEST(AggregatorTest, InvertedModeRecoversYesCounts) {
  const size_t population = 40;
  Harness harness(population, NoNoiseParams(), /*inverted=*/true);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = [&] {
      client::ClientConfig config;
      config.client_id = i;
      config.num_proxies = 2;
      config.seed = 99;
      config.invert_answers = true;
      client::Client cl(config);
      cl.database().CreateTable("vehicle", {"speed"})
          .Insert(500, {localdb::Value(15.0)});
      return cl;
    }();
    c.Subscribe(harness.query, NoNoiseParams());
    const auto answer = c.AnswerQuery(5000);
    harness.Ship(answer->shares, answer->timestamp_ms);
  }
  harness.Pump();
  harness.aggregator->Flush();
  ASSERT_EQ(harness.results.size(), 1u);
  // All 40 clients are in bucket 1; the inverted pipeline must recover 40.
  EXPECT_NEAR(harness.results[0].result.buckets[1].estimate.value, 40.0,
              1e-6);
  // And 0 for an empty bucket.
  EXPECT_NEAR(harness.results[0].result.buckets[0].estimate.value, 0.0, 1e-6);
}

TEST(AggregatorTest, RejectsBadConfig) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  AggregatorConfig config;
  config.num_proxies = 1;
  config.population = 10;
  EXPECT_THROW(Aggregator(config, bus, [](const WindowedResult&) {}),
               std::invalid_argument);
  config.num_proxies = 2;
  config.population = 0;
  EXPECT_THROW(Aggregator(config, bus, [](const WindowedResult&) {}),
               std::invalid_argument);
  config.population = 10;
  config.num_shards = 0;
  EXPECT_THROW(Aggregator(config, bus, [](const WindowedResult&) {}),
               std::invalid_argument);
}

TEST(AggregatorTest, RejectsDuplicateQueryRegistration) {
  // Lane state — join groups, windows, watermarks — is keyed by QID, so a
  // second registration under the same QID would silently cross two
  // queries' streams. The coordinator must reject it up front.
  broker::Broker b;
  transport::InProcessBus bus(b);
  proxy::Proxy p0(proxy::ProxyConfig{0, 2}, bus);
  proxy::Proxy p1(proxy::ProxyConfig{1, 2}, bus);
  for (const uint64_t qid : {1, 2}) {
    p0.EnsureLane(qid);
    p1.EnsureLane(qid);
  }
  AggregatorConfig config;
  config.num_proxies = 2;
  config.population = 10;
  Aggregator agg(config, bus, [](const WindowedResult&) {});
  agg.RegisterQuery(MakeQuery(), NoNoiseParams());
  EXPECT_THROW(agg.RegisterQuery(MakeQuery(), NoNoiseParams()),
               std::invalid_argument);
  // A different QID is fine; the first lane is unaffected.
  core::Query other = core::QueryBuilder()
                          .WithId(2)
                          .WithSql("SELECT speed FROM vehicle")
                          .WithAnswerFormat(
                              core::AnswerFormat::UniformNumeric(0, 100, 10,
                                                                 true))
                          .WithFrequencyMs(1000)
                          .WithWindowMs(10000)
                          .WithSlideMs(10000)
                          .Build();
  EXPECT_NO_THROW(agg.RegisterQuery(other, NoNoiseParams()));
}

// ---------------------------------------------------------------- sharding

// Runs `population` clients through a harness with the given shard count
// and returns the fired results. No pool is wired, so the shards feed
// sequentially — this isolates the partition/merge logic itself.
std::vector<WindowedResult> RunSharded(size_t num_shards) {
  const size_t population = 60;
  Harness harness(population, NoNoiseParams(), /*inverted=*/false,
                  num_shards);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, i % 2 == 0 ? 15.0 : 42.0);
    c.Subscribe(harness.query, NoNoiseParams());
    const auto answer = c.AnswerQuery(5000);
    harness.Ship(answer->shares, answer->timestamp_ms);
  }
  harness.Pump();
  harness.aggregator->AdvanceWatermark(10000);
  EXPECT_EQ(harness.aggregator->join_stats().joined, population);
  EXPECT_EQ(harness.aggregator->num_shards(), num_shards);
  return harness.results;
}

TEST(AggregatorTest, ShardedJoinIsBitIdenticalToSingleShard) {
  const std::vector<WindowedResult> oracle = RunSharded(1);
  ASSERT_EQ(oracle.size(), 1u);
  for (size_t shards : {2u, 3u, 4u, 7u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::vector<WindowedResult> sharded = RunSharded(shards);
    ASSERT_EQ(sharded.size(), oracle.size());
    for (size_t w = 0; w < oracle.size(); ++w) {
      EXPECT_EQ(sharded[w].window, oracle[w].window);
      EXPECT_EQ(sharded[w].result.participants, oracle[w].result.participants);
      ASSERT_EQ(sharded[w].result.buckets.size(),
                oracle[w].result.buckets.size());
      for (size_t i = 0; i < oracle[w].result.buckets.size(); ++i) {
        EXPECT_EQ(sharded[w].result.buckets[i].estimate.value,
                  oracle[w].result.buckets[i].estimate.value);
        EXPECT_EQ(sharded[w].result.buckets[i].estimate.error,
                  oracle[w].result.buckets[i].estimate.error);
        EXPECT_EQ(sharded[w].result.buckets[i].randomized_count,
                  oracle[w].result.buckets[i].randomized_count);
      }
    }
  }
}

TEST(AggregatorTest, ShardMetricsAccountForEveryShare) {
  // Per-shard counters partition the totals: routed shares sum to the
  // joiner's input and per-shard joins sum to the joined count.
  const size_t population = 40;
  const size_t num_shards = 4;
  metrics::Registry registry;
  Harness harness(population, NoNoiseParams(), /*inverted=*/false, 1);
  // Rebuild the aggregator with instrumented shards.
  AggregatorConfig config;
  config.num_proxies = 2;
  config.population = population;
  config.num_shards = num_shards;
  for (size_t s = 0; s < num_shards; ++s) {
    const metrics::Labels labels = {{"shard", std::to_string(s)}};
    config.shard_shares_total.push_back(
        &registry.GetCounter("shard_shares", "", labels));
    config.shard_joined_total.push_back(
        &registry.GetCounter("shard_joined", "", labels));
  }
  config.shard_imbalance_milli = &registry.GetGauge("shard_imbalance", "");
  harness.aggregator = std::make_unique<Aggregator>(
      config, harness.bus,
      [&harness](const WindowedResult& r) { harness.results.push_back(r); });
  harness.aggregator->RegisterQuery(harness.query, NoNoiseParams());
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 15.0);
    c.Subscribe(harness.query, NoNoiseParams());
    const auto answer = c.AnswerQuery(5000);
    harness.Ship(answer->shares, answer->timestamp_ms);
  }
  harness.Pump();
  uint64_t routed = 0;
  uint64_t joined = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    routed += config.shard_shares_total[s]->Value();
    joined += config.shard_joined_total[s]->Value();
  }
  EXPECT_EQ(routed, population * 2);  // one share per proxy per client
  EXPECT_EQ(joined, population);
  // Both proxies saw a balanced MID mix: the gauge is near 1000 (per-mille
  // of the mean) — loosely bounded, the point is that it was set at all.
  EXPECT_GE(config.shard_imbalance_milli->Value(), 1000);
  EXPECT_LT(config.shard_imbalance_milli->Value(), 3000);
}

// An InProcessBus that counts Poll calls per topic.
class PollCountingBus final : public transport::MessageBus {
 public:
  explicit PollCountingBus(broker::Broker& broker) : inner_(broker) {}

  void EnsureTopic(const std::string& topic, size_t num_partitions) override {
    inner_.EnsureTopic(topic, num_partitions);
  }
  size_t NumPartitions(const std::string& topic) override {
    return inner_.NumPartitions(topic);
  }
  void Produce(const std::string& topic,
               std::span<const broker::ProduceView> records) override {
    inner_.Produce(topic, records);
  }
  size_t Poll(const std::string& topic, size_t partition, uint64_t offset,
              size_t max_records,
              std::vector<broker::RecordView>& out) override {
    ++polls[topic];
    return inner_.Poll(topic, partition, offset, max_records, out);
  }
  uint64_t EndOffset(const std::string& topic, size_t partition) override {
    return inner_.EndOffset(topic, partition);
  }

  std::map<std::string, size_t> polls;

 private:
  transport::InProcessBus inner_;
};

TEST(AggregatorTest, DrainStopsOnceEverySourceIsCaughtUp) {
  // A drain reads each partition until it reports empty, then stops: it
  // must not follow up with a sweep that can only come back empty (one RPC
  // per partition when the bus is remote).
  const size_t population = 50;
  broker::Broker broker;
  PollCountingBus bus(broker);
  proxy::ProxyConfig proxy_config;
  proxy_config.num_partitions = 2;
  proxy::Proxy proxy0(proxy_config, bus);
  proxy_config.proxy_index = 1;
  proxy::Proxy proxy1(proxy_config, bus);
  const core::Query query = MakeQuery();
  proxy0.EnsureLane(query.query_id);
  proxy1.EnsureLane(query.query_id);
  AggregatorConfig config;
  config.num_proxies = 2;
  config.population = population;
  Aggregator aggregator(config, bus, [](const WindowedResult&) {});
  aggregator.RegisterQuery(query, NoNoiseParams());
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 15.0);
    c.Subscribe(query, NoNoiseParams());
    const auto answer = c.AnswerQuery(5000);
    ASSERT_TRUE(answer.has_value());
    proxy::Ship(proxy0, query.query_id, answer->shares[0],
                answer->timestamp_ms);
    proxy::Ship(proxy1, query.query_id, answer->shares[1],
                answer->timestamp_ms);
  }
  proxy0.ForwardLanes();
  proxy1.ForwardLanes();
  const std::vector<std::string> sources = {
      proxy0.lane_out_topic(query.query_id),
      proxy1.lane_out_topic(query.query_id)};

  bus.polls.clear();
  EXPECT_EQ(aggregator.Drain(), population * 2);
  EXPECT_EQ(aggregator.join_stats().joined, population);
  for (const std::string& topic : sources) {
    SCOPED_TRACE(topic);
    EXPECT_LE(bus.polls[topic], 2 * bus.NumPartitions(topic));
  }

  // Caught up: one empty poll per partition.
  bus.polls.clear();
  EXPECT_EQ(aggregator.Drain(), 0u);
  for (const std::string& topic : sources) {
    SCOPED_TRACE(topic);
    EXPECT_EQ(bus.polls[topic], bus.NumPartitions(topic));
  }
}

TEST(AggregatorTest, DrainKeepsPollingWhileBatchesComeBackFull) {
  // More records per source than one poll batch holds: the drain goes on
  // past the first full batch and consumes everything. MIDs differ per
  // source so nothing joins — only the drain itself is under test.
  constexpr uint64_t kPerSource = 10000;
  broker::Broker broker;
  PollCountingBus bus(broker);
  AggregatorConfig config;
  config.num_proxies = 2;
  config.population = 1;
  Aggregator aggregator(config, bus, [](const WindowedResult&) {});
  // MakeQuery's lane outbound topics at proxies 0 and 1.
  const std::vector<std::string> sources = {"proxy0.q1.out", "proxy1.q1.out"};
  std::vector<std::vector<uint8_t>> payloads;
  for (size_t source = 0; source < sources.size(); ++source) {
    bus.EnsureTopic(sources[source], 4);
    payloads.clear();
    std::vector<broker::ProduceView> records;
    for (uint64_t i = 0; i < kPerSource; ++i) {
      const uint64_t mid = source * kPerSource + i;
      std::vector<uint8_t>& payload = payloads.emplace_back(9, 0);
      for (int b = 0; b < 8; ++b) {
        payload[b] = static_cast<uint8_t>(mid >> (8 * b));
      }
      records.push_back(broker::ProduceView{mid, payload, 5000});
    }
    bus.Produce(sources[source], records);
  }
  aggregator.RegisterQuery(MakeQuery(), NoNoiseParams());
  EXPECT_EQ(aggregator.Drain(), kPerSource * sources.size());
  EXPECT_EQ(aggregator.Drain(), 0u);
}

// ------------------------------------------------------------- historical

TEST(HistoricalAnalyticsTest, FullBudgetMatchesStreamCounts) {
  std::vector<StoredAnswer> store;
  BitVector yes(2), no(2);
  yes.Set(0, true);
  no.Set(1, true);
  for (int i = 0; i < 60; ++i) {
    store.push_back({i, yes});
  }
  for (int i = 60; i < 100; ++i) {
    store.push_back({i, no});
  }
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  HistoricalAnalytics analytics(params, /*population=*/100);
  Xoshiro256 rng(1);
  const core::QueryResult result =
      analytics.Run(store, 0, 100, BatchQueryBudget{1.0}, rng, 2);
  EXPECT_NEAR(result.buckets[0].estimate.value, 60.0, 1e-9);
  EXPECT_NEAR(result.buckets[1].estimate.value, 40.0, 1e-9);
}

TEST(HistoricalAnalyticsTest, SecondRoundSamplingStillUnbiased) {
  std::vector<StoredAnswer> store;
  BitVector yes(1);
  yes.Set(0, true);
  for (int i = 0; i < 6000; ++i) {
    store.push_back({i, yes});
  }
  for (int i = 6000; i < 10000; ++i) {
    store.push_back({i, BitVector(1)});
  }
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  HistoricalAnalytics analytics(params, /*population=*/10000);
  Xoshiro256 rng(2);
  const core::QueryResult result =
      analytics.Run(store, 0, 10000, BatchQueryBudget{0.3}, rng, 1);
  // Estimate scaled back to population despite processing ~30%.
  EXPECT_NEAR(result.buckets[0].estimate.value, 6000.0, 400.0);
  EXPECT_LT(result.participants, 3600u);
  EXPECT_GT(result.buckets[0].estimate.error, 0.0);
}

TEST(HistoricalAnalyticsTest, TimeRangeRestrictsData) {
  std::vector<StoredAnswer> store;
  BitVector yes(1);
  yes.Set(0, true);
  for (int i = 0; i < 100; ++i) {
    store.push_back({i, yes});
  }
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  HistoricalAnalytics analytics(params, 100);
  Xoshiro256 rng(3);
  const core::QueryResult result =
      analytics.Run(store, 0, 50, BatchQueryBudget{1.0}, rng, 1);
  EXPECT_EQ(result.participants, 50u);
}

TEST(HistoricalAnalyticsTest, RejectsBadBudget) {
  std::vector<StoredAnswer> store;
  core::ExecutionParams params;
  HistoricalAnalytics analytics(params, 10);
  Xoshiro256 rng(4);
  EXPECT_THROW(analytics.Run(store, 0, 10, BatchQueryBudget{0.0}, rng, 1),
               std::invalid_argument);
  EXPECT_THROW(analytics.Run(store, 0, 10, BatchQueryBudget{1.5}, rng, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace privapprox::aggregator
