// Failure-injection tests: lost shares, duplicated records, out-of-order
// delivery, proxy outage, and crash/recovery of the durable historical
// store (restart, torn tail, a directory reused by another query, a
// malformed record, a second opener) — the system must degrade gracefully
// (fewer answers, wider error bars) and never produce corrupt results.

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <string>

#include "aggregator/aggregator.h"
#include "client/client.h"
#include "engine/watermark.h"
#include "proxy/proxy.h"
#include "ship_share.h"
#include "system/system.h"
#include "transport/inproc_bus.h"

#include <unistd.h>

namespace privapprox {
namespace {

core::Query MakeQuery(uint64_t query_id = 1) {
  return core::QueryBuilder()
      .WithId(query_id)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(10000)
      .WithSlideMs(10000)
      .Build();
}

core::ExecutionParams ExactParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {1.0, 0.5};
  return params;
}

client::Client MakeClient(uint64_t id, double speed) {
  client::Client c(client::ClientConfig{id, 2, 123});
  c.database().CreateTable("vehicle", {"speed"})
      .Insert(500, {localdb::Value(speed)});
  return c;
}

struct Harness {
  explicit Harness(size_t population)
      : query(MakeQuery()),
        proxy0(proxy::ProxyConfig{0, 2}, bus),
        proxy1(proxy::ProxyConfig{1, 2}, bus) {
    proxy0.EnsureLane(query.query_id);
    proxy1.EnsureLane(query.query_id);
    aggregator::AggregatorConfig config;
    config.num_proxies = 2;
    config.population = population;
    agg = std::make_unique<aggregator::Aggregator>(
        config, bus, [this](const aggregator::WindowedResult& r) {
          results.push_back(r);
        });
    // Default source topics: each proxy's lane outbound for the query.
    agg->RegisterQuery(query, ExactParams());
  }

  // Enqueues one share on the query's lane at `target`.
  void Ship(proxy::Proxy& target, const crypto::MessageShare& share,
            int64_t ts) {
    proxy::Ship(target, query.query_id, share, ts);
  }

  void Forward() {
    proxy0.ForwardLanes();
    proxy1.ForwardLanes();
  }

  broker::Broker broker;
  transport::InProcessBus bus{broker};
  core::Query query;
  proxy::Proxy proxy0;
  proxy::Proxy proxy1;
  std::unique_ptr<aggregator::Aggregator> agg;
  std::vector<aggregator::WindowedResult> results;
};

// ----------------------------------------------------------- share loss

TEST(FailureTest, RandomShareLossDegradesGracefully) {
  // 20% of shares to proxy 1 are lost in transit. Those messages never
  // join; the rest produce an exact result over the survivors.
  const size_t population = 500;
  Harness harness(population);
  Xoshiro256 rng(1);
  size_t delivered = 0;
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto answer = c.AnswerQuery(5000);
    harness.Ship(harness.proxy0, answer->shares[0], 5000);
    if (rng.NextBernoulli(0.8)) {
      harness.Ship(harness.proxy1, answer->shares[1], 5000);
      ++delivered;
    }
  }
  harness.Forward();
  harness.agg->Drain();
  harness.agg->Flush();
  ASSERT_EQ(harness.results.size(), 1u);
  const auto& result = harness.results[0].result;
  EXPECT_EQ(result.participants, delivered);
  EXPECT_EQ(harness.agg->join_stats().joined, delivered);
  // Survivors are all in bucket 2; the estimate scales them back to the
  // population (the estimator treats missing answers as unsampled).
  EXPECT_NEAR(result.buckets[2].estimate.value,
              static_cast<double>(population), 1.0);
  // The lost messages linger as partial join groups until eviction.
  EXPECT_EQ(harness.agg->pending_join_groups(), population - delivered);
}

TEST(FailureTest, TotalProxyOutageYieldsNoResultsNotGarbage) {
  const size_t population = 50;
  Harness harness(population);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto answer = c.AnswerQuery(5000);
    harness.Ship(harness.proxy0, answer->shares[0], 5000);
    // Proxy 1 is down: nothing arrives there.
  }
  harness.Forward();
  harness.agg->Drain();
  harness.agg->AdvanceWatermark(1000000);  // evicts all partial groups
  EXPECT_TRUE(harness.results.empty());
  EXPECT_EQ(harness.agg->join_stats().joined, 0u);
  EXPECT_EQ(harness.agg->join_stats().evicted_partial, population);
}

TEST(FailureTest, DuplicatedRecordsInTransitAreDropped) {
  // A flaky broker redelivers every record twice; the MID join must not
  // double-count answers.
  const size_t population = 100;
  Harness harness(population);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto answer = c.AnswerQuery(5000);
    for (int copy = 0; copy < 2; ++copy) {
      harness.Ship(harness.proxy0, answer->shares[0], 5000);
      harness.Ship(harness.proxy1, answer->shares[1], 5000);
    }
  }
  harness.Forward();
  harness.agg->Drain();
  harness.agg->Flush();
  ASSERT_EQ(harness.results.size(), 1u);
  EXPECT_EQ(harness.results[0].result.participants, population);
  EXPECT_NEAR(harness.results[0].result.buckets[2].estimate.value,
              static_cast<double>(population), 1e-9);
  EXPECT_GT(harness.agg->join_stats().duplicates_dropped, 0u);
}

TEST(FailureTest, MalformedRecordsSurfaceInEpochStats) {
  // A corrupted share arrives at proxy 0 out-of-band: too short to decode.
  // The proxy forwards it blindly; the aggregator must drop it, count it,
  // and keep every well-formed answer.
  system::SystemConfig config;
  config.num_clients = 20;
  config.num_proxies = 2;
  config.seed = 7;
  config.pipeline.depth = 2;
  config.pipeline.shard_size = 7;  // 20 clients -> 3 shards
  system::PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed"});
    db.GetTable("vehicle").Insert(500, {localdb::Value(25.0)});
  }
  sys.SubmitQuery(MakeQuery(), ExactParams());
  // Shares travel on per-query lane topics; the garbage lands on query
  // 1's lane at proxy 0 so the forward path carries it.
  sys.broker().Produce("proxy0.q1.in", /*key=*/12345,
                       std::vector<uint8_t>{0xBA, 0xD0, 0x01}, 900);
  const system::EpochStats stats = sys.RunEpoch(1000);
  EXPECT_EQ(stats.malformed_dropped, 1u);
  EXPECT_EQ(stats.participants, config.num_clients);
  // Consumed = every well-formed share plus the injected garbage record.
  EXPECT_EQ(stats.shares_consumed,
            config.num_clients * config.num_proxies + 1);
  // EpochStats is defined as a per-epoch delta of the registry counters —
  // after one epoch, delta and cumulative value must agree exactly.
  metrics::Registry& reg = sys.metrics_registry();
  EXPECT_EQ(stats.malformed_dropped,
            reg.GetCounter("privapprox_malformed_dropped_total", "").Value());
  EXPECT_EQ(stats.shares_consumed,
            reg.GetCounter("privapprox_shares_consumed_total", "").Value());
  EXPECT_EQ(stats.participants,
            reg.GetCounter("privapprox_participants_total", "").Value());
  // A clean follow-up epoch reports zero drops: the stat is per-epoch.
  for (size_t i = 0; i < config.num_clients; ++i) {
    sys.client(i).database().GetTable("vehicle").Insert(
        1500, {localdb::Value(25.0)});
  }
  EXPECT_EQ(sys.RunEpoch(2000).malformed_dropped, 0u);
  // Cumulative counter keeps the first epoch's drop.
  EXPECT_EQ(
      reg.GetCounter("privapprox_malformed_dropped_total", "").Value(), 1u);
}

// ------------------------------------------------------ out-of-order time

TEST(WatermarkTest, BoundedOutOfOrderness) {
  engine::BoundedOutOfOrdernessWatermark wm(100);
  EXPECT_EQ(wm.Current(), INT64_MIN);
  wm.Observe(1000);
  EXPECT_EQ(wm.Current(), 900);
  wm.Observe(950);  // straggler does not move the watermark backwards
  EXPECT_EQ(wm.Current(), 900);
  wm.Observe(2000);
  EXPECT_EQ(wm.Current(), 1900);
  EXPECT_THROW(engine::BoundedOutOfOrdernessWatermark(-1),
               std::invalid_argument);
}

TEST(FailureTest, OutOfOrderArrivalWithStreamWatermark) {
  // Answers from three epochs arrive interleaved; the stream-driven
  // watermark fires window [0, 10000) only once event time has moved past
  // its end plus the out-of-orderness bound.
  const size_t population = 30;
  Harness harness(population);
  auto send_at = [&](uint64_t id, int64_t ts) {
    client::Client c = MakeClient(id, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto answer = c.AnswerQuery(ts);
    harness.Ship(harness.proxy0, answer->shares[0], ts);
    harness.Ship(harness.proxy1, answer->shares[1], ts);
  };
  send_at(0, 9000);
  send_at(1, 12000);  // later epoch arrives before epoch-1 stragglers
  send_at(2, 9500);   // straggler within the 1000 ms bound
  harness.Forward();
  harness.agg->Drain();
  harness.agg->AdvanceWatermarkToStream();
  // Stream watermark = 12000 - 1000 = 11000 >= 10000: the first window
  // fired with both epoch-1 answers despite the interleaving.
  ASSERT_EQ(harness.results.size(), 1u);
  EXPECT_EQ(harness.results[0].window.start_ms, 0);
  EXPECT_EQ(harness.results[0].result.participants, 2u);
}

// --------------------------------------------------- durable store crash

TEST(FailureTest, DurableHistoricalSurvivesSystemRestart) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("privapprox_failure_hist_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);

  system::SystemConfig config;
  config.num_clients = 40;
  config.historical.enabled = true;
  config.historical.dir = dir.string();
  {
    system::PrivApproxSystem sys(config);
    for (size_t i = 0; i < 40; ++i) {
      auto& db = sys.client(i).database();
      db.CreateTable("vehicle", {"speed"});
      db.GetTable("vehicle").Insert(500, {localdb::Value(25.0)});
    }
    sys.SubmitQuery(MakeQuery(), ExactParams());
    sys.RunEpoch(5000);
    sys.Flush();
    const core::QueryResult live =
        sys.RunHistorical(0, 10000, aggregator::BatchQueryBudget{1.0});
    EXPECT_EQ(live.participants, 40u);
  }  // "crash": the system object is gone; only the log directory remains

  // A fresh system over the same directory reads the persisted answers.
  {
    system::PrivApproxSystem sys(config);
    sys.SubmitQuery(MakeQuery(), ExactParams());
    const core::QueryResult recovered =
        sys.RunHistorical(0, 10000, aggregator::BatchQueryBudget{1.0});
    EXPECT_EQ(recovered.participants, 40u);
    EXPECT_NEAR(recovered.buckets[2].estimate.value, 40.0, 1e-9);
  }
  fs::remove_all(dir);
}

// Unique per process and per call; removed (with its contents) on exit.
class HistoricalDir {
 public:
  HistoricalDir() {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("privapprox_failure_hist_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::remove_all(path_);
  }
  ~HistoricalDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

system::SystemConfig HistoricalConfig(size_t num_clients,
                                      const std::string& dir) {
  system::SystemConfig config;
  config.num_clients = num_clients;
  config.seed = 11;
  config.historical.enabled = true;
  config.historical.dir = dir;
  return config;
}

// Collects one epoch of `query_id`'s answers from every client.
void CollectOneEpoch(system::PrivApproxSystem& sys, size_t num_clients,
                     uint64_t query_id) {
  for (size_t i = 0; i < num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed"});
    db.GetTable("vehicle").Insert(500, {localdb::Value(25.0)});
  }
  sys.SubmitQuery(MakeQuery(query_id), ExactParams());
  sys.RunEpoch(5000);
  sys.Flush();
}

core::ExecutionParams NoisyParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.8;
  params.randomization = {0.9, 0.3};
  return params;
}

// One seeded noisy schedule (client sampling + randomized response over
// three epochs), then batch queries at budgets 1.0 and 0.3.
std::vector<core::QueryResult> HistoricalSchedule(const std::string& dir) {
  constexpr size_t kClients = 60;
  system::PrivApproxSystem sys(HistoricalConfig(kClients, dir));
  for (size_t i = 0; i < kClients; ++i) {
    sys.client(i).database().CreateTable("vehicle", {"speed"});
  }
  sys.SubmitQuery(MakeQuery(), NoisyParams());
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    for (size_t i = 0; i < kClients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(static_cast<double>(i * 7 % 100))});
    }
    sys.RunEpoch(now);
  }
  sys.Flush();
  return {sys.RunHistorical(0, 20000, aggregator::BatchQueryBudget{1.0}),
          sys.RunHistorical(0, 20000, aggregator::BatchQueryBudget{0.3})};
}

void ExpectBitIdentical(const core::QueryResult& a,
                        const core::QueryResult& b) {
  EXPECT_EQ(a.participants, b.participants);
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (size_t k = 0; k < a.buckets.size(); ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.buckets[k].estimate.value),
              std::bit_cast<uint64_t>(b.buckets[k].estimate.value))
        << "bucket " << k;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.buckets[k].estimate.error),
              std::bit_cast<uint64_t>(b.buckets[k].estimate.error))
        << "bucket " << k;
  }
}

TEST(FailureTest, DurableHistoricalMatchesMemoryThenLosesOneTornAnswer) {
  namespace fs = std::filesystem;
  HistoricalDir dir;
  const std::vector<core::QueryResult> memory = HistoricalSchedule("");
  const std::vector<core::QueryResult> durable =
      HistoricalSchedule(dir.str());
  ASSERT_EQ(memory.size(), 2u);
  ASSERT_GT(memory[0].participants, memory[1].participants);
  ExpectBitIdentical(memory[0], durable[0]);
  ExpectBitIdentical(memory[1], durable[1]);

  // Crash mid-append: cut the newest segment inside its last record.
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("seg-") && entry.path() > newest) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  fs::resize_file(newest, fs::file_size(newest) - 5);

  system::PrivApproxSystem sys(HistoricalConfig(60, dir.str()));
  sys.SubmitQuery(MakeQuery(), NoisyParams());
  EXPECT_EQ(
      sys.RunHistorical(0, 20000, aggregator::BatchQueryBudget{1.0})
          .participants,
      durable[0].participants - 1);
}

TEST(FailureTest, DurableHistoricalDirReusedByAnotherQuery) {
  // Both queries have 10 buckets, so only the QID tells their answers
  // apart on disk.
  HistoricalDir dir;
  {
    system::PrivApproxSystem sys(HistoricalConfig(30, dir.str()));
    CollectOneEpoch(sys, 30, /*query_id=*/1);
  }
  system::PrivApproxSystem sys(HistoricalConfig(40, dir.str()));
  CollectOneEpoch(sys, 40, /*query_id=*/2);
  const core::QueryResult result =
      sys.RunHistorical(0, 10000, aggregator::BatchQueryBudget{1.0});
  EXPECT_EQ(result.participants, 40u);
  EXPECT_NEAR(result.buckets[2].estimate.value, 40.0, 1e-9);
}

TEST(FailureTest, DurableHistoricalRejectsMalformedAnswer) {
  HistoricalDir dir;
  {
    system::PrivApproxSystem sys(HistoricalConfig(20, dir.str()));
    CollectOneEpoch(sys, 20, /*query_id=*/1);
  }
  {
    // CRC-valid record whose bit count (100 -> 13 bytes) disagrees with
    // the one answer byte that follows it.
    storage::PartitionLog log(dir.path(), storage::PartitionLogOptions{});
    log.Append(/*key=*/1, 5000, std::vector<uint8_t>{100, 0, 0, 0, 0xFF});
  }
  system::PrivApproxSystem sys(HistoricalConfig(20, dir.str()));
  sys.SubmitQuery(MakeQuery(), ExactParams());
  EXPECT_THROW(
      sys.RunHistorical(0, 10000, aggregator::BatchQueryBudget{1.0}),
      storage::SegmentLogError);
}

TEST(FailureTest, DurableHistoricalDirDoubleOpenThrows) {
  // Two live systems appending to one directory would interleave records;
  // the log's directory lock turns that into a clear error.
  HistoricalDir dir;
  system::PrivApproxSystem first(HistoricalConfig(2, dir.str()));
  EXPECT_THROW(system::PrivApproxSystem(HistoricalConfig(2, dir.str())),
               storage::SegmentLogError);
}

}  // namespace
}  // namespace privapprox
