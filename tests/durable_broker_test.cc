// Tests for the durable-spill layer above the partition log: Topic recovery
// into in-memory slabs, Broker-wide RecoverTopics, watermark retention from
// the broker's side, double-open protection, and the end-to-end guarantee
// that a durability-enabled PrivApproxSystem produces bit-identical results
// to a memory-only one.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "broker/broker.h"
#include "broker/topic.h"
#include "core/query.h"
#include "deploy/result_wire.h"
#include "localdb/database.h"
#include "storage/partition_log.h"
#include "system/system.h"

namespace privapprox {
namespace {

namespace fs = std::filesystem;

using broker::Broker;
using broker::BrokerDurability;
using broker::Record;
using broker::Topic;
using broker::TopicDurability;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    std::random_device rd;
    path_ = fs::temp_directory_path() /
            ("privapprox_durable_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + "_" + std::to_string(rd()));
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<uint8_t> Payload(uint64_t seed, size_t len) {
  std::vector<uint8_t> payload(len);
  for (size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<uint8_t>((seed * 131 + i) & 0xFF);
  }
  return payload;
}

// Copy-read every record of every partition, in partition order.
std::vector<Record> DumpTopic(const Topic& topic) {
  std::vector<Record> all;
  for (size_t p = 0; p < topic.num_partitions(); ++p) {
    // Durable recovery can leave a non-zero base after retention trims;
    // read from the first offset the topic still holds.
    std::vector<Record> records =
        topic.Read(p, /*offset=*/0, /*max_records=*/1 << 20);
    all.insert(all.end(), records.begin(), records.end());
  }
  return all;
}

TEST(DurableTopicTest, OffByDefault) {
  Topic topic("plain", 4);
  EXPECT_FALSE(topic.durable());
  const auto stats = topic.durable_stats();
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  // Watermark/sync are no-ops, not errors.
  EXPECT_EQ(topic.AdvanceWatermark(0, 100), 0u);
  topic.SyncDurable();
}

TEST(DurableTopicTest, ReopenRecoversIdenticalContents) {
  TempDir dir;
  const TopicDurability durability{dir.path(), {}};
  std::vector<Record> written;
  {
    Topic topic("answers", 4, durability);
    ASSERT_TRUE(topic.durable());
    for (uint64_t key = 0; key < 40; ++key) {
      topic.Append(key, Payload(key, 20 + key % 7),
                   static_cast<int64_t>(1000 + key));
    }
    written = DumpTopic(topic);
    ASSERT_EQ(written.size(), 40u);
    EXPECT_GT(topic.durable_stats().bytes, 0u);
  }

  Topic topic("answers", 4, durability);
  const std::vector<Record> recovered = DumpTopic(topic);
  ASSERT_EQ(recovered.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(recovered[i].offset, written[i].offset);
    EXPECT_EQ(recovered[i].key, written[i].key);
    EXPECT_EQ(recovered[i].timestamp_ms, written[i].timestamp_ms);
    EXPECT_EQ(recovered[i].payload, written[i].payload);
  }
  EXPECT_EQ(topic.durable_stats().recovered_records, 40u);

  // The recovered topic keeps accepting appends.
  topic.Append(99, Payload(99, 8), 0);
  EXPECT_EQ(DumpTopic(topic).size(), 41u);
}

TEST(DurableTopicTest, EndOffsetContinuesAcrossReopen) {
  TempDir dir;
  const TopicDurability durability{dir.path(), {}};
  std::vector<uint64_t> ends;
  {
    Topic topic("t", 3, durability);
    for (uint64_t key = 0; key < 30; ++key) {
      topic.Append(key, Payload(key, 16), 0);
    }
    for (size_t p = 0; p < 3; ++p) {
      ends.push_back(topic.EndOffset(p));
    }
  }
  Topic topic("t", 3, durability);
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(topic.EndOffset(p), ends[p]) << "partition " << p;
  }
}

// A durable partition hands its whole run of a batch to its log: one
// write(2) per partition the batch touches, not one per record.
TEST(DurableTopicTest, AppendViewsWritesOncePerPartitionRun) {
  TempDir dir;
  Topic topic("t", 4, TopicDurability{dir.path(), {}});
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<broker::ProduceView> views;
  payloads.reserve(200);
  for (uint64_t key = 0; key < 200; ++key) {
    payloads.push_back(Payload(key, 20));
    views.push_back(broker::ProduceView{key, payloads.back(), 5});
  }
  topic.AppendViews(views);
  EXPECT_EQ(topic.durable_stats().writes, topic.num_partitions());
  topic.Append(7, payloads[0], 5);
  EXPECT_EQ(topic.durable_stats().writes, topic.num_partitions() + 1);
  EXPECT_EQ(DumpTopic(topic).size(), 201u);
}

TEST(DurableTopicTest, DoubleOpenOfSameDirectoryThrows) {
  TempDir dir;
  const TopicDurability durability{dir.path(), {}};
  Topic topic("t", 2, durability);
  EXPECT_THROW(Topic("t", 2, durability), storage::SegmentLogError);
}

TEST(DurableTopicTest, WatermarkTrimsDiskKeepsMemory) {
  TempDir dir;
  TopicDurability durability{dir.path(), {}};
  durability.log.max_segment_bytes = 256;  // force rotation quickly
  const size_t kOnePartition = 1;

  uint64_t end = 0;
  {
    Topic topic("t", kOnePartition, durability);
    for (uint64_t key = 0; key < 30; ++key) {
      topic.Append(key, Payload(key, 40), 0);
    }
    end = topic.EndOffset(0);
    ASSERT_GT(topic.durable_stats().segments, 2u);

    // Consumers are fully caught up: trimming deletes every sealed segment
    // but the in-memory records stay readable (RecordView lifetime).
    EXPECT_GT(topic.AdvanceWatermark(0, end), 0u);
    EXPECT_EQ(topic.durable_stats().segments, 1u);
    EXPECT_EQ(DumpTopic(topic).size(), 30u);

    // A watermark past the end clamps rather than corrupting state.
    EXPECT_EQ(topic.AdvanceWatermark(0, end + 1000), 0u);
  }

  // Reopen: only the untrimmed tail comes back, at the right offsets.
  Topic topic("t", kOnePartition, durability);
  EXPECT_EQ(topic.EndOffset(0), end);
  const std::vector<Record> tail = DumpTopic(topic);
  ASSERT_FALSE(tail.empty());
  EXPECT_LT(tail.size(), 30u);
  EXPECT_EQ(tail.back().offset, end - 1);
  for (const Record& r : tail) {
    EXPECT_EQ(r.payload, Payload(r.key, 40));
  }
}

// ----------------------------------------------------------------- broker

TEST(DurableBrokerTest, EnableAfterTopicExistsThrows) {
  TempDir dir;
  Broker broker;
  broker.CreateTopic("t", 1);
  EXPECT_THROW(broker.EnableDurability({dir.path(), {}}), std::logic_error);
}

TEST(DurableBrokerTest, RecoverTopicsWithoutDurabilityThrows) {
  Broker broker;
  EXPECT_THROW(broker.RecoverTopics(), std::logic_error);
}

TEST(DurableBrokerTest, RecoverTopicsRebuildsNamesAndPartitions) {
  TempDir dir;
  {
    Broker broker;
    broker.EnableDurability({dir.path(), {}});
    EXPECT_TRUE(broker.durable());
    // Dotted names matter: lane topics look like proxy0.q7.in.
    Topic& a = broker.CreateTopic("proxy0.q7.in", 4);
    Topic& b = broker.CreateTopic("proxy0.q7.out", 2);
    Topic& c = broker.CreateTopic("announce", 1);
    for (uint64_t key = 0; key < 24; ++key) {
      a.Append(key, Payload(key, 12), 0);
      b.Append(key, Payload(key + 100, 12), 0);
    }
    c.Append(0, Payload(7, 64), 0);
  }

  Broker broker;
  broker.EnableDurability({dir.path(), {}});
  const std::vector<std::string> recovered = broker.RecoverTopics();
  EXPECT_EQ(recovered, (std::vector<std::string>{"announce", "proxy0.q7.in",
                                                 "proxy0.q7.out"}));
  EXPECT_EQ(broker.GetTopic("proxy0.q7.in").num_partitions(), 4u);
  EXPECT_EQ(broker.GetTopic("proxy0.q7.out").num_partitions(), 2u);
  EXPECT_EQ(broker.GetTopic("announce").num_partitions(), 1u);
  EXPECT_EQ(DumpTopic(broker.GetTopic("proxy0.q7.in")).size(), 24u);
  EXPECT_EQ(DumpTopic(broker.GetTopic("announce")).size(), 1u);
  EXPECT_EQ(broker.durable_stats().recovered_records, 49u);

  // Recovering again is a no-op: the topics already exist.
  EXPECT_TRUE(broker.RecoverTopics().empty());
}

TEST(DurableBrokerTest, RecoverOnEmptyDirIsEmpty) {
  TempDir dir;
  Broker broker;
  broker.EnableDurability({dir.path(), {}});
  EXPECT_TRUE(broker.RecoverTopics().empty());
}

// ----------------------------------------------------------------- system

core::Query SpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(1000)
      .WithSlideMs(1000)
      .Build();
}

core::ExecutionParams Params() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.9;
  params.randomization = {0.85, 0.5};
  return params;
}

void FillDatabase(localdb::Database& db, size_t client_index) {
  db.CreateTable("vehicle", {"speed"});
  db.GetTable("vehicle").Insert(
      500,
      {localdb::Value(static_cast<double>((client_index * 7) % 100))});
}

std::vector<uint8_t> RunSystem(const system::SystemConfig& config) {
  system::PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    FillDatabase(sys.client(i).database(), i);
  }
  sys.SubmitQuery(SpeedQuery(), Params());
  for (size_t e = 0; e < 3; ++e) {
    sys.RunEpoch(static_cast<int64_t>(1000 * (e + 1)));
  }
  sys.Flush();
  return deploy::SerializeResults(sys.TakeResults());
}

// Durability OFF vs ON must be bit-identical: the spill is write-through,
// never on the read path, so every sampled/randomized bit matches.
TEST(DurableSystemTest, DurableResultsMatchMemoryOnly) {
  system::SystemConfig memory_config;
  memory_config.num_clients = 60;
  memory_config.num_proxies = 2;
  memory_config.seed = 42;
  const std::vector<uint8_t> reference = RunSystem(memory_config);
  ASSERT_FALSE(reference.empty());

  TempDir dir;
  system::SystemConfig durable_config = memory_config;
  durable_config.broker.data_dir = dir.path().string();
  const std::vector<uint8_t> durable = RunSystem(durable_config);
  EXPECT_EQ(durable, reference);

  // And the spill actually happened.
  EXPECT_FALSE(fs::is_empty(dir.path()));
}

TEST(DurableSystemTest, DurableSystemHonorsFsyncPolicy) {
  TempDir dir;
  system::SystemConfig config;
  config.num_clients = 20;
  config.num_proxies = 2;
  config.seed = 7;
  config.broker.data_dir = dir.path().string();
  config.broker.log.fsync = storage::FsyncPolicy::kAlways;
  const std::vector<uint8_t> wire = RunSystem(config);
  EXPECT_FALSE(wire.empty());
}

}  // namespace
}  // namespace privapprox
