// Tests for the pub/sub broker substrate: topics, partitions, offsets,
// consumers (transport::BusConsumer over an InProcessBus), metrics, and
// concurrent producers.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "broker/broker.h"
#include "transport/inproc_bus.h"
#include "transport/message_bus.h"

namespace privapprox::broker {
namespace {

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

TEST(TopicTest, AppendAssignsSequentialOffsets) {
  Topic topic("t", 1);
  EXPECT_EQ(topic.Append(1, Payload({1}), 0), 0u);
  EXPECT_EQ(topic.Append(2, Payload({2}), 0), 1u);
  EXPECT_EQ(topic.EndOffset(0), 2u);
}

TEST(TopicTest, PartitionAssignmentIsStableAndInRange) {
  Topic topic("t", 4);
  for (uint64_t key = 0; key < 100; ++key) {
    const size_t p1 = topic.PartitionOf(key);
    const size_t p2 = topic.PartitionOf(key);
    EXPECT_EQ(p1, p2);
    EXPECT_LT(p1, 4u);
  }
}

TEST(TopicTest, PartitionsSpreadKeys) {
  Topic topic("t", 4);
  std::array<int, 4> counts{};
  for (uint64_t key = 0; key < 4000; ++key) {
    counts[topic.PartitionOf(key)]++;
  }
  for (int count : counts) {
    EXPECT_GT(count, 700);
    EXPECT_LT(count, 1300);
  }
}

TEST(TopicTest, ReadRespectsOffsetAndLimit) {
  Topic topic("t", 1);
  for (int i = 0; i < 10; ++i) {
    topic.Append(0, Payload({static_cast<uint8_t>(i)}), i);
  }
  const auto records = topic.Read(0, 4, 3);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].payload[0], 4);
  EXPECT_EQ(records[0].timestamp_ms, 4);
  EXPECT_EQ(records[2].offset, 6u);
  EXPECT_TRUE(topic.Read(0, 10, 5).empty());
}

TEST(TopicTest, AppendBatchMatchesSequentialAppends) {
  Topic seq("seq", 4);
  Topic batched("batched", 4);
  std::vector<ProduceRecord> records;
  for (uint64_t i = 0; i < 100; ++i) {
    const std::vector<uint8_t> payload{static_cast<uint8_t>(i),
                                       static_cast<uint8_t>(i * 7)};
    seq.Append(i * 31, payload, static_cast<int64_t>(i));
    records.push_back(ProduceRecord{i * 31, payload, static_cast<int64_t>(i)});
  }
  batched.AppendBatch(std::move(records));
  for (size_t p = 0; p < 4; ++p) {
    const auto expected = seq.Read(p, 0, 1000);
    const auto actual = batched.Read(p, 0, 1000);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].offset, expected[i].offset);
      EXPECT_EQ(actual[i].key, expected[i].key);
      EXPECT_EQ(actual[i].timestamp_ms, expected[i].timestamp_ms);
      EXPECT_EQ(actual[i].payload, expected[i].payload);
    }
  }
  EXPECT_EQ(batched.metrics().records_in, seq.metrics().records_in);
  EXPECT_EQ(batched.metrics().bytes_in, seq.metrics().bytes_in);
}

TEST(TopicTest, AppendBatchEmptyIsNoop) {
  Topic topic("t", 2);
  topic.AppendBatch({});
  EXPECT_EQ(topic.metrics().records_in, 0u);
  EXPECT_EQ(topic.EndOffset(0), 0u);
  EXPECT_EQ(topic.EndOffset(1), 0u);
}

TEST(BrokerTest, EnsureTopicAttachesOrCreates) {
  Broker broker;
  Topic& created = broker.EnsureTopic("t", 2);
  Topic& attached = broker.EnsureTopic("t", 2);
  EXPECT_EQ(&created, &attached);
  // Partition-count disagreement on an existing topic is a config error.
  EXPECT_THROW(broker.EnsureTopic("t", 3), std::invalid_argument);
}

TEST(TopicTest, BadPartitionThrows) {
  Topic topic("t", 2);
  EXPECT_THROW(topic.Read(2, 0, 1), std::out_of_range);
  EXPECT_THROW(topic.EndOffset(2), std::out_of_range);
}

TEST(TopicTest, MetricsTrackBytes) {
  Topic topic("t", 1);
  topic.Append(0, Payload({1, 2, 3}), 0);
  topic.Append(0, Payload({4, 5}), 0);
  (void)topic.Read(0, 0, 10);
  const TopicMetrics metrics = topic.metrics();
  EXPECT_EQ(metrics.records_in, 2u);
  EXPECT_EQ(metrics.bytes_in, 5u);
  EXPECT_EQ(metrics.records_out, 2u);
  EXPECT_EQ(metrics.bytes_out, 5u);
}

TEST(TopicTest, ConcurrentProducersLoseNothing) {
  Topic topic("t", 4);
  constexpr int kThreads = 8, kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&topic, t] {
      for (int i = 0; i < kPerThread; ++i) {
        topic.Append(static_cast<uint64_t>(t * kPerThread + i), {1, 2}, 0);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  uint64_t total = 0;
  for (size_t p = 0; p < topic.num_partitions(); ++p) {
    total += topic.EndOffset(p);
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(TopicTest, ConcurrentProduceAndConsume) {
  // A producer thread races a consumer; the consumer must eventually see
  // every record exactly once, in per-partition order.
  Broker broker;
  Topic& topic = broker.CreateTopic("t", 2);
  transport::InProcessBus bus(broker);
  constexpr uint64_t kTotal = 20000;
  std::thread producer([&topic] {
    for (uint64_t i = 0; i < kTotal; ++i) {
      topic.Append(i, {static_cast<uint8_t>(i & 0xFF)}, static_cast<int64_t>(i));
    }
  });
  transport::BusConsumer consumer(bus, "t");
  uint64_t seen = 0;
  std::array<int64_t, 2> last_ts = {-1, -1};
  std::vector<RecordView> batch;
  while (seen < kTotal) {
    batch.clear();
    consumer.PollInto(512, batch);
    for (const RecordView& record : batch) {
      const size_t p = topic.PartitionOf(record.key);
      EXPECT_GT(record.timestamp_ms, last_ts[p]);  // per-partition order
      last_ts[p] = record.timestamp_ms;
      ++seen;
    }
  }
  producer.join();
  EXPECT_EQ(seen, kTotal);
  EXPECT_TRUE(consumer.CaughtUp());
}

TEST(BrokerTest, TopicLifecycle) {
  Broker broker;
  broker.CreateTopic("answers", 2);
  EXPECT_TRUE(broker.HasTopic("answers"));
  EXPECT_FALSE(broker.HasTopic("keys"));
  EXPECT_THROW(broker.CreateTopic("answers", 2), std::invalid_argument);
  EXPECT_THROW(broker.GetTopic("keys"), std::invalid_argument);
  broker.CreateTopic("keys", 2);
  const auto names = broker.TopicNames();
  EXPECT_EQ(names.size(), 2u);
}

TEST(BrokerTest, ProduceRoutesToTopic) {
  Broker broker;
  broker.CreateTopic("t", 1);
  broker.Produce("t", 7, {9}, 123);
  const auto records = broker.GetTopic("t").Read(0, 0, 10);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, 7u);
}

TEST(ConsumerTest, ResumesFromOffsetAfterNewData) {
  Broker broker;
  Topic& topic = broker.CreateTopic("t", 1);
  transport::InProcessBus bus(broker);
  topic.Append(0, {1}, 0);
  transport::BusConsumer consumer(bus, "t");
  std::vector<RecordView> batch;
  EXPECT_EQ(consumer.PollInto(10, batch), 1u);
  EXPECT_TRUE(consumer.CaughtUp());
  topic.Append(0, {2}, 0);
  EXPECT_FALSE(consumer.CaughtUp());
  batch.clear();
  ASSERT_EQ(consumer.PollInto(10, batch), 1u);
  EXPECT_EQ(batch[0].bytes()[0], 2);
  EXPECT_EQ(consumer.consumed(), 2u);
  EXPECT_EQ(consumer.offset(0), 2u);
}

TEST(ConsumerTest, IndependentConsumersSeeAllData) {
  Broker broker;
  Topic& topic = broker.CreateTopic("t", 2);
  transport::InProcessBus bus(broker);
  for (uint64_t key = 0; key < 50; ++key) {
    topic.Append(key, {0}, 0);
  }
  transport::BusConsumer a(bus, "t"), b(bus, "t");
  std::vector<RecordView> batch;
  size_t count_a = 0, count_b = 0;
  while (!a.CaughtUp()) {
    count_a += a.PollInto(8, batch);
  }
  while (!b.CaughtUp()) {
    count_b += b.PollInto(8, batch);
  }
  EXPECT_EQ(count_a, 50u);
  EXPECT_EQ(count_b, 50u);
  EXPECT_EQ(batch.size(), 100u);
}

// ------------------------------------------------- slab-backed view paths

TEST(TopicTest, ReadViewsMatchesRead) {
  Topic topic("t", 2);
  for (uint64_t key = 0; key < 40; ++key) {
    topic.Append(key, Payload({static_cast<uint8_t>(key), 0xAB}),
                 static_cast<int64_t>(key));
  }
  for (size_t p = 0; p < 2; ++p) {
    const auto owned = topic.Read(p, 0, 100);
    std::vector<RecordView> views;
    topic.ReadViews(p, 0, 100, views);
    ASSERT_EQ(views.size(), owned.size());
    for (size_t i = 0; i < owned.size(); ++i) {
      EXPECT_EQ(views[i].offset, owned[i].offset);
      EXPECT_EQ(views[i].key, owned[i].key);
      EXPECT_EQ(views[i].timestamp_ms, owned[i].timestamp_ms);
      ASSERT_EQ(views[i].payload_len, owned[i].payload.size());
      EXPECT_TRUE(std::equal(owned[i].payload.begin(), owned[i].payload.end(),
                             views[i].payload));
    }
  }
}

TEST(TopicTest, ViewsStayValidAcrossLaterAppends) {
  // RecordViews point into append-only slabs that are never moved or freed,
  // so a view taken early must still read the same bytes after enough
  // appends to force many new slabs and index reallocations.
  Topic topic("t", 1);
  topic.Append(7, Payload({0xDE, 0xAD, 0xBE, 0xEF}), 1);
  std::vector<RecordView> early;
  topic.ReadViews(0, 0, 1, early);
  ASSERT_EQ(early.size(), 1u);
  const std::vector<uint8_t> big(100 * 1024, 0x55);  // ~half a slab chunk
  for (int i = 0; i < 50; ++i) {
    topic.Append(static_cast<uint64_t>(i), big, 2);
  }
  ASSERT_EQ(early[0].payload_len, 4u);
  EXPECT_EQ(early[0].payload[0], 0xDE);
  EXPECT_EQ(early[0].payload[3], 0xEF);
}

TEST(TopicTest, AppendViewsMatchesAppendBatch) {
  Topic owned_topic("owned", 4);
  Topic view_topic("views", 4);
  std::vector<ProduceRecord> records;
  std::vector<std::vector<uint8_t>> payloads;
  for (uint64_t key = 0; key < 200; ++key) {
    payloads.push_back(Payload({static_cast<uint8_t>(key),
                                static_cast<uint8_t>(key >> 1), 0x42}));
    records.push_back(
        ProduceRecord{key * 7919, payloads.back(), static_cast<int64_t>(key)});
  }
  std::vector<ProduceView> views;
  for (const auto& record : records) {
    views.push_back(
        ProduceView{record.key, record.payload, record.timestamp_ms});
  }
  owned_topic.AppendBatch(records);
  view_topic.AppendViews(views);
  for (size_t p = 0; p < 4; ++p) {
    const auto a = owned_topic.Read(p, 0, 1000);
    const auto b = view_topic.Read(p, 0, 1000);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].key, b[i].key);
      EXPECT_EQ(a[i].timestamp_ms, b[i].timestamp_ms);
      EXPECT_EQ(a[i].payload, b[i].payload);
    }
  }
  EXPECT_EQ(owned_topic.metrics().records_in, view_topic.metrics().records_in);
  EXPECT_EQ(owned_topic.metrics().bytes_in, view_topic.metrics().bytes_in);
}

TEST(TopicTest, ReserveMakesAppendsAllocationFreeAndHarmless) {
  // Reserve is a capacity hint: appends within the budget must behave
  // exactly like unreserved appends, and over-reserving must not disturb
  // reads or offsets.
  Topic topic("t", 2);
  topic.Reserve(0, 100, 4096);
  topic.Reserve(1, 100, 4096);
  for (uint64_t key = 0; key < 50; ++key) {
    topic.Append(key, Payload({static_cast<uint8_t>(key)}), 0);
  }
  size_t total = 0;
  for (size_t p = 0; p < 2; ++p) {
    std::vector<RecordView> views;
    topic.ReadViews(p, 0, 100, views);
    total += views.size();
  }
  EXPECT_EQ(total, 50u);
  EXPECT_THROW(topic.Reserve(9, 1, 1), std::out_of_range);
}

TEST(TopicTest, PartitionForKeyMatchesTopicPartitionOf) {
  // The free function is part of the wire contract: a remote producer
  // computes shard counts without a Topic object, so it must agree with
  // the topic's own routing for every key.
  Topic topic("t", 4);
  for (uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(PartitionForKey(key * 7919, 4), topic.PartitionOf(key * 7919));
  }
  EXPECT_EQ(PartitionForKey(123, 0), 0u);  // degenerate: clamps to 1
}

}  // namespace
}  // namespace privapprox::broker
