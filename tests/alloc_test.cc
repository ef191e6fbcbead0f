// Allocation-count regression tests for the zero-copy share path.
//
// This binary links the counting allocator (common/alloc_counter.h), which
// replaces global operator new/delete and counts every heap allocation. Two
// levels of guarantee are pinned down:
//
//   1. Strict zero: after one warm-up pass, the share hot path — arena
//      encode -> slab append -> view poll -> view decode — performs no heap
//      allocation at all in steady state.
//   2. Relative: the view path allocates >= 90% less than the owning
//      (vector-per-payload) path it replaced, measured in the same binary.
//
// A third test pins the durable write path: spilling through partition
// logs adds no heap allocation per record on top of the memory-only topic.
//
// The streaming pipeline's per-epoch machinery (channels, stage threads,
// join hash tables) allocates by design; what must not allocate is the
// per-share work these tests drive directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "broker/broker.h"
#include "common/alloc_counter.h"
#include "common/arena.h"
#include "crypto/chacha20.h"
#include "crypto/message.h"
#include "crypto/xor_cipher.h"
#include "proxy/proxy.h"
#include "storage/partition_log.h"
#include "system/system.h"
#include "transport/inproc_bus.h"
#include "transport/message_bus.h"

namespace privapprox {
namespace {

constexpr size_t kNumShares = 2;
constexpr size_t kAnswerBits = 11;
constexpr size_t kAnswersPerEpoch = 256;
constexpr size_t kEpochs = 8;

crypto::AnswerMessage MakeMessage() {
  BitVector answer(kAnswerBits);
  answer.Set(3, true);
  answer.Set(7, true);
  return crypto::AnswerMessage{0xABCDEF01ULL, answer};
}

TEST(AllocCounterTest, CountsAllocations) {
  const uint64_t before = AllocCounter::Count();
  std::vector<uint8_t>* v = new std::vector<uint8_t>(1024, 1);
  const uint64_t after = AllocCounter::Count();
  EXPECT_GT(after, before);
  delete v;
}

TEST(AllocRegressionTest, SteadyStateSharePathIsAllocationFree) {
  const crypto::AnswerMessage message = MakeMessage();
  const size_t record_len =
      8 + crypto::AnswerMessage::WireSize(message.answer.size());
  crypto::XorSplitter splitter(kNumShares,
                               crypto::ChaCha20Rng::FromSeed(17, 5));

  // The hot path is pinned over the production transport stack: an
  // InProcessBus over a broker topic, drained by a BusConsumer.
  broker::Broker broker;
  broker::Topic& topic = broker.CreateTopic("answers", 4);
  transport::InProcessBus bus(broker);
  // Budget every partition for the whole run: Reserve pre-commits index
  // slots and one contiguous slab run, making in-budget appends
  // allocation-free.
  const size_t total_records = kAnswersPerEpoch * kNumShares * (kEpochs + 1);
  for (size_t p = 0; p < topic.num_partitions(); ++p) {
    topic.Reserve(p, total_records, total_records * record_len);
  }
  transport::BusConsumer consumer(bus, "answers");

  EpochArena arena;
  std::vector<crypto::ShareView> views(kNumShares);
  std::vector<broker::ProduceView> produce;
  produce.reserve(kAnswersPerEpoch * kNumShares);
  std::vector<broker::RecordView> polled;
  polled.reserve(total_records);
  proxy::Proxy::DecodedShares decoded;
  decoded.shares.reserve(total_records);

  const auto run_epoch = [&]() {
    produce.clear();
    for (size_t i = 0; i < kAnswersPerEpoch; ++i) {
      splitter.SplitMessageInto(message, arena, views);
      for (const crypto::ShareView& view : views) {
        produce.push_back(
            broker::ProduceView{view.message_id, view.bytes(), 100});
      }
    }
    topic.AppendViews(produce);
    polled.clear();
    while (consumer.PollInto(4096, polled) != 0) {
    }
    decoded.Clear();
    proxy::Proxy::DecodeShares(polled, decoded);
    arena.Reset();
  };

  run_epoch();  // warm-up: arena chunk, scratch capacity, RNG staging

  const uint64_t before = AllocCounter::Count();
  for (size_t e = 0; e < kEpochs; ++e) {
    run_epoch();
  }
  const uint64_t after = AllocCounter::Count();
  EXPECT_EQ(after - before, 0u)
      << "share hot path allocated " << (after - before) << " times across "
      << kEpochs << " warm epochs";
  EXPECT_EQ(decoded.shares.size(), kAnswersPerEpoch * kNumShares);
  EXPECT_EQ(decoded.malformed, 0u);
}

// The pre-arena owning decode path, reimplemented locally as the comparison
// baseline now that the production API is span-first: one owned vector per
// payload, MID header stripped by erase, bytes moved into a MessageShare.
struct OwnedDecodedBatch {
  std::vector<crypto::MessageShare> shares;
  uint64_t malformed = 0;
};

void DecodeOwnedBatch(std::vector<broker::Record> records,
                      OwnedDecodedBatch& out) {
  out.shares.reserve(out.shares.size() + records.size());
  for (auto& record : records) {
    if (record.payload.size() < 8) {
      ++out.malformed;
      continue;
    }
    crypto::MessageShare share;
    for (int i = 0; i < 8; ++i) {
      share.message_id |= static_cast<uint64_t>(record.payload[i]) << (8 * i);
    }
    record.payload.erase(record.payload.begin(), record.payload.begin() + 8);
    share.payload = std::move(record.payload);
    out.shares.push_back(std::move(share));
  }
}

TEST(AllocRegressionTest, ViewPathAllocatesAtLeast90PercentLess) {
  const crypto::AnswerMessage message = MakeMessage();

  // Owning path: Split -> EncodeShare -> ProduceRecord batch -> owned
  // per-partition Read -> DecodeOwnedBatch. This is what every epoch paid
  // before the arena. `offsets` holds the next offset to read per partition.
  const auto run_owned = [&](broker::Topic& topic,
                             std::vector<uint64_t>& offsets,
                             crypto::XorSplitter& splitter) {
    std::vector<broker::ProduceRecord> records;
    for (size_t i = 0; i < kAnswersPerEpoch; ++i) {
      const auto shares = splitter.Split(message.Serialize());
      for (const crypto::MessageShare& share : shares) {
        records.push_back(broker::ProduceRecord{
            share.message_id, proxy::Proxy::EncodeShare(share), 100});
      }
    }
    topic.AppendBatch(std::move(records));
    OwnedDecodedBatch decoded;
    for (size_t p = 0; p < offsets.size(); ++p) {
      for (;;) {
        std::vector<broker::Record> batch = topic.Read(p, offsets[p], 4096);
        if (batch.empty()) {
          break;
        }
        offsets[p] += batch.size();
        DecodeOwnedBatch(std::move(batch), decoded);
      }
    }
    return decoded.shares.size();
  };

  broker::Topic owned_topic("owned", 4);
  std::vector<uint64_t> owned_offsets(owned_topic.num_partitions(), 0);
  crypto::XorSplitter owned_splitter(kNumShares,
                                     crypto::ChaCha20Rng::FromSeed(17, 5));
  run_owned(owned_topic, owned_offsets, owned_splitter);  // warm-up
  const uint64_t owned_before = AllocCounter::Count();
  size_t owned_shares = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    owned_shares += run_owned(owned_topic, owned_offsets, owned_splitter);
  }
  const uint64_t owned_allocs = AllocCounter::Count() - owned_before;

  // View path: same work, arena + slab views, reusing scratch, drained
  // through the production transport stack (InProcessBus + BusConsumer).
  broker::Broker view_broker;
  broker::Topic& view_topic = view_broker.CreateTopic("views", 4);
  transport::InProcessBus view_bus(view_broker);
  transport::BusConsumer view_consumer(view_bus, "views");
  crypto::XorSplitter view_splitter(kNumShares,
                                    crypto::ChaCha20Rng::FromSeed(17, 5));
  EpochArena arena;
  std::vector<crypto::ShareView> views(kNumShares);
  std::vector<broker::ProduceView> produce;
  std::vector<broker::RecordView> polled;
  proxy::Proxy::DecodedShares decoded;
  const auto run_views = [&]() {
    produce.clear();
    for (size_t i = 0; i < kAnswersPerEpoch; ++i) {
      view_splitter.SplitMessageInto(message, arena, views);
      for (const crypto::ShareView& view : views) {
        produce.push_back(
            broker::ProduceView{view.message_id, view.bytes(), 100});
      }
    }
    view_topic.AppendViews(produce);
    polled.clear();
    while (view_consumer.PollInto(4096, polled) != 0) {
    }
    decoded.Clear();
    proxy::Proxy::DecodeShares(polled, decoded);
    arena.Reset();
  };
  run_views();  // warm-up
  const uint64_t view_before = AllocCounter::Count();
  size_t view_shares = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    run_views();
    view_shares += decoded.shares.size();
  }
  const uint64_t view_allocs = AllocCounter::Count() - view_before;

  EXPECT_EQ(owned_shares, view_shares);
  // The owning path allocates several times per share; the view path must
  // cut that by at least 90%. (In steady state it is in fact zero — the
  // strict test above — but slab growth for unreserved topics may allocate
  // a handful of chunks here.)
  EXPECT_LE(view_allocs * 10, owned_allocs)
      << "owned=" << owned_allocs << " view=" << view_allocs;
}

// The durable write path: after warm-up, AppendViews on a durable topic
// (fsync never) frames each partition's run into its log's reused buffer
// and writes it once, so it allocates nothing per record. It may only add
// amortised buffer growth to what the memory-only topic allocates for the
// same appends (slab chunks and index growth).
TEST(AllocRegressionTest, DurableAppendViewsAllocatesNothingPerRecord) {
  static std::atomic<int> counter{0};
  std::random_device rd;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("privapprox_alloc_test_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter++) + "_" + std::to_string(rd()));
  std::filesystem::remove_all(dir);
  {
    broker::TopicDurability durability;
    durability.directory = dir;
    durability.log.fsync = storage::FsyncPolicy::kNever;
    broker::Topic durable("durable", 4, durability);
    broker::Topic memory("memory", 4);

    const crypto::AnswerMessage message = MakeMessage();
    crypto::XorSplitter splitter(kNumShares,
                                 crypto::ChaCha20Rng::FromSeed(17, 5));
    EpochArena arena;
    std::vector<crypto::ShareView> views(kNumShares);
    std::vector<broker::ProduceView> produce;
    uint64_t durable_allocs = 0;
    uint64_t memory_allocs = 0;
    for (size_t e = 0; e <= kEpochs; ++e) {  // epoch 0 is the warm-up
      produce.clear();
      for (size_t i = 0; i < kAnswersPerEpoch; ++i) {
        splitter.SplitMessageInto(message, arena, views);
        for (const crypto::ShareView& view : views) {
          produce.push_back(
              broker::ProduceView{view.message_id, view.bytes(), 100});
        }
      }
      const uint64_t before_durable = AllocCounter::Count();
      durable.AppendViews(produce);
      const uint64_t before_memory = AllocCounter::Count();
      memory.AppendViews(produce);
      const uint64_t after = AllocCounter::Count();
      if (e > 0) {
        durable_allocs += before_memory - before_durable;
        memory_allocs += after - before_memory;
      }
      arena.Reset();
    }
    const uint64_t records = kEpochs * kAnswersPerEpoch * kNumShares;
    ASSERT_EQ(durable.durable_stats().bytes,
              (kEpochs + 1) * kAnswersPerEpoch * kNumShares *
                  (24 + views[0].bytes().size()));
    // Slack: one framing-buffer growth per partition log plus the shared
    // routing scratch, against records/epoch = 512 that must not allocate.
    EXPECT_LE(durable_allocs, memory_allocs + durable.num_partitions() + 1)
        << "durable=" << durable_allocs << " memory=" << memory_allocs
        << " over " << records << " warm records";
  }
  std::filesystem::remove_all(dir);
}

// Whole-system sanity: in streaming mode the warm per-epoch allocation
// bill is flat — arenas, slabs, and stage scratch are reused, so epoch N
// and epoch N+1 cost the same. What remains per epoch (localdb query
// execution per client, join groups, stage threads) is bounded work, not
// growth; a reintroduced per-share copy or a leaked warm structure shows
// up here as a rising count. Runs at a given aggregator shard count so the
// sharded feed path proves its scratch (per-shard joiners, window
// accumulators, merge buffers) is reused across epochs too.
void ExpectStreamingEpochAllocationsFlat(size_t agg_shards,
                                         size_t num_queries = 1) {
  system::SystemConfig config;
  config.num_clients = 1024;
  config.num_proxies = kNumShares;
  config.seed = 7;
  config.pipeline.num_worker_threads = 1;
  config.aggregator.num_shards = agg_shards;
  system::PrivApproxSystem system(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = system.client(i).database();
    db.CreateTable("vehicle", {"speed", "temperature"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100)),
              localdb::Value(static_cast<double>((i * 7) % 100))});
  }
  core::Query query =
      core::QueryBuilder()
          .WithId(1)
          .WithSql("SELECT speed FROM vehicle")
          .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
          .WithFrequencyMs(1000)
          .WithWindowMs(2000)
          .WithSlideMs(1000)
          .Build();
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {0.9, 0.6};
  system.SubmitQuery(query, params);
  if (num_queries == 2) {
    // A second concurrent lane: per-query splitters, lane topics, and
    // aggregator lane state must reuse their warm structures just like the
    // first query's.
    core::Query second =
        core::QueryBuilder()
            .WithId(2)
            .WithSql("SELECT temperature FROM vehicle")
            .WithAnswerFormat(
                core::AnswerFormat::UniformNumeric(0, 100, 10, true))
            .WithFrequencyMs(1000)
            .WithWindowMs(2000)
            .WithSlideMs(1000)
            .Build();
    core::ExecutionParams second_params;
    second_params.sampling_fraction = 0.8;
    second_params.randomization = {0.85, 0.5};
    system.SubmitQuery(second, second_params);
  }

  int64_t now = 1000;
  for (int e = 0; e < 2; ++e) {  // warm-up epochs
    system.RunEpoch(now);
    system.AdvanceWatermark(now);
    now += 1000;
  }
  std::vector<uint64_t> per_epoch;
  for (int e = 0; e < 4; ++e) {
    const uint64_t before = AllocCounter::Count();
    system::EpochStats stats = system.RunEpoch(now);
    per_epoch.push_back(AllocCounter::Count() - before);
    ASSERT_GT(stats.shares_sent, 0u);
    system.AdvanceWatermark(now);
    now += 1000;
  }
  const uint64_t lo = *std::min_element(per_epoch.begin(), per_epoch.end());
  const uint64_t hi = *std::max_element(per_epoch.begin(), per_epoch.end());
  // Warm epochs must cost the same +-5%: the share path reuses arenas and
  // slabs, so any epoch-over-epoch growth means warm state is being dropped
  // and reallocated (or a per-share copy crept back in).
  EXPECT_LE(hi - lo, lo / 20 + 64)
      << "per-epoch allocations drifted: min=" << lo << " max=" << hi;
}

TEST(AllocRegressionTest, StreamingEpochAllocationsStayFlat) {
  ExpectStreamingEpochAllocationsFlat(1);
}

TEST(AllocRegressionTest, ShardedStreamingEpochAllocationsStayFlat) {
  ExpectStreamingEpochAllocationsFlat(2);
}

TEST(AllocRegressionTest, TwoQueryStreamingEpochAllocationsStayFlat) {
  ExpectStreamingEpochAllocationsFlat(1, /*num_queries=*/2);
}

}  // namespace
}  // namespace privapprox
