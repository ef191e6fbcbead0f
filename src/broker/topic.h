// A pub/sub topic: an append-only, partitioned record log.
//
// This is the Kafka stand-in (see DESIGN.md): PrivApprox proxies are Kafka
// brokers with two topics — `key` and `answer` — carrying the two halves of
// the XOR-split message streams (§5). Records are opaque payloads keyed by
// message id; a key-hash assigns partitions so one MID's shares always land
// in the same partition of each topic.
//
// Storage layout (zero-copy share path): each partition stores payload
// bytes in append-only slabs — large heap chunks that are never moved or
// freed — plus a record index of {payload pointer, length, key, timestamp}
// entries. Producing copies the payload once into the slab; consuming via
// the view API (ReadViews / transport::BusConsumer) returns pointers into the
// slabs, so consumers decode records in place with no per-record vector.
// Slab bytes are immutable once their index entry is published under the
// partition lock, and slabs live as long as the topic, so a RecordView
// stays valid for the topic's lifetime even while producers keep appending.

#ifndef PRIVAPPROX_BROKER_TOPIC_H_
#define PRIVAPPROX_BROKER_TOPIC_H_

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "storage/partition_log.h"

namespace privapprox::broker {

// An owning record copy (legacy read path; tests and offline tools).
struct Record {
  uint64_t offset = 0;
  int64_t timestamp_ms = 0;
  uint64_t key = 0;
  std::vector<uint8_t> payload;
};

// A non-owning view of one stored record: `payload` points into a partition
// slab and is valid for the topic's lifetime.
struct RecordView {
  uint64_t offset = 0;
  int64_t timestamp_ms = 0;
  uint64_t key = 0;
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;

  std::span<const uint8_t> bytes() const { return {payload, payload_len}; }
};

// A record to be produced (no offset yet — the topic assigns it on append).
// Batch producers build vectors of these so one lock acquisition per
// partition covers the whole batch.
struct ProduceRecord {
  uint64_t key = 0;
  std::vector<uint8_t> payload;
  int64_t timestamp_ms = 0;
};

// Zero-copy produce: the payload span (typically arena- or slab-backed)
// only needs to stay valid for the duration of the append call — the topic
// copies it into its own slab. The same type is the partition log's record,
// so a durable partition hands its batch run to the log unchanged.
using ProduceView = storage::LogRecord;

// Per-topic counters used by the throughput/network benchmarks.
struct TopicMetrics {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

// Slab-storage occupancy across all partitions of a topic: how much payload
// memory the topic holds and how full the allocated slabs are. Feeds the
// metrics registry's broker collector.
struct SlabStats {
  uint64_t slabs = 0;
  uint64_t allocated_bytes = 0;
  uint64_t used_bytes = 0;
};

// Opt-in durable spill: every append additionally lands in a
// storage::PartitionLog at <directory>/p<k> for partition k, and the topic
// constructor replays whatever those logs hold back into the in-memory
// slabs — so a recovered topic serves reads and offsets exactly as if the
// process had never died. Absent (the default), the topic is byte-identical
// to the memory-only topic of previous releases.
struct TopicDurability {
  std::filesystem::path directory;
  storage::PartitionLogOptions log;
};

// privapprox_storage_* metric sources, summed over a topic's (or broker's)
// partition logs. All zero for a non-durable topic.
struct DurableStats {
  uint64_t segments = 0;
  uint64_t bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t writes = 0;
  uint64_t recovered_records = 0;
  uint64_t truncated_tails = 0;
};

// The partition a key maps to in a topic with `num_partitions` partitions
// (splitmix hash of the key; counts below 1 clamp to 1, matching the Topic
// constructor). Exposed as a free function so transport-side producers can
// compute per-partition record counts without holding the topic object —
// the hash is part of the wire contract between processes.
size_t PartitionForKey(uint64_t key, size_t num_partitions);

class Topic {
 public:
  // Payload slab chunk size. Appends amortize to one heap allocation per
  // chunk of payload bytes; records larger than a chunk get a dedicated
  // slab so payloads are always contiguous.
  static constexpr size_t kSlabChunkBytes = 256 * 1024;

  Topic(std::string name, size_t num_partitions);
  // Durable topic: appends spill through per-partition logs under
  // `durability.directory` and the constructor recovers (replays) whatever
  // a previous incarnation left there. Throws storage::SegmentLogError on
  // unrecoverable on-disk corruption or a directory locked by a live
  // instance.
  Topic(std::string name, size_t num_partitions,
        const TopicDurability& durability);

  const std::string& name() const { return name_; }
  size_t num_partitions() const { return partitions_.size(); }
  bool durable() const { return durable_; }

  // The partition a key maps to (splitmix hash of the key).
  size_t PartitionOf(uint64_t key) const;

  // Appends to the key's partition; returns the assigned offset.
  uint64_t Append(uint64_t key, std::span<const uint8_t> payload,
                  int64_t timestamp_ms);
  uint64_t Append(uint64_t key, const std::vector<uint8_t>& payload,
                  int64_t timestamp_ms) {
    return Append(key, std::span<const uint8_t>(payload), timestamp_ms);
  }

  // Zero-copy batch append: groups records by partition so each partition
  // lock is taken once per batch instead of once per record, with the
  // per-partition index growth reserved up front and, on a durable topic,
  // the partition's whole run handed to its log in one AppendBatch. Relative
  // order of records mapping to the same partition is preserved, so the
  // resulting log is byte-identical to appending the batch one record at a
  // time. Payload bytes are copied once from the caller's spans into
  // partition slabs.
  void AppendViews(std::span<const ProduceView> records);
  // Owning-record form of AppendViews.
  void AppendBatch(std::vector<ProduceRecord> records);

  // Pre-commits capacity in `partition`: index slots for `records` more
  // entries and one contiguous slab run of `payload_bytes`. Appends within
  // that budget then perform no heap allocation (allocation regression test
  // and latency-sensitive producers).
  void Reserve(size_t partition, size_t records, size_t payload_bytes);

  // Reads up to `max_records` records from `partition` starting at `offset`,
  // copying payloads (legacy path; tests and offline consumers).
  std::vector<Record> Read(size_t partition, uint64_t offset,
                           size_t max_records) const;
  // Zero-copy read: appends slab-backed views into `out`. Views stay valid
  // for the topic's lifetime.
  void ReadViews(size_t partition, uint64_t offset, size_t max_records,
                 std::vector<RecordView>& out) const;

  // Next offset to be assigned in `partition` (== current log length).
  uint64_t EndOffset(size_t partition) const;

  TopicMetrics metrics() const;

  // Takes each partition lock briefly; intended for collection at exposition
  // time, not the hot path.
  SlabStats slab_stats() const;

  // --- Durable-spill surface (no-ops on a non-durable topic) -------------

  // Retention by consumer low-watermark: deletes whole on-disk segments of
  // `partition` whose records all sit below `offset`. Disk only — the
  // in-memory slabs keep every record, preserving the RecordView lifetime
  // guarantee for live consumers. Returns segments deleted.
  size_t AdvanceWatermark(size_t partition, uint64_t offset);

  // Forces every partition log to disk regardless of fsync policy.
  void SyncDurable();

  // Takes each partition lock briefly (exposition-time collection).
  DurableStats durable_stats() const;

 private:
  struct Slab {
    std::unique_ptr<uint8_t[]> data;
    size_t used = 0;
    size_t cap = 0;
  };
  struct IndexEntry {
    const uint8_t* payload = nullptr;
    uint32_t payload_len = 0;
    int64_t timestamp_ms = 0;
    uint64_t key = 0;
  };
  struct Partition {
    mutable std::mutex mu;
    std::vector<Slab> slabs;
    std::vector<IndexEntry> index;
    // Durable spill; null on a memory-only topic. `base` is the offset of
    // index[0]: fixed at recovery time to the log's base offset (non-zero
    // when earlier segments were retention-trimmed before the restart), so
    // EndOffset == base + index.size() continues the pre-crash numbering.
    std::unique_ptr<storage::PartitionLog> log;
    uint64_t base = 0;
  };

  // All helpers require the partition lock to be held. AppendToMemory is
  // the slab+index half (also the recovery replay path); AppendLocked
  // appends a run of records bound for `partition` to memory and, when a
  // log is attached, spills the run through one PartitionLog::AppendBatch.
  static uint8_t* SlabAlloc(Partition& partition, size_t len);
  static void EnsureIndexCapacity(Partition& partition, size_t additional);
  static void AppendToMemory(Partition& partition, uint64_t key,
                             std::span<const uint8_t> payload,
                             int64_t timestamp_ms);
  static void AppendLocked(Partition& partition,
                           std::span<const ProduceView> run);

  std::string name_;
  bool durable_ = false;
  std::vector<Partition> partitions_;
  // Lock-free counters: metrics updates sit on the hot produce/consume paths
  // and must not serialize parallel workers.
  mutable std::atomic<uint64_t> records_in_{0};
  mutable std::atomic<uint64_t> records_out_{0};
  mutable std::atomic<uint64_t> bytes_in_{0};
  mutable std::atomic<uint64_t> bytes_out_{0};
};

}  // namespace privapprox::broker

#endif  // PRIVAPPROX_BROKER_TOPIC_H_
