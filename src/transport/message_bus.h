// The transport seam: one span-first produce/poll contract for every way
// records can move between pipeline tiers.
//
// MessageBus is the single producer/consumer surface the proxy, aggregator,
// and system runtimes speak — the seam Kafka's client protocol draws between
// the producer API and the wire format. Two backends implement it:
//
//   * InProcessBus (inproc_bus.h) wraps a broker::Broker in the same
//     process. This is the deterministic-test mode; the simulated
//     net::LinkConfig delay model is preserved as optional per-byte
//     transfer-time accounting.
//   * TcpBusClient (tcp_bus.h) speaks length-prefixed CRC-framed request/
//     response records over TCP to a TcpBusServer fronting a remote
//     broker — the process-separated load-test mode.
//
// The contract is deliberately small and offset-explicit: producing appends
// a span of views; polling reads from an explicit (partition, offset) and
// the caller commits by advancing its own offsets (BusConsumer below). That
// keeps consumption idempotent across reconnects and makes the promised-
// count streaming reads (PollExactInto) deterministic on both backends.
//
// View lifetime: polled RecordViews stay valid for the lifetime of the bus
// they came from. InProcessBus hands out broker-slab pointers; TcpBusClient
// copies fetched payloads into its own append-only slabs. Downstream code
// (the aggregator's MidJoiner parks share spans across calls) relies on
// this.

#ifndef PRIVAPPROX_TRANSPORT_MESSAGE_BUS_H_
#define PRIVAPPROX_TRANSPORT_MESSAGE_BUS_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "broker/topic.h"

namespace privapprox::transport {

class MessageBus {
 public:
  virtual ~MessageBus() = default;

  // Creates the topic if absent. An existing topic must have the same
  // partition count (std::invalid_argument otherwise) — two producers may
  // legitimately share one topic (standby-proxy failover).
  virtual void EnsureTopic(const std::string& topic, size_t num_partitions) = 0;

  // Partition count of an existing topic; throws std::invalid_argument for
  // an unknown topic.
  virtual size_t NumPartitions(const std::string& topic) = 0;

  // Appends a batch in one call. Relative order of records mapping to the
  // same partition is preserved, so the resulting log is byte-identical to
  // appending one record at a time. Payload spans only need to stay valid
  // for the duration of the call.
  virtual void Produce(const std::string& topic,
                       std::span<const broker::ProduceView> records) = 0;

  // Reads up to `max_records` records from `partition` starting at
  // `offset`, appending views into `out` (whose capacity is reused across
  // calls) and returning the number appended. A backend may return fewer
  // than are available (the TCP backend budgets response bytes per
  // round-trip); 0 means nothing exists at or after `offset` yet. Views
  // stay valid for the bus's lifetime.
  virtual size_t Poll(const std::string& topic, size_t partition,
                      uint64_t offset, size_t max_records,
                      std::vector<broker::RecordView>& out) = 0;

  // Next offset to be assigned in `partition` (== current log length).
  virtual uint64_t EndOffset(const std::string& topic, size_t partition) = 0;
};

// The partition a key maps to in a topic with `num_partitions` partitions —
// the same splitmix hash broker::Topic applies on append, exposed so
// transport-side producers and forwarders can compute per-partition counts
// without holding the topic object.
size_t PartitionForKey(uint64_t key, size_t num_partitions);

// A polling consumer over one topic of a MessageBus: owns its per-partition
// offsets (the explicit commit state of the contract) and reads partitions
// round-robin.
class BusConsumer {
 public:
  BusConsumer(MessageBus& bus, std::string topic);

  const std::string& topic() const { return topic_; }
  size_t num_partitions() const { return offsets_.size(); }

  // Pulls up to `max_records` available records across partitions,
  // appending views into `out`; returns the number pulled.
  size_t PollInto(size_t max_records, std::vector<broker::RecordView>& out);

  // Pulls exactly `counts[p]` records from each partition p, in partition
  // order. The streaming epoch pipeline uses this to consume precisely one
  // forwarded shard batch: the producer reports how many records it
  // appended per partition, so the read is deterministic even while later
  // batches are being appended concurrently. Throws std::invalid_argument
  // on a partition-count mismatch and std::logic_error if a partition does
  // not (yet) hold the promised records — callers must only request counts
  // that were appended before the call. Returns the number pulled.
  size_t PollExactInto(const std::vector<uint32_t>& counts,
                       std::vector<broker::RecordView>& out);

  // Total records consumed so far.
  uint64_t consumed() const { return consumed_; }

  // The committed offset of one partition (next record this consumer will
  // poll) — the retention low-watermark this consumer contributes.
  uint64_t offset(size_t partition) const { return offsets_.at(partition); }

  // Repositions one partition's committed offset. Recovery-only: a restarted
  // proxy daemon seeks each lane consumer to its outbound topic's recovered
  // end offset (forwarding preserves per-partition order and mapping, so
  // out-end == records-already-forwarded). Not for steady-state use —
  // skipping forward silently drops records.
  void Seek(size_t partition, uint64_t offset);

  // True when the consumer has caught up with every partition.
  bool CaughtUp();

 private:
  MessageBus& bus_;
  std::string topic_;
  std::vector<uint64_t> offsets_;
  uint64_t consumed_ = 0;
};

// Routes each topic to one of several backend buses by longest matching
// name prefix. The aggregator daemon fronts its n proxy daemons with one of
// these: topics "proxy0.*" resolve to the TcpBusClient dialed at proxy 0,
// "proxy1.*" to proxy 1, and the aggregator's n-source join code stays
// byte-for-byte the code that runs in process.
class TopicRouterBus final : public MessageBus {
 public:
  // Longest matching prefix wins; an unrouteable topic throws
  // std::invalid_argument.
  void AddRoute(std::string topic_prefix, MessageBus& target);

  void EnsureTopic(const std::string& topic, size_t num_partitions) override;
  size_t NumPartitions(const std::string& topic) override;
  void Produce(const std::string& topic,
               std::span<const broker::ProduceView> records) override;
  size_t Poll(const std::string& topic, size_t partition, uint64_t offset,
              size_t max_records, std::vector<broker::RecordView>& out) override;
  uint64_t EndOffset(const std::string& topic, size_t partition) override;

 private:
  MessageBus& Route(const std::string& topic);

  std::vector<std::pair<std::string, MessageBus*>> routes_;
};

}  // namespace privapprox::transport

#endif  // PRIVAPPROX_TRANSPORT_MESSAGE_BUS_H_
