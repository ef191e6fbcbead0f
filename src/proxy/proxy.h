// The proxy runtime (paper §3.2.3, §5).
//
// A PrivApprox proxy does exactly one thing on the answer path: transmit
// opaque shares from clients to the aggregator. There is no noise addition,
// no answer intersection, no shuffling and — crucially — no synchronization
// with the other proxies (contrast: baseline::SplitX). ForwardLanes() moves
// pending records from inbound to outbound topics, which is the operation
// Fig 5b / Fig 8a measure.
//
// Shares travel only over per-(query, proxy) *lanes*. A lane is an
// inbound/outbound topic pair named "<prefix>.q<QID>.in" / ".out" (see
// LaneTopic), so a record's topic implies its query — batches stay
// query-pure end to end and the hot path never parses a QID out of a
// payload. A query's lanes exist once EnsureLane has run for it.
//
// Transport: the proxy speaks transport::MessageBus, never a broker
// directly. In process that is an InProcessBus over the shared broker; in a
// proxy daemon the same code runs against the daemon's local broker while
// remote peers reach the topics over TCP.
//
// API shape: span-first. Batched entries take spans of non-owning views
// (arena- or slab-backed) and decode produces spans into broker slab
// storage. EncodeShare/DecodeShare are the owning single-record reference
// encoding that tests compare the batched paths against.

#ifndef PRIVAPPROX_PROXY_PROXY_H_
#define PRIVAPPROX_PROXY_PROXY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "broker/broker.h"
#include "crypto/message.h"
#include "metrics/metrics.h"
#include "transport/message_bus.h"

namespace privapprox::proxy {

// Topic naming, the one place the rule lives. Proxy <index>'s topics share
// the prefix "proxy<index>". Under prefix P, query QID's share lane is the
// pair "P.q<QID>.in" / "P.q<QID>.out", and query announcements travel over
// "P.query.in" / "P.query.out".
std::string DefaultTopicPrefix(size_t proxy_index);
enum class TopicEnd { kIn, kOut };
std::string LaneTopic(std::string_view prefix, uint64_t query_id, TopicEnd end);
std::string AnnouncementTopic(std::string_view prefix, TopicEnd end);
// The QID of a LaneTopic(prefix, QID, end) name, or nullopt for any other
// name — including the announcement topics.
std::optional<uint64_t> ParseLaneTopic(std::string_view prefix,
                                       std::string_view topic, TopicEnd end);

struct ProxyConfig {
  size_t proxy_index = 0;
  size_t num_partitions = 4;  // Kafka brokers per proxy in the paper's setup
  // Topic naming. Empty prefix = DefaultTopicPrefix(index).
  std::string topic_prefix;
  // Lane outbound naming: lane out topics are LaneTopic(out_prefix, QID,
  // kOut), empty = own prefix. A standby proxy (fault failover target) sets
  // this to its primary's prefix, so shares delivered via failover land in
  // the per-query streams the aggregator already joins and the n-source
  // join is untouched.
  std::string out_prefix;
  // Optional instruments, not owned (null = uninstrumented). The system
  // wires these to its registry's per-proxy families; the Counters are the
  // source of truth behind EpochStats.shares_forwarded.
  metrics::Counter* received_total = nullptr;   // records accepted inbound
  metrics::Counter* forwarded_total = nullptr;  // records moved in -> out
  metrics::Histogram* forward_ns = nullptr;     // latency per forward call
};

class Proxy {
 public:
  // The bus must outlive the proxy. In process, it is a
  // transport::InProcessBus over the shared broker.
  Proxy(ProxyConfig config, transport::MessageBus& bus);

  size_t index() const { return config_.proxy_index; }
  const std::string& query_in_topic() const { return query_in_topic_; }
  const std::string& query_out_topic() const { return query_out_topic_; }

  // Creates the per-query lane (topics + consumer) for `query_id` if it
  // does not exist yet. Topics are EnsureTopic'd so a standby whose lane
  // outbound is its primary's existing topic attaches rather than clashes.
  // Called by the system at query submission for every proxy and standby.
  void EnsureLane(uint64_t query_id);
  bool HasLane(uint64_t query_id) const;
  size_t num_lanes() const { return lanes_.size(); }
  std::vector<uint64_t> lane_ids() const;  // ascending
  const std::string& lane_in_topic(uint64_t query_id) const;
  const std::string& lane_out_topic(uint64_t query_id) const;

  // Crash-recovery repositioning (called once by a restarted proxy daemon
  // after its broker replayed the durable topics, never in steady state):
  // seeks every consumer — query and per-lane — to its outbound
  // topic's end offset. Valid because a forwarded record keeps its key, the
  // in/out topics share a partition count, and forwarding preserves
  // per-partition order: out partition p holds exactly the records already
  // forwarded from in partition p, so out-end(p) is the count consumed from
  // in-p. Records produced inbound but not yet forwarded before the crash
  // remain pending and go out on the next ForwardLanes/ReceiveAndForwardShard.
  void SyncConsumersToOutbound();

  // Per-partition committed offsets of one lane's inbound consumer — the
  // retention low-watermark for that lane's inbound topic (everything below
  // has been forwarded).
  std::vector<uint64_t> LaneInOffsets(uint64_t query_id) const;

  // Client-facing entry: enqueue a batch of pre-encoded shares (keyed by
  // MID) into `query_id`'s lane (which must exist) in one produce call. The
  // views (typically arena-backed ShareView records, in client-id order so
  // topic contents stay byte-identical to per-record produce calls) only
  // need to stay valid for the duration of the call — the topic copies each
  // payload once into its slab.
  void Receive(uint64_t query_id, std::span<const broker::ProduceView> records);

  // Transmits all pending inbound records of every lane, in ascending-QID
  // order, to the lane's outbound topic. Returns the number forwarded.
  uint64_t ForwardLanes();

  // Epoch-pipeline entry (system/system.cc): appends one shard batch to
  // `query_id`'s lane inbound topic (the lane must exist), immediately
  // forwards everything pending on that lane (the batch plus any records
  // produced out of band), and returns the number of records forwarded per
  // *outbound* partition. The streaming aggregator consumes
  // exactly these counts (transport::BusConsumer::PollExactInto), which is
  // what makes the downstream read deterministic while later shards are
  // still in flight. Must be called from a single thread per proxy — the
  // proxy stage owns this proxy's consumer offsets. The inbound -> outbound
  // hop runs over slab-backed views with reused member scratch, so a
  // warmed-up proxy forwards without heap allocation.
  std::vector<uint32_t> ReceiveAndForwardShard(
      uint64_t query_id, std::span<const broker::ProduceView> records);

  // Query distribution (§3.1, submission phase): the aggregator publishes
  // serialized query announcements into the proxy's query inbound topic;
  // ForwardQueries moves them to the client-facing outbound topic. Proxies
  // treat announcements as opaque bytes, exactly like answer shares.
  void AnnounceQuery(const std::vector<uint8_t>& announcement,
                     int64_t timestamp_ms);
  uint64_t ForwardQueries();

  // Serialization helpers shared with the aggregator side. DecodeShare is
  // the owning single-record adapter: it parses the 8-byte MID header and
  // copies the remaining bytes into the share's payload.
  static std::vector<uint8_t> EncodeShare(const crypto::MessageShare& share);
  static crypto::MessageShare DecodeShare(std::span<const uint8_t> bytes);

  // Span-first batch decode, shared by the aggregator's parallel drain and
  // streaming shard consumption so malformed accounting stays in one place.
  // A decoded share's payload is a span into the broker's slab storage
  // (valid for the topic's lifetime), so decoding is just header parsing —
  // no per-share vector. Records shorter than the 8-byte MID header count
  // as malformed.
  struct DecodedShare {
    uint64_t message_id = 0;
    std::span<const uint8_t> payload;
    int64_t timestamp_ms = 0;
  };
  struct DecodedShares {
    std::vector<DecodedShare> shares;
    uint64_t malformed = 0;

    void Clear() {
      shares.clear();
      malformed = 0;
    }
  };
  // Decodes slab-backed record views and appends into `out`.
  static void DecodeShares(std::span<const broker::RecordView> records,
                           DecodedShares& out);

 private:
  // One per-query topic pair plus the consumer that owns the inbound
  // offsets for this proxy.
  struct Lane {
    std::string in_topic;
    std::string out_topic;
    std::unique_ptr<transport::BusConsumer> consumer;
  };

  // Drains everything pending on `consumer` to `out_topic` over
  // slab-backed views (no payload copies besides the one into the outbound
  // slab). If `counts` is non-null it accumulates the forwarded records
  // per outbound partition. Returns records forwarded.
  uint64_t ForwardPendingViews(transport::BusConsumer& consumer,
                               const std::string& out_topic,
                               std::vector<uint32_t>* counts);
  const Lane& GetLane(uint64_t query_id, const char* caller) const;
  Lane& GetLane(uint64_t query_id, const char* caller);
  void NoteReceived(uint64_t n);
  void NoteForwarded(uint64_t n);

  ProxyConfig config_;
  transport::MessageBus* bus_;
  std::string prefix_;
  std::string out_prefix_;
  std::string query_in_topic_;
  std::string query_out_topic_;
  std::unique_ptr<transport::BusConsumer> query_consumer_;
  std::map<uint64_t, Lane> lanes_;  // QID -> lane, ascending
  // Forwarding scratch, reused across calls so steady-state forwarding
  // performs no heap allocation. Only touched by the single thread that
  // owns this proxy's consumer offsets.
  std::vector<broker::RecordView> fwd_views_;
  std::vector<broker::ProduceView> fwd_produce_;
};

}  // namespace privapprox::proxy

#endif  // PRIVAPPROX_PROXY_PROXY_H_
