// The aggregator runtime (paper §3.2.4, §5).
//
// Consumes the n proxy share streams, joins shares by MID, XOR-decrypts,
// deserializes the randomized answers, assigns them to sliding windows, and
// per fired window de-biases the per-bucket counts and attaches the combined
// error bound (sampling + randomized response). Results reach the analyst
// via a callback; joined randomized answers are optionally teed into the
// historical store (§3.3.1).
//
// Multi-query: the aggregator is a coordinator over per-query *lanes*. A
// lane owns everything one query needs — its n source-topic consumers, its
// MID joiner + window shards, its error estimator, its stream watermark and
// reorder buffer, its fault-loss ledger — so queries share nothing but the
// broker and the worker pool, and each query's results are bit-identical to
// a run where it is the only query registered. Lanes are processed in
// ascending-QID order everywhere order is observable.
//
// The join + window stage is sharded by hash(MID): each shard owns an
// independent MidJoiner and per-window accumulators, so feeding shards can
// run in parallel with no shared mutable state, and per-window results are
// merged deterministically in shard order at fire time (see DESIGN.md §6g
// for why the merge is order-free and the N-shard result is bit-identical
// to the single-shard run).

#ifndef PRIVAPPROX_AGGREGATOR_AGGREGATOR_H_
#define PRIVAPPROX_AGGREGATOR_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "common/thread_pool.h"
#include "core/answer.h"
#include "core/budget.h"
#include "core/error_estimation.h"
#include "core/query.h"
#include "engine/join.h"
#include "engine/watermark.h"
#include "engine/window.h"
#include "metrics/metrics.h"
#include "proxy/proxy.h"
#include "transport/message_bus.h"

namespace privapprox::aggregator {

struct AggregatorConfig {
  size_t num_proxies = 2;
  size_t population = 0;       // U, for scaling estimates
  double confidence = 0.95;
  int64_t join_timeout_ms = 60000;
  // Bound for the stream-driven watermark (AdvanceWatermarkToStream): how
  // far out of order shares may arrive across the proxy paths.
  int64_t watermark_out_of_orderness_ms = 1000;
  // De-invert results produced under query inversion (§3.3.2).
  bool answers_inverted = false;
  // Join/window shards per lane: shares route to shard hash(MID) %
  // num_shards, each with its own MidJoiner and window accumulators. 1 =
  // the classic sequential aggregator. Any N produces bit-identical
  // results; N > 1 only goes parallel when `pool` is also set.
  size_t num_shards = 1;
  // Optional worker pool (not owned). When set, Drain polls and decodes the
  // n proxy streams in parallel — one task per source topic — and both
  // consume paths feed the join shards in parallel (one task per shard).
  // Null keeps everything sequential.
  ThreadPool* pool = nullptr;
  // Optional instruments, not owned (null = uninstrumented). Wired by
  // PrivApproxSystem from its metrics registry. malformed_total mirrors
  // malformed_dropped() so the registry exposition matches EpochStats.
  metrics::Counter* malformed_total = nullptr;
  metrics::Histogram* decode_ns = nullptr;  // per poll+decode pass
  metrics::Histogram* join_ns = nullptr;    // per join feed pass
  metrics::Histogram* window_ns = nullptr;  // per fired window
  // Per-shard instruments, indexed by shard (empty or size num_shards):
  // shares routed to the shard and answers its joiner completed. The
  // imbalance gauge holds max-shard-routed * 1000 / mean-shard-routed
  // (1000 = perfectly balanced), updated after every feed pass. These
  // config-level instruments serve lanes that do not bring their own
  // (QueryLaneOptions), e.g. one registered with default options.
  std::vector<metrics::Counter*> shard_shares_total;
  std::vector<metrics::Counter*> shard_joined_total;
  metrics::Gauge* shard_imbalance_milli = nullptr;
  // Fault-loss accounting (wired by PrivApproxSystem when a FaultPlan is
  // configured). When true, MIDs reported lost by the fault injector
  // (NoteFaultLostMids) and incomplete MIDs expired from the join at the
  // watermark widen the confidence interval of every window containing
  // their event time (ErrorEstimator::Estimate's lost_to_faults). False
  // keeps the estimate path bit-identical to a fault-free build.
  bool track_fault_losses = false;
  metrics::Counter* expired_mids_total = nullptr;  // join groups expired at
                                                   // the watermark
};

// Per-query registration options. source_topics empty = the query's lane
// outbound topics at proxies 0..num_proxies-1 under their default prefixes
// (proxy::LaneTopic). The shard instruments (empty/null = fall back to the
// config-level ones) let the system label shard families per query.
struct QueryLaneOptions {
  std::vector<std::string> source_topics;
  std::vector<metrics::Counter*> shard_shares_total;
  std::vector<metrics::Counter*> shard_joined_total;
  metrics::Gauge* shard_imbalance_milli = nullptr;
};

struct WindowedResult {
  uint64_t query_id = 0;
  engine::Window window;
  core::QueryResult result;
};

class Aggregator {
 public:
  using ResultFn = std::function<void(const WindowedResult&)>;
  // Optional tee of every joined randomized answer (for historical
  // analytics): (QID of the joining lane, timestamp, answer bit-vector).
  using AnswerTapFn = std::function<void(uint64_t, int64_t, const BitVector&)>;

  // Coordinator with no lanes yet; add queries with RegisterQuery. The bus
  // must outlive the aggregator. In process it is a transport::InProcessBus
  // over the shared broker; in a daemon it is a TopicRouterBus over the
  // TcpBusClients dialed at each proxy daemon.
  Aggregator(AggregatorConfig config, transport::MessageBus& bus,
             ResultFn on_result);

  // Adds a lane for `query`. Throws std::invalid_argument for QID 0, a QID
  // already registered, or options.source_topics of the wrong cardinality.
  void RegisterQuery(const core::Query& query,
                     const core::ExecutionParams& params,
                     QueryLaneOptions options = {});

  bool HasQuery(uint64_t query_id) const {
    return lanes_.count(query_id) != 0;
  }
  size_t num_queries() const { return lanes_.size(); }

  void set_answer_tap(AnswerTapFn tap) { answer_tap_ = std::move(tap); }

  // Applies re-tuned execution parameters (§5 feedback loop): future
  // windows de-bias and error-estimate with the new (s, p, q). Windows
  // already buffered keep their answers; their estimates use the new
  // parameters, which is the correct choice once clients have switched.
  void UpdateParams(uint64_t query_id, const core::ExecutionParams& params);

  // Drains every lane's source topics through join -> decrypt -> window,
  // lanes in ascending-QID order. Returns the number of shares consumed.
  //
  // Retry-lossless under transport failures: if a source's poll throws
  // (e.g. its TCP peer died mid-drain), the records every source had
  // already committed — consumer offsets advance on successful polls — are
  // still decoded and fed to the join before the first failure is rethrown,
  // so a caller that retries Drain after the peer returns never loses a
  // committed record.
  uint64_t Drain();

  // (topic, per-partition committed offsets) for every lane source
  // consumer, lanes in ascending-QID order — the retention low-watermarks
  // an operator plumbs back to the proxy daemons (advance_watermark) so
  // their durable out-topic segments below these offsets can be deleted.
  std::vector<std::pair<std::string, std::vector<uint64_t>>> SourceOffsets()
      const;

  // --- Streaming consumption (system/system.cc) ------------------------
  //
  // The epoch pipeline calls ConsumeShardBatch from its single
  // aggregator-stage thread, once per (query, shard, proxy) as forward
  // notifications arrive. It reads exactly the records proxy `source`
  // appended to the query's lane for shard `shard_seq`
  // (per-outbound-partition counts as reported by
  // Proxy::ReceiveAndForwardShard), decodes them, and parks the batch in
  // the lane's reorder buffer keyed by shard sequence number. Whenever the
  // buffer's head shard has a batch from every source, those batches are
  // fed to the MID join in (shard_seq, source) order — so the join feed
  // order is deterministic per lane for every worker count, channel depth,
  // and thread interleaving. Returns records consumed (incl. malformed).
  //
  // Not thread-safe; not to be interleaved with Drain() mid-epoch. (The
  // internal fan-out to join shards may borrow the pool, but callers see a
  // single-threaded surface.)
  uint64_t ConsumeShardBatch(uint64_t query_id, size_t source,
                             uint64_t shard_seq,
                             const std::vector<uint32_t>& partition_counts);

  // Ends one streaming epoch: resets every lane's shard sequence
  // expectation for the next epoch. Throws std::logic_error if shard
  // batches are still parked in any lane (a gap in the sequence — pipeline
  // bug); the buffers are cleared first so the aggregator stays usable
  // after the throw.
  void FinishStream();

  // Fault-recovery input (requires track_fault_losses): the system reports
  // the MIDs its injector knows can never join (dropped or corrupted
  // shares, failed failovers) at the end of each epoch, per query. Each
  // (query, MID) is counted once — a later join-group expiry of the same
  // MID does not double-widen.
  void NoteFaultLostMids(uint64_t query_id, std::span<const uint64_t> mids,
                         int64_t now_ms);

  // Advances the event-time watermark on every lane: evicts stale join
  // groups and fires complete windows, shard by shard in shard order,
  // merging same-window accumulators across shards before emitting each
  // result. Lanes fire in ascending-QID order; windows within a lane in
  // ascending window order.
  void AdvanceWatermark(int64_t watermark_ms);

  // Stream-driven alternative: advances each lane to the
  // bounded-out-of-orderness watermark derived from the event times that
  // lane has seen so far (engine/watermark.h). Lanes run independent
  // watermarks, so a stalled query never holds back another's windows.
  void AdvanceWatermarkToStream();

  // Fires everything left (end of stream), all lanes.
  void Flush();

  // Join statistics summed across lanes and shards (recomputed per call).
  const engine::JoinStats& join_stats() const;
  size_t pending_join_groups() const;
  uint64_t malformed_dropped() const { return malformed_dropped_; }
  uint64_t wrong_query_dropped() const;
  size_t num_shards() const { return config_.num_shards; }

 private:
  // One join/window shard. Owns every piece of mutable state its joiner
  // emit path touches, so shards feed in parallel without synchronization;
  // the cross-shard deltas (malformed, wrong_query, max event time, tap)
  // are folded into the coordinator sequentially after the parallel region.
  struct Shard {
    explicit Shard(const engine::SlidingWindowAssigner& assigner)
        : windows(assigner) {}
    std::unique_ptr<engine::MidJoiner> joiner;
    engine::AccumulatingWindowBuffer<core::AnswerAccumulator> windows;
    // Deltas since the last MergeShardDeltas:
    uint64_t malformed = 0;      // joined plaintexts that failed to parse
    uint64_t wrong_query = 0;    // parsed answers for the wrong query/width
    uint64_t shares_fed = 0;     // shares routed to this shard
    int64_t max_event_ms = INT64_MIN;  // max valid-answer event time
    std::vector<std::pair<int64_t, BitVector>> tap;  // buffered answer tap
    // Lifetime counters for metrics deltas / imbalance:
    uint64_t last_joined = 0;    // joiner stats().joined at last merge
    uint64_t routed_total = 0;   // lifetime shares routed
  };

  // One shard's decoded batches, one slot per source stream. Decoded share
  // payloads point into broker slab storage (valid for the topic's
  // lifetime), so parking them here costs no payload copies.
  struct StreamSlot {
    std::vector<proxy::Proxy::DecodedShares> per_source;
    size_t filled = 0;
  };

  // Everything one registered query owns. unique_ptr'd in lanes_ so the
  // Lane* captured by its shards' joiner callbacks stays stable.
  struct Lane {
    core::Query query;
    core::ExecutionParams params;
    core::ErrorEstimator estimator;
    std::vector<std::unique_ptr<transport::BusConsumer>> consumers;
    // unique_ptr for stable addresses: each shard's joiner emit callback
    // captures its Shard*.
    std::vector<std::unique_ptr<Shard>> shards;
    engine::BoundedOutOfOrdernessWatermark stream_watermark;
    // ConsumeShardBatch's reorder buffer: shards decoded but not yet fed to
    // the join, keyed by shard sequence number. Bounded in practice by the
    // pipeline's channel capacities (upstream backpressure).
    std::map<uint64_t, StreamSlot> stream_pending;
    uint64_t stream_next_seq = 0;
    uint64_t wrong_query_dropped = 0;
    // Fault-loss bookkeeping (track_fault_losses): MID -> event time of
    // each loss, deduplicating injector reports against join-group
    // expiries. A sliding window counts the losses whose event time it
    // covers when it fires; entries too old to reach any future window are
    // pruned as the watermark advances. Lane-level: evictions run
    // shard-by-shard in shard order, and each MID belongs to exactly one
    // shard, so the map's content is independent of shard count.
    std::unordered_map<uint64_t, int64_t> fault_lost_mids;
    // Effective shard instruments (lane options or config-level fallback).
    std::vector<metrics::Counter*> shard_shares_total;
    std::vector<metrics::Counter*> shard_joined_total;
    metrics::Gauge* shard_imbalance_milli = nullptr;

    Lane(const core::Query& q, const core::ExecutionParams& p,
         const AggregatorConfig& config)
        : query(q),
          params(p),
          estimator(p, config.population, config.confidence),
          stream_watermark(config.watermark_out_of_orderness_ms) {}
  };

  Lane& GetLane(uint64_t query_id, const char* caller);
  size_t ShardOf(uint64_t mid) const;
  uint64_t DrainLane(Lane& lane);
  // Feeds every decoded batch (indexed by source) to the lane's join
  // shards — in parallel via the pool when num_shards > 1 and a pool is
  // wired, sequentially otherwise — then folds shard deltas into the
  // coordinator in shard order.
  void FeedShards(Lane& lane,
                  std::span<const proxy::Proxy::DecodedShares> per_source);
  void MergeShardDeltas(Lane& lane);
  // Fires the lane's windows up to `watermark_ms` (or everything when
  // `flush`): drains each shard's completed windows in shard order, merges
  // accumulators per window, then emits results in ascending window order.
  void FireWindows(Lane& lane, int64_t watermark_ms, bool flush);
  void AdvanceLaneWatermark(Lane& lane, int64_t watermark_ms);
  void OnJoinedShard(Lane& lane, Shard& shard, uint64_t mid,
                     std::vector<uint8_t> plaintext, int64_t timestamp_ms);
  void OnWindowFired(Lane& lane, const engine::Window& window,
                     const core::AnswerAccumulator& acc);
  void NoteMalformed(uint64_t n);
  void NoteLostMid(Lane& lane, uint64_t mid, int64_t ts);
  size_t CountLossesInWindow(const Lane& lane,
                             const engine::Window& window) const;

  AggregatorConfig config_;
  transport::MessageBus* bus_;
  ResultFn on_result_;
  AnswerTapFn answer_tap_;
  std::map<uint64_t, std::unique_ptr<Lane>> lanes_;  // QID -> lane, ascending
  // Consumption scratch, reused across calls and lanes (lanes are always
  // processed sequentially) so steady-state draining and shard consumption
  // perform no heap allocation. drain_* are indexed by source (one slot per
  // consumer, so the parallel Drain path stays synchronization-free);
  // shard_views_ backs the single-threaded ConsumeShardBatch poll;
  // fired_/merged_scratch_ back the per-watermark window merge.
  std::vector<std::vector<broker::RecordView>> drain_views_;
  std::vector<proxy::Proxy::DecodedShares> drain_decoded_;
  std::vector<broker::RecordView> shard_views_;
  std::vector<std::pair<engine::Window, core::AnswerAccumulator>>
      fired_scratch_;
  std::map<engine::Window, core::AnswerAccumulator> merged_scratch_;
  mutable engine::JoinStats merged_join_stats_;
  uint64_t malformed_dropped_ = 0;
};

}  // namespace privapprox::aggregator

#endif  // PRIVAPPROX_AGGREGATOR_AGGREGATOR_H_
