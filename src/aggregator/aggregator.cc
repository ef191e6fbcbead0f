#include "aggregator/aggregator.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <mutex>
#include <stdexcept>

#include "common/histogram.h"
#include "core/inversion.h"
#include "crypto/message.h"

namespace privapprox::aggregator {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Times one scope into an optional histogram: reads the clock only when the
// instrument is wired.
class ScopedTimer {
 public:
  explicit ScopedTimer(metrics::Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) {
      start_ns_ = NowNs();
    }
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->Observe(static_cast<uint64_t>(NowNs() - start_ns_));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  metrics::Histogram* hist_;
  int64_t start_ns_ = 0;
};

// SplitMix64 finalizer: MIDs are drawn from client RNGs but may share
// low-bit structure; the mix spreads them uniformly so `mix % num_shards`
// balances shards for any shard count, not just powers of two.
uint64_t MixMid(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

namespace {

void ValidateAggregatorConfig(const AggregatorConfig& config) {
  if (config.num_proxies < 2) {
    throw std::invalid_argument("Aggregator: need at least two proxies");
  }
  if (config.population == 0) {
    throw std::invalid_argument("Aggregator: population must be > 0");
  }
  if (config.num_shards == 0) {
    throw std::invalid_argument("Aggregator: num_shards must be > 0");
  }
}

}  // namespace

Aggregator::Aggregator(AggregatorConfig config, transport::MessageBus& bus,
                       ResultFn on_result)
    : config_(config), bus_(&bus), on_result_(std::move(on_result)) {
  ValidateAggregatorConfig(config_);
}

void Aggregator::RegisterQuery(const core::Query& query,
                               const core::ExecutionParams& params,
                               QueryLaneOptions options) {
  if (query.query_id == 0) {
    throw std::invalid_argument("Aggregator::RegisterQuery: query id 0");
  }
  if (lanes_.count(query.query_id) != 0) {
    throw std::invalid_argument(
        "Aggregator::RegisterQuery: duplicate query id " +
        std::to_string(query.query_id));
  }
  if (options.source_topics.empty()) {
    for (size_t i = 0; i < config_.num_proxies; ++i) {
      options.source_topics.push_back(
          proxy::LaneTopic(proxy::DefaultTopicPrefix(i), query.query_id,
                           proxy::TopicEnd::kOut));
    }
  }
  if (options.source_topics.size() != config_.num_proxies) {
    throw std::invalid_argument(
        "Aggregator::RegisterQuery: need one source topic per proxy");
  }
  auto lane_ptr = std::make_unique<Lane>(query, params, config_);
  Lane* lane = lane_ptr.get();
  for (const std::string& topic : options.source_topics) {
    lane->consumers.push_back(
        std::make_unique<transport::BusConsumer>(*bus_, topic));
  }
  lane->shard_shares_total = options.shard_shares_total.empty()
                                 ? config_.shard_shares_total
                                 : std::move(options.shard_shares_total);
  lane->shard_joined_total = options.shard_joined_total.empty()
                                 ? config_.shard_joined_total
                                 : std::move(options.shard_joined_total);
  lane->shard_imbalance_milli = options.shard_imbalance_milli != nullptr
                                    ? options.shard_imbalance_milli
                                    : config_.shard_imbalance_milli;
  const engine::SlidingWindowAssigner assigner(query.window_length_ms,
                                               query.sliding_interval_ms);
  for (size_t s = 0; s < config_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>(assigner);
    Shard* sp = shard.get();
    sp->joiner = std::make_unique<engine::MidJoiner>(
        config_.num_proxies, config_.join_timeout_ms,
        [this, lane, sp](uint64_t mid, std::vector<uint8_t> plaintext,
                         int64_t ts) {
          OnJoinedShard(*lane, *sp, mid, std::move(plaintext), ts);
        });
    if (config_.track_fault_losses) {
      // Attribute every watermark-expired join group to its window for CI
      // widening. Wired only under a fault plan so the fault-free estimate
      // path stays bit-identical. Evictions only run from AdvanceWatermark's
      // sequential shard loop, so touching lane state here is safe.
      sp->joiner->set_evict_fn([this, lane](uint64_t mid,
                                            int64_t first_seen_ms) {
        if (config_.expired_mids_total != nullptr) {
          config_.expired_mids_total->Increment();
        }
        NoteLostMid(*lane, mid, first_seen_ms);
      });
    }
    lane->shards.push_back(std::move(shard));
  }
  lanes_.emplace(query.query_id, std::move(lane_ptr));
}

Aggregator::Lane& Aggregator::GetLane(uint64_t query_id, const char* caller) {
  const auto it = lanes_.find(query_id);
  if (it == lanes_.end()) {
    throw std::invalid_argument(std::string(caller) +
                                ": unknown query id " +
                                std::to_string(query_id));
  }
  return *it->second;
}

void Aggregator::UpdateParams(uint64_t query_id,
                              const core::ExecutionParams& params) {
  params.Validate();
  Lane& lane = GetLane(query_id, "Aggregator::UpdateParams");
  lane.params = params;
  lane.estimator =
      core::ErrorEstimator(params, config_.population, config_.confidence);
}

size_t Aggregator::ShardOf(uint64_t mid) const {
  if (config_.num_shards == 1) {
    return 0;
  }
  return static_cast<size_t>(MixMid(mid) % config_.num_shards);
}

uint64_t Aggregator::Drain() {
  uint64_t consumed = 0;
  for (auto& [qid, lane] : lanes_) {
    consumed += DrainLane(*lane);
  }
  return consumed;
}

uint64_t Aggregator::DrainLane(Lane& lane) {
  // Phase 1: poll + decode each proxy stream, one independent task per
  // source topic. Decoding only touches that source's consumer and local
  // scratch slot, so sources parallelize without synchronization. Polls and
  // decodes are view-based: payloads stay in the broker's slabs and only
  // the 8-byte MID header is parsed here.
  const size_t num_sources = lane.consumers.size();
  drain_views_.resize(num_sources);
  drain_decoded_.resize(num_sources);
  // First poll failure across sources; rethrown only after everything
  // already committed has been fed downstream. Consumer offsets advance on
  // each successful poll, so a record sitting in `views` when a later poll
  // throws is committed — dropping it here would skip it forever.
  std::exception_ptr drain_error;
  std::mutex drain_error_mu;
  const auto drain_source = [&](size_t source) {
    transport::BusConsumer& consumer = *lane.consumers[source];
    drain_decoded_[source].Clear();
    std::vector<broker::RecordView>& views = drain_views_[source];
    try {
      // PollInto already reads every partition until it reports empty, so a
      // short batch means this source is drained: stop instead of paying one
      // more sweep of empty polls (an RPC per partition over TCP).
      constexpr size_t kPollBatch = 4096;
      size_t pulled = kPollBatch;
      while (pulled == kPollBatch) {
        views.clear();
        pulled = consumer.PollInto(kPollBatch, views);
        proxy::Proxy::DecodeShares(views, drain_decoded_[source]);
      }
    } catch (...) {
      // Keep whatever this source committed before the failure (PollInto
      // may have appended records whose offsets are already advanced).
      proxy::Proxy::DecodeShares(views, drain_decoded_[source]);
      std::lock_guard<std::mutex> lock(drain_error_mu);
      if (drain_error == nullptr) {
        drain_error = std::current_exception();
      }
    }
  };
  {
    ScopedTimer timer(config_.decode_ns);
    if (config_.pool != nullptr && num_sources > 1) {
      config_.pool->ParallelFor(num_sources, [&](size_t begin, size_t end) {
        for (size_t source = begin; source < end; ++source) {
          drain_source(source);
        }
      });
    } else {
      for (size_t source = 0; source < num_sources; ++source) {
        drain_source(source);
      }
    }
  }
  // Phase 2: feed the join shards. Decode-level malformed records are the
  // coordinator's to count (they never reach a shard).
  uint64_t consumed = 0;
  for (size_t source = 0; source < num_sources; ++source) {
    const proxy::Proxy::DecodedShares& batch = drain_decoded_[source];
    consumed += batch.shares.size() + batch.malformed;
    NoteMalformed(batch.malformed);
  }
  FeedShards(lane, drain_decoded_);
  if (drain_error != nullptr) {
    std::rethrow_exception(drain_error);
  }
  return consumed;
}

std::vector<std::pair<std::string, std::vector<uint64_t>>>
Aggregator::SourceOffsets() const {
  std::vector<std::pair<std::string, std::vector<uint64_t>>> out;
  for (const auto& [qid, lane] : lanes_) {
    for (const auto& consumer : lane->consumers) {
      std::vector<uint64_t> offsets;
      offsets.reserve(consumer->num_partitions());
      for (size_t p = 0; p < consumer->num_partitions(); ++p) {
        offsets.push_back(consumer->offset(p));
      }
      out.emplace_back(consumer->topic(), std::move(offsets));
    }
  }
  return out;
}

void Aggregator::FeedShards(
    Lane& lane, std::span<const proxy::Proxy::DecodedShares> per_source) {
  ScopedTimer timer(config_.join_ns);
  // Each shard scans every batch and picks out its own MIDs, so a shard's
  // joiner (and everything its emit path mutates) is touched by exactly one
  // task. Within a shard the feed order is (source, record) order — the
  // same order a single shard would see its subset in, which keeps
  // per-shard join stats and emission order canonical.
  const auto feed_shard = [&](size_t shard_index) {
    Shard& shard = *lane.shards[shard_index];
    for (size_t source = 0; source < per_source.size(); ++source) {
      for (const auto& share : per_source[source].shares) {
        if (ShardOf(share.message_id) != shard_index) {
          continue;
        }
        ++shard.shares_fed;
        shard.joiner->Add(share.message_id, share.payload, share.timestamp_ms,
                          source);
      }
    }
  };
  if (config_.pool != nullptr && lane.shards.size() > 1) {
    config_.pool->ParallelFor(lane.shards.size(),
                              [&](size_t begin, size_t end) {
                                for (size_t s = begin; s < end; ++s) {
                                  feed_shard(s);
                                }
                              });
  } else {
    for (size_t s = 0; s < lane.shards.size(); ++s) {
      feed_shard(s);
    }
  }
  MergeShardDeltas(lane);
}

void Aggregator::MergeShardDeltas(Lane& lane) {
  // Sequential, in shard order. Every fold below is a sum, max, or
  // insertion keyed by data the shards partition disjointly, so the merged
  // totals are independent of how work interleaved inside the parallel
  // region — only this loop's fixed order shows up in observable output
  // (the answer-tap order).
  uint64_t routed_max = 0;
  uint64_t routed_sum = 0;
  for (size_t s = 0; s < lane.shards.size(); ++s) {
    Shard& shard = *lane.shards[s];
    NoteMalformed(shard.malformed);
    shard.malformed = 0;
    lane.wrong_query_dropped += shard.wrong_query;
    shard.wrong_query = 0;
    if (shard.max_event_ms != INT64_MIN) {
      lane.stream_watermark.Observe(shard.max_event_ms);
      shard.max_event_ms = INT64_MIN;
    }
    if (answer_tap_) {
      for (const auto& [ts, answer] : shard.tap) {
        answer_tap_(lane.query.query_id, ts, answer);
      }
    }
    shard.tap.clear();
    if (!lane.shard_shares_total.empty() && shard.shares_fed > 0) {
      lane.shard_shares_total[s]->Increment(shard.shares_fed);
    }
    const uint64_t joined = shard.joiner->stats().joined;
    if (!lane.shard_joined_total.empty() && joined > shard.last_joined) {
      lane.shard_joined_total[s]->Increment(joined - shard.last_joined);
    }
    shard.last_joined = joined;
    shard.routed_total += shard.shares_fed;
    shard.shares_fed = 0;
    routed_max = std::max(routed_max, shard.routed_total);
    routed_sum += shard.routed_total;
  }
  if (lane.shard_imbalance_milli != nullptr && routed_sum > 0) {
    const double mean = static_cast<double>(routed_sum) /
                        static_cast<double>(lane.shards.size());
    lane.shard_imbalance_milli->Set(
        static_cast<int64_t>(static_cast<double>(routed_max) * 1000.0 / mean));
  }
}

void Aggregator::NoteLostMid(Lane& lane, uint64_t mid, int64_t ts) {
  // Dedup: a MID the injector already reported lost also lingers as a
  // partial join group until eviction — count it once.
  lane.fault_lost_mids.try_emplace(mid, ts);
}

size_t Aggregator::CountLossesInWindow(const Lane& lane,
                                       const engine::Window& window) const {
  size_t lost = 0;
  for (const auto& [mid, ts] : lane.fault_lost_mids) {
    if (ts >= window.start_ms && ts < window.end_ms) {
      ++lost;
    }
  }
  return lost;
}

void Aggregator::NoteFaultLostMids(uint64_t query_id,
                                   std::span<const uint64_t> mids,
                                   int64_t now_ms) {
  if (!config_.track_fault_losses) {
    throw std::logic_error(
        "Aggregator::NoteFaultLostMids: track_fault_losses is off");
  }
  Lane& lane = GetLane(query_id, "Aggregator::NoteFaultLostMids");
  for (const uint64_t mid : mids) {
    NoteLostMid(lane, mid, now_ms);
  }
}

void Aggregator::NoteMalformed(uint64_t n) {
  if (n == 0) {
    return;
  }
  malformed_dropped_ += n;
  if (config_.malformed_total != nullptr) {
    config_.malformed_total->Increment(n);
  }
}

uint64_t Aggregator::ConsumeShardBatch(
    uint64_t query_id, size_t source, uint64_t shard_seq,
    const std::vector<uint32_t>& partition_counts) {
  Lane& lane = GetLane(query_id, "Aggregator::ConsumeShardBatch");
  if (source >= lane.consumers.size()) {
    throw std::out_of_range("Aggregator::ConsumeShardBatch: bad source");
  }
  uint64_t consumed = 0;
  {
    ScopedTimer timer(config_.decode_ns);
    shard_views_.clear();
    consumed = lane.consumers[source]->PollExactInto(partition_counts,
                                                     shard_views_);
    StreamSlot& slot = lane.stream_pending[shard_seq];
    if (slot.per_source.empty()) {
      slot.per_source.resize(lane.consumers.size());
    }
    proxy::Proxy::DecodeShares(shard_views_, slot.per_source[source]);
    ++slot.filled;
  }
  // Advance the reorder buffer: feed every complete shard at the head, in
  // (shard_seq, source) order — the streaming pipeline's canonical join
  // feed order.
  while (!lane.stream_pending.empty()) {
    auto head = lane.stream_pending.begin();
    if (head->first != lane.stream_next_seq ||
        head->second.filled != lane.consumers.size()) {
      break;
    }
    for (const proxy::Proxy::DecodedShares& batch : head->second.per_source) {
      NoteMalformed(batch.malformed);
    }
    FeedShards(lane, head->second.per_source);
    lane.stream_pending.erase(head);
    ++lane.stream_next_seq;
  }
  return consumed;
}

void Aggregator::FinishStream() {
  bool incomplete = false;
  for (auto& [qid, lane] : lanes_) {
    incomplete = incomplete || !lane->stream_pending.empty();
    lane->stream_pending.clear();
    lane->stream_next_seq = 0;
  }
  if (incomplete) {
    throw std::logic_error(
        "Aggregator::FinishStream: shard batches missing from the stream");
  }
}

void Aggregator::OnJoinedShard(Lane& lane, Shard& shard, uint64_t /*mid*/,
                               std::vector<uint8_t> plaintext,
                               int64_t timestamp_ms) {
  crypto::AnswerMessage message;
  try {
    message = crypto::AnswerMessage::Deserialize(plaintext);
  } catch (const std::invalid_argument&) {
    ++shard.malformed;
    return;
  }
  if (message.query_id != lane.query.query_id ||
      message.answer.size() != lane.query.answer_format.num_buckets()) {
    ++shard.wrong_query;
    return;
  }
  shard.max_event_ms = std::max(shard.max_event_ms, timestamp_ms);
  shard.windows.Fold(timestamp_ms, message.answer, [&lane] {
    return core::AnswerAccumulator(lane.query.answer_format.num_buckets());
  });
  if (answer_tap_) {
    shard.tap.emplace_back(timestamp_ms, std::move(message.answer));
  }
}

void Aggregator::FireWindows(Lane& lane, int64_t watermark_ms, bool flush) {
  // Drain each shard's completed windows in shard order and merge
  // accumulators per window. The element-wise histogram add is exact (every
  // count is a whole number of 1.0 increments, far below 2^53), so the
  // merged accumulator is bit-identical to the one a single shard would
  // have built — shard count and merge order cannot change a result.
  for (auto& shard : lane.shards) {
    fired_scratch_.clear();
    if (flush) {
      shard->windows.DrainAll(fired_scratch_);
    } else {
      shard->windows.DrainFired(watermark_ms, fired_scratch_);
    }
    for (auto& [window, acc] : fired_scratch_) {
      auto it = merged_scratch_.find(window);
      if (it == merged_scratch_.end()) {
        merged_scratch_.emplace(window, std::move(acc));
      } else {
        it->second.Merge(acc);
      }
    }
  }
  fired_scratch_.clear();
  // Emit in ascending window order — the same order the single-shard
  // WindowBuffer fired in.
  for (const auto& [window, acc] : merged_scratch_) {
    OnWindowFired(lane, window, acc);
  }
  merged_scratch_.clear();
}

void Aggregator::OnWindowFired(Lane& lane, const engine::Window& window,
                               const core::AnswerAccumulator& acc) {
  ScopedTimer timer(config_.window_ns);
  const size_t lost_in_window =
      config_.track_fault_losses ? CountLossesInWindow(lane, window) : 0;
  core::QueryResult result = lane.estimator.Estimate(
      acc.histogram(), acc.num_answers(), lost_in_window);
  if (config_.answers_inverted) {
    // De-invert: yes-count = participants - no-count, bucket-wise, scaled to
    // the population.
    const double scaled_total = static_cast<double>(config_.population);
    for (auto& bucket : result.buckets) {
      bucket.estimate.value =
          core::YesCountFromInverted(bucket.estimate.value, scaled_total);
    }
  }
  on_result_(
      WindowedResult{lane.query.query_id, window, std::move(result)});
}

void Aggregator::AdvanceLaneWatermark(Lane& lane, int64_t watermark_ms) {
  // Evictions run shard by shard in shard order; each MID lives in exactly
  // one shard, so the lane-side loss map and expired counter end up
  // identical for every shard count.
  for (auto& shard : lane.shards) {
    shard->joiner->EvictStale(watermark_ms);
  }
  FireWindows(lane, watermark_ms, /*flush=*/false);
  if (config_.track_fault_losses && !lane.fault_lost_mids.empty()) {
    // Losses too old to fall into any window still unfired can go: every
    // window containing their event time ended at or before the watermark.
    const int64_t cutoff = watermark_ms - lane.query.window_length_ms;
    for (auto it = lane.fault_lost_mids.begin();
         it != lane.fault_lost_mids.end();) {
      it = it->second < cutoff ? lane.fault_lost_mids.erase(it)
                               : std::next(it);
    }
  }
}

void Aggregator::AdvanceWatermark(int64_t watermark_ms) {
  for (auto& [qid, lane] : lanes_) {
    AdvanceLaneWatermark(*lane, watermark_ms);
  }
}

void Aggregator::AdvanceWatermarkToStream() {
  for (auto& [qid, lane] : lanes_) {
    const int64_t watermark = lane->stream_watermark.Current();
    if (watermark != INT64_MIN) {
      AdvanceLaneWatermark(*lane, watermark);
    }
  }
}

void Aggregator::Flush() {
  for (auto& [qid, lane] : lanes_) {
    FireWindows(*lane, 0, /*flush=*/true);
  }
}

const engine::JoinStats& Aggregator::join_stats() const {
  merged_join_stats_ = {};
  for (const auto& [qid, lane] : lanes_) {
    for (const auto& shard : lane->shards) {
      const engine::JoinStats& s = shard->joiner->stats();
      merged_join_stats_.joined += s.joined;
      merged_join_stats_.duplicates_dropped += s.duplicates_dropped;
      merged_join_stats_.evicted_partial += s.evicted_partial;
      merged_join_stats_.late_dropped += s.late_dropped;
    }
  }
  return merged_join_stats_;
}

size_t Aggregator::pending_join_groups() const {
  size_t pending = 0;
  for (const auto& [qid, lane] : lanes_) {
    for (const auto& shard : lane->shards) {
      pending += shard->joiner->pending_groups();
    }
  }
  return pending;
}

uint64_t Aggregator::wrong_query_dropped() const {
  uint64_t total = 0;
  for (const auto& [qid, lane] : lanes_) {
    total += lane->wrong_query_dropped;
  }
  return total;
}

}  // namespace privapprox::aggregator
