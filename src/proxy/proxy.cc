#include "proxy/proxy.h"

#include <charconv>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace privapprox::proxy {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::string_view kLaneMarker = ".q";
constexpr std::string_view kAnnouncementMarker = ".query";

const char* EndSuffix(TopicEnd end) {
  return end == TopicEnd::kIn ? ".in" : ".out";
}

}  // namespace

std::string DefaultTopicPrefix(size_t proxy_index) {
  return "proxy" + std::to_string(proxy_index);
}

std::string LaneTopic(std::string_view prefix, uint64_t query_id,
                      TopicEnd end) {
  std::string topic(prefix);
  topic += kLaneMarker;
  topic += std::to_string(query_id);
  topic += EndSuffix(end);
  return topic;
}

std::string AnnouncementTopic(std::string_view prefix, TopicEnd end) {
  std::string topic(prefix);
  topic += kAnnouncementMarker;
  topic += EndSuffix(end);
  return topic;
}

std::optional<uint64_t> ParseLaneTopic(std::string_view prefix,
                                       std::string_view topic, TopicEnd end) {
  const std::string_view suffix = EndSuffix(end);
  const size_t head = prefix.size() + kLaneMarker.size();
  if (topic.size() <= head + suffix.size() ||
      topic.substr(0, prefix.size()) != prefix ||
      topic.substr(prefix.size(), kLaneMarker.size()) != kLaneMarker ||
      topic.substr(topic.size() - suffix.size()) != suffix) {
    return std::nullopt;
  }
  // All digits: from_chars takes no sign, so "P.q-1.in" is not a lane.
  const std::string_view digits =
      topic.substr(head, topic.size() - head - suffix.size());
  uint64_t query_id = 0;
  const auto [end_ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), query_id);
  if (ec != std::errc() || end_ptr != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return query_id;
}

Proxy::Proxy(ProxyConfig config, transport::MessageBus& bus)
    : config_(std::move(config)), bus_(&bus) {
  prefix_ = config_.topic_prefix.empty()
                ? DefaultTopicPrefix(config_.proxy_index)
                : config_.topic_prefix;
  out_prefix_ = config_.out_prefix.empty() ? prefix_ : config_.out_prefix;
  query_in_topic_ = AnnouncementTopic(prefix_, TopicEnd::kIn);
  query_out_topic_ = AnnouncementTopic(prefix_, TopicEnd::kOut);
  bus_->EnsureTopic(query_in_topic_, 1);
  bus_->EnsureTopic(query_out_topic_, 1);
  query_consumer_ =
      std::make_unique<transport::BusConsumer>(*bus_, query_in_topic_);
}

void Proxy::EnsureLane(uint64_t query_id) {
  if (query_id == 0) {
    throw std::invalid_argument("Proxy::EnsureLane: query id 0");
  }
  if (lanes_.count(query_id) != 0) {
    return;
  }
  Lane lane;
  lane.in_topic = LaneTopic(prefix_, query_id, TopicEnd::kIn);
  lane.out_topic = LaneTopic(out_prefix_, query_id, TopicEnd::kOut);
  bus_->EnsureTopic(lane.in_topic, config_.num_partitions);
  bus_->EnsureTopic(lane.out_topic, config_.num_partitions);
  lane.consumer = std::make_unique<transport::BusConsumer>(*bus_, lane.in_topic);
  lanes_.emplace(query_id, std::move(lane));
}

bool Proxy::HasLane(uint64_t query_id) const {
  return lanes_.count(query_id) != 0;
}

std::vector<uint64_t> Proxy::lane_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(lanes_.size());
  for (const auto& [qid, lane] : lanes_) {
    ids.push_back(qid);
  }
  return ids;
}

void Proxy::SyncConsumersToOutbound() {
  const auto sync = [this](transport::BusConsumer& consumer,
                           const std::string& out_topic) {
    for (size_t p = 0; p < consumer.num_partitions(); ++p) {
      consumer.Seek(p, bus_->EndOffset(out_topic, p));
    }
  };
  sync(*query_consumer_, query_out_topic_);
  for (auto& [qid, lane] : lanes_) {
    sync(*lane.consumer, lane.out_topic);
  }
}

std::vector<uint64_t> Proxy::LaneInOffsets(uint64_t query_id) const {
  const Lane& lane = GetLane(query_id, "Proxy::LaneInOffsets");
  std::vector<uint64_t> offsets;
  offsets.reserve(lane.consumer->num_partitions());
  for (size_t p = 0; p < lane.consumer->num_partitions(); ++p) {
    offsets.push_back(lane.consumer->offset(p));
  }
  return offsets;
}

const Proxy::Lane& Proxy::GetLane(uint64_t query_id,
                                  const char* caller) const {
  const auto it = lanes_.find(query_id);
  if (it == lanes_.end()) {
    throw std::invalid_argument(std::string(caller) + ": no lane for query " +
                                std::to_string(query_id));
  }
  return it->second;
}

Proxy::Lane& Proxy::GetLane(uint64_t query_id, const char* caller) {
  return const_cast<Lane&>(
      static_cast<const Proxy*>(this)->GetLane(query_id, caller));
}

const std::string& Proxy::lane_in_topic(uint64_t query_id) const {
  return GetLane(query_id, "Proxy::lane_in_topic").in_topic;
}

const std::string& Proxy::lane_out_topic(uint64_t query_id) const {
  return GetLane(query_id, "Proxy::lane_out_topic").out_topic;
}

void Proxy::NoteReceived(uint64_t n) {
  if (config_.received_total != nullptr) {
    config_.received_total->Increment(n);
  }
}

void Proxy::NoteForwarded(uint64_t n) {
  if (config_.forwarded_total != nullptr) {
    config_.forwarded_total->Increment(n);
  }
}

void Proxy::Receive(uint64_t query_id,
                    std::span<const broker::ProduceView> records) {
  const Lane& lane = GetLane(query_id, "Proxy::Receive");
  bus_->Produce(lane.in_topic, records);
  NoteReceived(records.size());
}

uint64_t Proxy::ForwardPendingViews(transport::BusConsumer& consumer,
                                    const std::string& out_topic,
                                    std::vector<uint32_t>* counts) {
  const int64_t start_ns = config_.forward_ns != nullptr ? NowNs() : 0;
  // Every share topic is created with config_.num_partitions (EnsureTopic
  // enforces agreement), so the outbound partition of a key is computable
  // without a topic lookup.
  const size_t out_partitions = config_.num_partitions;
  uint64_t total = 0;
  for (;;) {
    fwd_views_.clear();
    if (consumer.PollInto(4096, fwd_views_) == 0) {
      break;
    }
    total += fwd_views_.size();
    fwd_produce_.clear();
    fwd_produce_.reserve(fwd_views_.size());
    for (const auto& view : fwd_views_) {
      if (counts != nullptr) {
        ++(*counts)[transport::PartitionForKey(view.key, out_partitions)];
      }
      fwd_produce_.push_back(
          broker::ProduceView{view.key, view.bytes(), view.timestamp_ms});
    }
    bus_->Produce(out_topic, fwd_produce_);
  }
  NoteForwarded(total);
  if (config_.forward_ns != nullptr) {
    config_.forward_ns->Observe(static_cast<uint64_t>(NowNs() - start_ns));
  }
  return total;
}

uint64_t Proxy::ForwardLanes() {
  uint64_t total = 0;
  for (auto& [qid, lane] : lanes_) {
    total += ForwardPendingViews(*lane.consumer, lane.out_topic, nullptr);
  }
  return total;
}

std::vector<uint32_t> Proxy::ReceiveAndForwardShard(
    uint64_t query_id, std::span<const broker::ProduceView> records) {
  Lane& lane = GetLane(query_id, "Proxy::ReceiveAndForwardShard");
  bus_->Produce(lane.in_topic, records);
  NoteReceived(records.size());
  std::vector<uint32_t> counts(config_.num_partitions, 0);
  ForwardPendingViews(*lane.consumer, lane.out_topic, &counts);
  return counts;
}

void Proxy::AnnounceQuery(const std::vector<uint8_t>& announcement,
                          int64_t timestamp_ms) {
  const broker::ProduceView view{/*key=*/0, announcement, timestamp_ms};
  bus_->Produce(query_in_topic_, std::span<const broker::ProduceView>(&view, 1));
}

uint64_t Proxy::ForwardQueries() {
  uint64_t count = 0;
  std::vector<broker::RecordView> batch;
  std::vector<broker::ProduceView> produce;
  for (;;) {
    batch.clear();
    if (query_consumer_->PollInto(64, batch) == 0) {
      break;
    }
    produce.clear();
    for (const auto& record : batch) {
      produce.push_back(
          broker::ProduceView{record.key, record.bytes(), record.timestamp_ms});
    }
    bus_->Produce(query_out_topic_, produce);
    count += batch.size();
  }
  return count;
}

std::vector<uint8_t> Proxy::EncodeShare(const crypto::MessageShare& share) {
  std::vector<uint8_t> out;
  out.reserve(8 + share.payload.size());
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(share.message_id >> (8 * i)));
  }
  out.insert(out.end(), share.payload.begin(), share.payload.end());
  return out;
}

crypto::MessageShare Proxy::DecodeShare(std::span<const uint8_t> bytes) {
  if (bytes.size() < 8) {
    throw std::invalid_argument("Proxy::DecodeShare: truncated share");
  }
  crypto::MessageShare share;
  for (int i = 0; i < 8; ++i) {
    share.message_id |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  share.payload.assign(bytes.begin() + 8, bytes.end());
  return share;
}

void Proxy::DecodeShares(std::span<const broker::RecordView> records,
                         DecodedShares& out) {
  out.shares.reserve(out.shares.size() + records.size());
  for (const auto& record : records) {
    if (record.payload_len < 8) {
      ++out.malformed;
      continue;
    }
    uint64_t mid = 0;
    for (int i = 0; i < 8; ++i) {
      mid |= static_cast<uint64_t>(record.payload[i]) << (8 * i);
    }
    out.shares.push_back(DecodedShare{
        mid,
        std::span<const uint8_t>(record.payload + 8, record.payload_len - 8),
        record.timestamp_ms});
  }
}

}  // namespace privapprox::proxy
