#include "broker/broker.h"

#include <algorithm>
#include <stdexcept>

namespace privapprox::broker {

void Broker::EnableDurability(BrokerDurability durability) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!topics_.empty()) {
    throw std::logic_error(
        "Broker::EnableDurability: topics already exist — enable durability "
        "before creating any");
  }
  durability_ = std::move(durability);
}

bool Broker::durable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durability_.has_value();
}

std::unique_ptr<Topic> Broker::MakeTopic(const std::string& name,
                                         size_t num_partitions) const {
  if (!durability_.has_value()) {
    return std::make_unique<Topic>(name, num_partitions);
  }
  return std::make_unique<Topic>(
      name, num_partitions,
      TopicDurability{durability_->data_dir / name, durability_->log});
}

std::vector<std::string> Broker::RecoverTopics() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!durability_.has_value()) {
    throw std::logic_error("Broker::RecoverTopics: durability not enabled");
  }
  std::vector<std::string> recovered;
  std::error_code ec;
  std::filesystem::directory_iterator dir(durability_->data_dir, ec);
  if (ec) {
    return recovered;  // fresh data_dir: nothing to recover
  }
  for (const auto& entry : dir) {
    if (!entry.is_directory()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (topics_.contains(name)) {
      continue;
    }
    // Partition count = number of p<k> subdirectories. A topic directory
    // with none is not a topic (ignore it).
    size_t num_partitions = 0;
    while (std::filesystem::is_directory(
        entry.path() / ("p" + std::to_string(num_partitions)))) {
      ++num_partitions;
    }
    if (num_partitions == 0) {
      continue;
    }
    topics_.emplace(name, MakeTopic(name, num_partitions));
    recovered.push_back(name);
  }
  std::sort(recovered.begin(), recovered.end());
  return recovered;
}

DurableStats Broker::durable_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DurableStats stats;
  for (const auto& [name, topic] : topics_) {
    const DurableStats topic_stats = topic->durable_stats();
    stats.segments += topic_stats.segments;
    stats.bytes += topic_stats.bytes;
    stats.fsyncs += topic_stats.fsyncs;
    stats.writes += topic_stats.writes;
    stats.recovered_records += topic_stats.recovered_records;
    stats.truncated_tails += topic_stats.truncated_tails;
  }
  return stats;
}

Topic& Broker::CreateTopic(const std::string& name, size_t num_partitions) {
  std::lock_guard<std::mutex> lock(mu_);
  if (topics_.contains(name)) {
    throw std::invalid_argument("Broker::CreateTopic: topic '" + name +
                                "' already exists");
  }
  return *topics_.emplace(name, MakeTopic(name, num_partitions))
              .first->second;
}

Topic& Broker::EnsureTopic(const std::string& name, size_t num_partitions) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = topics_.find(name);
  if (it != topics_.end()) {
    if (it->second->num_partitions() != num_partitions) {
      throw std::invalid_argument(
          "Broker::EnsureTopic: topic '" + name +
          "' exists with a different partition count");
    }
    return *it->second;
  }
  return *topics_.emplace(name, MakeTopic(name, num_partitions))
              .first->second;
}

bool Broker::HasTopic(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return topics_.contains(name);
}

Topic& Broker::GetTopic(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = topics_.find(name);
  if (it == topics_.end()) {
    throw std::invalid_argument("Broker::GetTopic: no topic '" + name + "'");
  }
  return *it->second;
}

const Topic& Broker::GetTopic(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = topics_.find(name);
  if (it == topics_.end()) {
    throw std::invalid_argument("Broker::GetTopic: no topic '" + name + "'");
  }
  return *it->second;
}

void Broker::Produce(const std::string& topic, uint64_t key,
                     std::vector<uint8_t> payload, int64_t timestamp_ms) {
  GetTopic(topic).Append(key, std::move(payload), timestamp_ms);
}

std::vector<std::string> Broker::TopicNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(topics_.size());
  for (const auto& [name, topic] : topics_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace privapprox::broker
