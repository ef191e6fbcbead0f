// The full observable output of one PrivApproxSystem epoch schedule, and a
// 64-bit digest of it. The end-to-end determinism suites compare runs
// against each other and pin the digest of a reference run as a golden
// value, so a change that moves any epoch stat, fired-window bit, topic
// counter or fault counter fails even when every run in the test moves
// together.

#ifndef PRIVAPPROX_TESTS_RUN_SNAPSHOT_H_
#define PRIVAPPROX_TESTS_RUN_SNAPSHOT_H_

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "system/system.h"

namespace privapprox::system {

struct RunSnapshot {
  std::vector<EpochStats> epochs;
  std::vector<aggregator::WindowedResult> results;
  std::vector<std::string> topic_names;
  std::vector<broker::TopicMetrics> topic_metrics;
  // (registry counter name, final value); empty for runs without a plan.
  std::vector<std::pair<std::string, uint64_t>> fault_counters;
};

// Appends every broker topic's name and counters, in TopicNames() order.
inline void CaptureTopics(PrivApproxSystem& sys, RunSnapshot& snapshot) {
  for (const std::string& name : sys.broker().TopicNames()) {
    snapshot.topic_names.push_back(name);
    snapshot.topic_metrics.push_back(sys.broker().GetTopic(name).metrics());
  }
}

// FNV-1a over: every EpochStats field per epoch; every fired window's
// query, bounds, participant/loss counts and each bucket's estimate value,
// error and randomized count as raw IEEE-754 bits; every topic's name and
// records/bytes in and out; every fault counter's name and value.
inline uint64_t SnapshotDigest(const RunSnapshot& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_string = [&](const std::string& str) {
    mix(str.size());
    for (const char c : str) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_double = [&](double d) { mix(std::bit_cast<uint64_t>(d)); };

  mix(s.epochs.size());
  for (const EpochStats& e : s.epochs) {
    for (const uint64_t v :
         {static_cast<uint64_t>(e.participants), e.shares_sent,
          e.shares_forwarded, e.shares_consumed, e.malformed_dropped,
          e.fault_shares_dropped, e.fault_shares_corrupted,
          e.fault_shares_duplicated, e.fault_shares_delayed,
          e.fault_forward_timeouts, e.fault_proxy_crashes, e.fault_lost_mids,
          e.recovery_retries, e.recovery_failovers,
          e.recovery_late_delivered}) {
      mix(v);
    }
  }
  mix(s.results.size());
  for (const aggregator::WindowedResult& r : s.results) {
    mix(r.query_id);
    mix(static_cast<uint64_t>(r.window.start_ms));
    mix(static_cast<uint64_t>(r.window.end_ms));
    mix(r.result.participants);
    mix(r.result.lost_to_faults);
    mix_double(r.result.sampling_fraction);
    mix(r.result.buckets.size());
    for (const core::BucketEstimate& b : r.result.buckets) {
      mix_double(b.estimate.value);
      mix_double(b.estimate.error);
      mix_double(b.randomized_count);
    }
  }
  mix(s.topic_names.size());
  for (size_t t = 0; t < s.topic_names.size(); ++t) {
    mix_string(s.topic_names[t]);
    const broker::TopicMetrics& m = s.topic_metrics[t];
    mix(m.records_in);
    mix(m.bytes_in);
    mix(m.records_out);
    mix(m.bytes_out);
  }
  mix(s.fault_counters.size());
  for (const auto& [name, value] : s.fault_counters) {
    mix_string(name);
    mix(value);
  }
  return h;
}

}  // namespace privapprox::system

#endif  // PRIVAPPROX_TESTS_RUN_SNAPSHOT_H_
