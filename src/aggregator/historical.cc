#include "aggregator/historical.h"

#include <stdexcept>
#include <string>

#include "core/answer.h"

namespace privapprox::aggregator {

void AppendStoredAnswer(storage::PartitionLog& log, uint64_t query_id,
                        int64_t timestamp_ms, const BitVector& answer) {
  const uint32_t num_bits = static_cast<uint32_t>(answer.size());
  std::vector<uint8_t> payload;
  payload.reserve(4 + answer.ByteSize());
  for (int i = 0; i < 4; ++i) {
    payload.push_back(static_cast<uint8_t>(num_bits >> (8 * i)));
  }
  payload.insert(payload.end(), answer.bytes().begin(), answer.bytes().end());
  log.Append(query_id, timestamp_ms, payload);
}

std::vector<StoredAnswer> ReplayStoredAnswers(const storage::PartitionLog& log,
                                              uint64_t query_id,
                                              int64_t from_ms, int64_t to_ms) {
  std::vector<StoredAnswer> answers;
  log.Replay([&](uint64_t offset, uint64_t key, int64_t timestamp_ms,
                 std::span<const uint8_t> payload) {
    const auto malformed = [&] {
      return storage::SegmentLogError(
          "malformed historical answer at offset " + std::to_string(offset) +
          " in " + log.directory().string());
    };
    if (payload.size() < 4) {
      throw malformed();
    }
    uint32_t num_bits = 0;
    for (int i = 0; i < 4; ++i) {
      num_bits |= static_cast<uint32_t>(payload[i]) << (8 * i);
    }
    if (4 + (static_cast<uint64_t>(num_bits) + 7) / 8 != payload.size()) {
      throw malformed();
    }
    if (key != query_id || timestamp_ms < from_ms || timestamp_ms >= to_ms) {
      return;
    }
    answers.push_back(StoredAnswer{
        timestamp_ms,
        BitVector::FromBytes(
            std::vector<uint8_t>(payload.begin() + 4, payload.end()),
            num_bits)});
  });
  return answers;
}

HistoricalAnalytics::HistoricalAnalytics(core::ExecutionParams client_params,
                                         size_t population, double confidence)
    : client_params_(client_params),
      population_(population),
      confidence_(confidence) {
  client_params_.Validate();
  if (population == 0) {
    throw std::invalid_argument("HistoricalAnalytics: population must be > 0");
  }
}

core::QueryResult HistoricalAnalytics::Run(
    std::span<const StoredAnswer> answers, int64_t from_ms, int64_t to_ms,
    const BatchQueryBudget& budget, Xoshiro256& rng,
    size_t num_buckets) const {
  if (!(budget.aggregator_sampling_fraction > 0.0 &&
        budget.aggregator_sampling_fraction <= 1.0)) {
    throw std::invalid_argument(
        "HistoricalAnalytics: sampling fraction must be in (0, 1]");
  }
  core::AnswerAccumulator acc(num_buckets);
  for (const StoredAnswer& stored : answers) {
    if (stored.timestamp_ms < from_ms || stored.timestamp_ms >= to_ms) {
      continue;
    }
    if (budget.aggregator_sampling_fraction < 1.0 &&
        !rng.NextBernoulli(budget.aggregator_sampling_fraction)) {
      continue;
    }
    if (stored.answer.size() != num_buckets) {
      continue;  // answers from a different query shape
    }
    acc.Add(stored.answer);
  }
  // The second sampling round composes multiplicatively with the client
  // round: the effective sampling fraction the estimator must use is
  // s_client * s_aggregator.
  core::ExecutionParams effective = client_params_;
  effective.sampling_fraction *= budget.aggregator_sampling_fraction;
  const core::ErrorEstimator estimator(effective, population_, confidence_);
  return estimator.Estimate(acc.histogram(), acc.num_answers());
}

}  // namespace privapprox::aggregator
