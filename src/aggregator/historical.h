// Historical ("batch") analytics over stored responses (paper §3.3.1).
//
// The aggregator tees every joined randomized answer into a fault-tolerant
// store (HDFS in the prototype). Here that store is a plain vector of
// StoredAnswer in memory, or — when durable — a storage::PartitionLog with
// one record per answer (AppendStoredAnswer / ReplayStoredAnswers below).
// An analyst can later run a batch query over any past time range. To keep
// the batch computation within a query budget, a second round of sampling
// runs at the aggregator over the stored responses — that second sampling
// round composes with the client-side round and the error estimator
// accounts for the reduced sample.

#ifndef PRIVAPPROX_AGGREGATOR_HISTORICAL_H_
#define PRIVAPPROX_AGGREGATOR_HISTORICAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvector.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/error_estimation.h"
#include "storage/partition_log.h"

namespace privapprox::aggregator {

// One joined randomized answer as the historical store keeps it.
struct StoredAnswer {
  int64_t timestamp_ms = 0;
  BitVector answer;
};

// Durable form of a stored answer: one PartitionLog record with key = the
// QID of the lane that joined it, ts = event time and payload =
// [u32 num_bits][answer bytes].
void AppendStoredAnswer(storage::PartitionLog& log, uint64_t query_id,
                        int64_t timestamp_ms, const BitVector& answer);

// Replays `query_id`'s answers with timestamp in [from_ms, to_ms), in append
// order. Records of other queries are skipped. Throws SegmentLogError on any
// record whose payload size disagrees with its bit count — the records come
// from disk, so a mismatch is corruption, not a different query shape.
std::vector<StoredAnswer> ReplayStoredAnswers(const storage::PartitionLog& log,
                                              uint64_t query_id,
                                              int64_t from_ms, int64_t to_ms);

struct BatchQueryBudget {
  // Fraction of stored responses to process (second-round sampling); 1.0
  // processes everything. Spot-market style budgets map to this directly.
  double aggregator_sampling_fraction = 1.0;
};

class HistoricalAnalytics {
 public:
  // `client_params` are the parameters the stored answers were produced
  // under (needed to de-bias); `population` is U.
  HistoricalAnalytics(core::ExecutionParams client_params, size_t population,
                      double confidence = 0.95);

  // Runs the batch query over the `answers` with timestamp in
  // [from_ms, to_ms) under `budget`; the second sampling round draws from
  // `rng` once per in-range answer, in span order.
  core::QueryResult Run(std::span<const StoredAnswer> answers, int64_t from_ms,
                        int64_t to_ms, const BatchQueryBudget& budget,
                        Xoshiro256& rng, size_t num_buckets) const;

 private:
  core::ExecutionParams client_params_;
  size_t population_;
  double confidence_;
};

}  // namespace privapprox::aggregator

#endif  // PRIVAPPROX_AGGREGATOR_HISTORICAL_H_
