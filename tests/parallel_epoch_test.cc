// Determinism of the epoch dataflow (system/system.cc): RunEpoch with
// num_worker_threads=1 and num_worker_threads=N must produce identical
// WindowedResults and byte-identical broker topic contents. Any worker may
// answer a shard, but per-proxy reorder buffers keep topic appends in
// client-id order and the aggregator's reorder buffer feeds the MID join in
// deterministic (shard, source) order, so every downstream byte and double
// matches the single-worker run exactly. Golden digests (run_snapshot.h)
// pin the reference runs' output itself, so a change that moves every run
// alike still fails. Run this suite under -DPRIVAPPROX_SANITIZE=thread to
// check the stage synchronization.

#include <gtest/gtest.h>

#include <vector>

#include "core/budget_manager.h"
#include "core/privacy.h"
#include "run_snapshot.h"
#include "system/system.h"

namespace privapprox::system {
namespace {

core::Query SpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(5000)
      .WithWindowMs(10000)
      .WithSlideMs(5000)
      .Build();
}

// SnapshotDigest of RunScenario's output (and of RunMultiScenario's with
// the speed and temperature queries), identical for every worker count,
// shard count and channel depth. Recorded once proxies stopped creating
// the never-written QID-less topics proxy<j>.in/.out, by a run of the
// previous build that skipped those (empty) topics; the rest of the run was
// byte-identical.
constexpr uint64_t kSingleQueryGolden = 0xff5cff317270a1a7ULL;
constexpr uint64_t kTwoQueryGolden = 0xa13abf2b7aaad6d2ULL;

RunSnapshot RunScenario(size_t num_worker_threads, size_t pipeline_depth = 2,
                        size_t agg_shards = 1) {
  SystemConfig config;
  config.num_clients = 400;
  config.num_proxies = 3;
  config.seed = 99;
  config.pipeline.num_worker_threads = num_worker_threads;
  config.pipeline.depth = pipeline_depth;
  config.aggregator.num_shards = agg_shards;
  // Small shards so the 400 clients split into 7 in-flight batches and the
  // streaming stages genuinely overlap.
  config.pipeline.shard_size = 64;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed"});
    // Spread clients across buckets; refresh rows per epoch below.
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100))});
  }
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  sys.SubmitQuery(SpeedQuery(), params);

  RunSnapshot snapshot;
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(static_cast<double>((i * 13) % 100))});
    }
    snapshot.epochs.push_back(sys.RunEpoch(now));
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  snapshot.results = sys.TakeResults();
  CaptureTopics(sys, snapshot);
  return snapshot;
}

// Asserts two runs are observably identical: per-epoch stats, fired windows
// bit for bit, and per-topic record/byte counters in both directions.
void ExpectSnapshotsIdentical(const RunSnapshot& sequential,
                              const RunSnapshot& parallel) {
  ASSERT_EQ(parallel.epochs.size(), sequential.epochs.size());
  for (size_t e = 0; e < sequential.epochs.size(); ++e) {
    EXPECT_EQ(parallel.epochs[e].participants,
              sequential.epochs[e].participants);
    EXPECT_EQ(parallel.epochs[e].shares_sent, sequential.epochs[e].shares_sent);
    EXPECT_EQ(parallel.epochs[e].shares_forwarded,
              sequential.epochs[e].shares_forwarded);
    EXPECT_EQ(parallel.epochs[e].shares_consumed,
              sequential.epochs[e].shares_consumed);
    EXPECT_EQ(parallel.epochs[e].malformed_dropped,
              sequential.epochs[e].malformed_dropped);
  }

  // Fired windows: identical order, windows, and bit-for-bit doubles.
  ASSERT_EQ(parallel.results.size(), sequential.results.size());
  ASSERT_GT(sequential.results.size(), 0u);
  for (size_t w = 0; w < sequential.results.size(); ++w) {
    const auto& a = sequential.results[w];
    const auto& b = parallel.results[w];
    EXPECT_EQ(b.window, a.window);
    EXPECT_EQ(b.result.participants, a.result.participants);
    ASSERT_EQ(b.result.buckets.size(), a.result.buckets.size());
    for (size_t i = 0; i < a.result.buckets.size(); ++i) {
      EXPECT_EQ(b.result.buckets[i].estimate.value,
                a.result.buckets[i].estimate.value);
      EXPECT_EQ(b.result.buckets[i].estimate.error,
                a.result.buckets[i].estimate.error);
      EXPECT_EQ(b.result.buckets[i].randomized_count,
                a.result.buckets[i].randomized_count);
    }
  }

  // Broker topics: identical byte and record counts in both directions.
  ASSERT_EQ(parallel.topic_names, sequential.topic_names);
  for (size_t t = 0; t < sequential.topic_metrics.size(); ++t) {
    EXPECT_EQ(parallel.topic_metrics[t].records_in,
              sequential.topic_metrics[t].records_in)
        << sequential.topic_names[t];
    EXPECT_EQ(parallel.topic_metrics[t].bytes_in,
              sequential.topic_metrics[t].bytes_in)
        << sequential.topic_names[t];
    EXPECT_EQ(parallel.topic_metrics[t].records_out,
              sequential.topic_metrics[t].records_out)
        << sequential.topic_names[t];
    EXPECT_EQ(parallel.topic_metrics[t].bytes_out,
              sequential.topic_metrics[t].bytes_out)
        << sequential.topic_names[t];
  }
}

TEST(ParallelEpochTest, ParallelMatchesSequentialExactly) {
  const RunSnapshot sequential = RunScenario(1);
  for (size_t workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectSnapshotsIdentical(sequential, RunScenario(workers));
  }
}

// kSingleQueryGolden is the digest of the phase-barriered driver's output,
// so matching it at every worker count is the streaming dataflow matching
// that reference bit for bit.
TEST(ParallelEpochTest, StreamingMatchesBarrierBitForBitAtEveryWorkerCount) {
  for (size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_EQ(SnapshotDigest(RunScenario(workers)), kSingleQueryGolden);
  }
}

TEST(ParallelEpochTest, ShardedAggregatorIsBitIdenticalToSingleShard) {
  // The shard/merge determinism invariant (DESIGN.md §6g): any shard count,
  // at any worker count, produces the same results, stats, and broker
  // traffic as the 1-shard 1-thread run.
  const RunSnapshot oracle = RunScenario(1, 2, /*agg_shards=*/1);
  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t workers : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      ExpectSnapshotsIdentical(oracle, RunScenario(workers, 2, shards));
    }
  }
}

TEST(ParallelEpochTest, DefaultShardCountFollowsWorkerThreads) {
  // aggregator.num_shards = 0 resolves to one shard per worker thread;
  // the result must still match the explicit 1-shard oracle.
  ExpectSnapshotsIdentical(RunScenario(1, 2, /*agg_shards=*/1),
                           RunScenario(4, 2, /*agg_shards=*/0));
}

TEST(ParallelEpochTest, StreamingIsInsensitiveToPipelineDepth) {
  const RunSnapshot deep = RunScenario(4, /*pipeline_depth=*/16);
  const RunSnapshot shallow = RunScenario(4, /*pipeline_depth=*/1);
  ExpectSnapshotsIdentical(deep, shallow);
  EXPECT_EQ(SnapshotDigest(deep), kSingleQueryGolden);
}

TEST(ParallelEpochTest, WorkerThreadKnobIsHonored) {
  SystemConfig config;
  config.num_clients = 2;
  config.pipeline.num_worker_threads = 3;
  PrivApproxSystem sys(config);
  EXPECT_EQ(sys.num_worker_threads(), 3u);
}

TEST(ParallelEpochTest, DefaultUsesHardwareConcurrency) {
  SystemConfig config;
  config.num_clients = 2;
  PrivApproxSystem sys(config);
  EXPECT_GE(sys.num_worker_threads(), 1u);
}

// EpochStats is defined as the per-epoch delta of the registry's core
// pipeline counters; summing the deltas over a run must reproduce the
// cumulative registry values exactly, however the stages are scheduled.
void ExpectStatsMatchRegistry(size_t num_worker_threads, size_t depth) {
  SystemConfig config;
  config.num_clients = 150;
  config.num_proxies = 2;
  config.seed = 31;
  config.pipeline.num_worker_threads = num_worker_threads;
  config.pipeline.depth = depth;
  config.pipeline.shard_size = 32;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100))});
  }
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  sys.SubmitQuery(SpeedQuery(), params);

  EpochStats total;
  size_t epochs = 0;
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    const EpochStats stats = sys.RunEpoch(now);
    total.participants += stats.participants;
    total.shares_sent += stats.shares_sent;
    total.shares_forwarded += stats.shares_forwarded;
    total.shares_consumed += stats.shares_consumed;
    total.malformed_dropped += stats.malformed_dropped;
    ++epochs;
  }

  auto& reg = sys.metrics_registry();
  EXPECT_EQ(reg.GetCounter("privapprox_epochs_total", "").Value(), epochs);
  EXPECT_EQ(reg.GetCounter("privapprox_participants_total", "").Value(),
            total.participants);
  EXPECT_EQ(reg.GetCounter("privapprox_shares_sent_total", "").Value(),
            total.shares_sent);
  EXPECT_EQ(reg.GetCounter("privapprox_shares_forwarded_total", "").Value(),
            total.shares_forwarded);
  EXPECT_EQ(reg.GetCounter("privapprox_shares_consumed_total", "").Value(),
            total.shares_consumed);
  EXPECT_EQ(reg.GetCounter("privapprox_malformed_dropped_total", "").Value(),
            total.malformed_dropped);
  EXPECT_GT(total.shares_sent, 0u);
}

// One answer worker and one-slot channels: the most nearly serial schedule
// the dataflow runs, and so the nearest it comes to the removed
// phase-barriered driver. The stages still overlap by a shard or so.
TEST(ParallelEpochTest, EpochStatsMatchesRegistryBarrier) {
  ExpectStatsMatchRegistry(/*num_worker_threads=*/1, /*depth=*/1);
}

TEST(ParallelEpochTest, EpochStatsMatchesRegistryStreaming) {
  ExpectStatsMatchRegistry(/*num_worker_threads=*/2, /*depth=*/8);
}

// ---------------------------------------------------- multi-query runtime

core::Query TempQuery() {
  return core::QueryBuilder()
      .WithId(2)
      .WithSql("SELECT temperature FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 5, true))
      .WithFrequencyMs(5000)
      .WithWindowMs(10000)
      .WithSlideMs(5000)
      .Build();
}

core::ExecutionParams SpeedParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  return params;
}

core::ExecutionParams TempParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.8;
  params.randomization = {0.85, 0.5};
  return params;
}

// Runs the standard 3-epoch schedule with an arbitrary query set and
// returns the full observable output.
RunSnapshot RunMultiScenario(std::vector<SystemConfig::QuerySpec> queries,
                             size_t num_worker_threads) {
  SystemConfig config;
  config.num_clients = 400;
  config.num_proxies = 3;
  config.seed = 99;
  config.queries = std::move(queries);
  config.pipeline.num_worker_threads = num_worker_threads;
  config.pipeline.depth = 2;
  config.pipeline.shard_size = 64;
  config.aggregator.num_shards = 2;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed", "temperature"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100)),
              localdb::Value(static_cast<double>((i * 7) % 100))});
  }
  RunSnapshot snapshot;
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(static_cast<double>((i * 13) % 100)),
                      localdb::Value(static_cast<double>((i * 7) % 100))});
    }
    snapshot.epochs.push_back(sys.RunEpoch(now));
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  snapshot.results = sys.TakeResults();
  CaptureTopics(sys, snapshot);
  return snapshot;
}

// Anchor invariant: a multi-query run with exactly one query is observably
// identical — results, per-epoch stats, every broker topic counter — to
// the classic single-query SubmitQuery path.
TEST(MultiQueryTest, OneQueryConfigListMatchesLegacySubmitExactly) {
  const RunSnapshot legacy =
      RunScenario(2, /*pipeline_depth=*/2, /*agg_shards=*/2);
  // Same scenario, but the query arrives via the config's query list.
  SystemConfig config;
  config.num_clients = 400;
  config.num_proxies = 3;
  config.seed = 99;
  config.queries = {{SpeedQuery(), SpeedParams()}};
  config.pipeline.num_worker_threads = 2;
  config.pipeline.depth = 2;
  config.pipeline.shard_size = 64;
  config.aggregator.num_shards = 2;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100))});
  }
  RunSnapshot multi;
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(static_cast<double>((i * 13) % 100))});
    }
    multi.epochs.push_back(sys.RunEpoch(now));
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  multi.results = sys.TakeResults();
  CaptureTopics(sys, multi);
  ExpectSnapshotsIdentical(legacy, multi);
}

// With two concurrent queries the dataflow must still be bit-identical at
// one worker and at several, and equal to the recorded golden output.
TEST(MultiQueryTest, TwoQueryRunMatchesGoldenAtEveryWorkerCount) {
  const std::vector<SystemConfig::QuerySpec> queries = {
      {SpeedQuery(), SpeedParams()}, {TempQuery(), TempParams()}};
  const RunSnapshot sequential = RunMultiScenario(queries, 1);
  EXPECT_EQ(SnapshotDigest(sequential), kTwoQueryGolden);
  for (const size_t workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const RunSnapshot parallel = RunMultiScenario(queries, workers);
    ExpectSnapshotsIdentical(sequential, parallel);
    EXPECT_EQ(SnapshotDigest(parallel), kTwoQueryGolden);
  }
}

// Query isolation: each query's results in a joint 2-query run are
// bit-identical to a run where it is the only query registered — the
// shared sampling draw plus per-query randomization streams guarantee no
// cross-query interference. Lane topic traffic must match too.
TEST(MultiQueryTest, EachQueryMatchesItsIsolatedRun) {
  const RunSnapshot joint = RunMultiScenario(
      {{SpeedQuery(), SpeedParams()}, {TempQuery(), TempParams()}}, 2);
  const std::vector<SystemConfig::QuerySpec> solos[] = {
      {{SpeedQuery(), SpeedParams()}}, {{TempQuery(), TempParams()}}};
  for (const auto& solo_spec : solos) {
    const uint64_t qid = solo_spec[0].query.query_id;
    SCOPED_TRACE("query=" + std::to_string(qid));
    const RunSnapshot solo = RunMultiScenario(solo_spec, 2);

    // Results for this query, in order, bit for bit.
    std::vector<const aggregator::WindowedResult*> joint_q;
    for (const auto& r : joint.results) {
      if (r.query_id == qid) {
        joint_q.push_back(&r);
      }
    }
    ASSERT_EQ(joint_q.size(), solo.results.size());
    ASSERT_GT(solo.results.size(), 0u);
    for (size_t w = 0; w < solo.results.size(); ++w) {
      const auto& a = solo.results[w];
      const auto& b = *joint_q[w];
      EXPECT_EQ(b.window, a.window);
      EXPECT_EQ(b.result.participants, a.result.participants);
      EXPECT_EQ(b.result.sampling_fraction, a.result.sampling_fraction);
      ASSERT_EQ(b.result.buckets.size(), a.result.buckets.size());
      for (size_t i = 0; i < a.result.buckets.size(); ++i) {
        EXPECT_EQ(b.result.buckets[i].estimate.value,
                  a.result.buckets[i].estimate.value);
        EXPECT_EQ(b.result.buckets[i].estimate.error,
                  a.result.buckets[i].estimate.error);
        EXPECT_EQ(b.result.buckets[i].randomized_count,
                  a.result.buckets[i].randomized_count);
      }
    }

    // This query's lane topics carried identical traffic in both runs.
    const std::string suffix_in = ".q" + std::to_string(qid) + ".in";
    const std::string suffix_out = ".q" + std::to_string(qid) + ".out";
    size_t lanes_checked = 0;
    for (size_t t = 0; t < joint.topic_names.size(); ++t) {
      const std::string& name = joint.topic_names[t];
      if (!name.ends_with(suffix_in) && !name.ends_with(suffix_out)) {
        continue;
      }
      const auto it = std::find(solo.topic_names.begin(),
                                solo.topic_names.end(), name);
      ASSERT_NE(it, solo.topic_names.end()) << name;
      const auto& solo_m =
          solo.topic_metrics[it - solo.topic_names.begin()];
      EXPECT_EQ(joint.topic_metrics[t].records_in, solo_m.records_in)
          << name;
      EXPECT_EQ(joint.topic_metrics[t].bytes_in, solo_m.bytes_in) << name;
      ++lanes_checked;
    }
    EXPECT_EQ(lanes_checked, 6u);  // 3 proxies x {in, out}
  }
}

// Admission control at the system surface: a duplicate QID is rejected, and
// UpdateParams refuses a QID that was never submitted.
TEST(MultiQueryTest, DuplicateSubmitAndUnknownQueryUpdateAreRejected) {
  SystemConfig config;
  config.num_clients = 4;
  PrivApproxSystem sys(config);
  sys.SubmitQuery(SpeedQuery(), SpeedParams());
  EXPECT_THROW(sys.SubmitQuery(SpeedQuery(), SpeedParams()),
               std::invalid_argument);
  sys.SubmitQuery(TempQuery(), TempParams());
  EXPECT_EQ(sys.num_queries(), 2u);
  EXPECT_THROW(sys.UpdateParams(3, SpeedParams()), std::logic_error);
  EXPECT_NO_THROW(sys.UpdateParams(1, SpeedParams()));
}

// The privacy-budget manager at the system surface: under a finite fleet
// cap the second query is admitted with a reduced sampling fraction, that
// reduced s is what every one of its QueryResults reports, and a third
// query that cannot fit even at the sampling floor is refused while the
// admitted queries keep producing windows.
TEST(MultiQueryTest, BudgetCapDownsamplesAndSurfacesReducedSampling) {
  const double eps_speed = core::EpsilonZk(SpeedParams().randomization,
                                           SpeedParams().sampling_fraction);
  SystemConfig config;
  config.num_clients = 200;
  config.num_proxies = 2;
  config.seed = 7;
  config.budget.max_epsilon_zk = eps_speed + 0.4;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed", "temperature"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100)),
              localdb::Value(static_cast<double>((i * 7) % 100))});
  }

  // Query 1 fits as requested; query 2 is down-sampled onto the 0.4 of
  // zero-knowledge budget that remains.
  const core::ExecutionParams speed_admitted =
      sys.SubmitQuery(SpeedQuery(), SpeedParams());
  EXPECT_EQ(speed_admitted.sampling_fraction,
            SpeedParams().sampling_fraction);
  const core::ExecutionParams temp_admitted =
      sys.SubmitQuery(TempQuery(), TempParams());
  EXPECT_LT(temp_admitted.sampling_fraction, TempParams().sampling_fraction);
  EXPECT_EQ(temp_admitted.randomization.p, TempParams().randomization.p);
  EXPECT_EQ(temp_admitted.randomization.q, TempParams().randomization.q);
  EXPECT_NEAR(core::EpsilonZk(temp_admitted.randomization,
                              temp_admitted.sampling_fraction),
              0.4, 1e-9);

  // The fleet budget is exhausted: a third query is refused outright, and
  // the refusal leaves the ledger untouched.
  const core::Query third = core::QueryBuilder()
                                .WithId(3)
                                .WithSql("SELECT speed FROM vehicle")
                                .WithAnswerFormat(
                                    core::AnswerFormat::UniformNumeric(
                                        0, 100, 10, true))
                                .WithFrequencyMs(5000)
                                .WithWindowMs(10000)
                                .WithSlideMs(10000)
                                .Build();
  EXPECT_THROW(sys.SubmitQuery(third, SpeedParams()),
               core::BudgetExceededError);
  EXPECT_EQ(sys.num_queries(), 2u);
  EXPECT_NEAR(sys.budget_manager().spent(), config.budget.max_epsilon_zk,
              1e-9);

  // Both admitted queries keep running, and query 2's fired windows report
  // the reduced sampling fraction the estimator actually de-biased with.
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(static_cast<double>((i * 13) % 100)),
                      localdb::Value(static_cast<double>((i * 7) % 100))});
    }
    sys.RunEpoch(now);
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  size_t speed_windows = 0;
  size_t temp_windows = 0;
  for (const auto& windowed : sys.TakeResults()) {
    if (windowed.query_id == 1) {
      ++speed_windows;
      EXPECT_EQ(windowed.result.sampling_fraction,
                speed_admitted.sampling_fraction);
    } else {
      ASSERT_EQ(windowed.query_id, 2u);
      ++temp_windows;
      EXPECT_EQ(windowed.result.sampling_fraction,
                temp_admitted.sampling_fraction);
    }
  }
  EXPECT_GT(speed_windows, 0u);
  EXPECT_GT(temp_windows, 0u);
}

}  // namespace
}  // namespace privapprox::system
