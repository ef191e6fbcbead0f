// End-to-end integration tests: the full client -> proxy -> aggregator
// pipeline via PrivApproxSystem, on synthetic and case-study workloads,
// including the budget path, historical analytics, and inversion mode.

#include <gtest/gtest.h>

#include <cmath>

#include "core/privacy.h"
#include "system/system.h"
#include "workload/electricity.h"
#include "workload/taxi.h"

namespace privapprox::system {
namespace {

core::Query SpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(10000)
      .WithSlideMs(10000)
      .Build();
}

core::ExecutionParams ExactParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {1.0, 0.5};
  return params;
}

void LoadSpeed(PrivApproxSystem& sys, size_t index, double speed) {
  auto& db = sys.client(index).database();
  if (!db.HasTable("vehicle")) {
    db.CreateTable("vehicle", {"speed"});
  }
  db.GetTable("vehicle").Insert(500, {localdb::Value(speed)});
}

TEST(SystemTest, MetricsExpositionCoversPipelineFamilies) {
  SystemConfig config;
  config.num_clients = 30;
  config.num_proxies = 2;
  config.metrics.timeline = true;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    LoadSpeed(sys, i, 25.0);
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  sys.RunEpoch(1000);

  const std::string text = sys.MetricsText();
  for (const char* family :
       {"privapprox_epochs_total", "privapprox_participants_total",
        "privapprox_shares_sent_total", "privapprox_shares_forwarded_total",
        "privapprox_shares_consumed_total",
        "privapprox_malformed_dropped_total", "privapprox_stage_ns",
        "privapprox_proxy_received_total", "privapprox_proxy_forwarded_total",
        "privapprox_agg_decode_ns", "privapprox_agg_join_ns",
        "privapprox_topic_records_in", "privapprox_topic_slab_used_bytes",
        "privapprox_channel_depth_hwm"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  const std::string json = sys.MetricsJson();
  EXPECT_NE(json.find("\"privapprox_epochs_total\":1"), std::string::npos);
  // The timeline captured the epoch's stage spans.
  const std::string trace = sys.TimelineJson();
  EXPECT_NE(trace.find("\"name\":\"epoch\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"answer_shard\""), std::string::npos);
}

TEST(SystemTest, MetricsDisabledKeepsCoreCountersOnly) {
  SystemConfig config;
  config.num_clients = 10;
  config.metrics.enabled = false;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    LoadSpeed(sys, i, 25.0);
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  const EpochStats stats = sys.RunEpoch(1000);
  EXPECT_EQ(stats.participants, 10u);
  const std::string text = sys.MetricsText();
  EXPECT_NE(text.find("privapprox_epochs_total 1"), std::string::npos);
  EXPECT_EQ(text.find("privapprox_stage_ns"), std::string::npos);
  EXPECT_EQ(text.find("privapprox_agg_decode_ns"), std::string::npos);
  // Timeline off by default: no spans recorded.
  EXPECT_NE(sys.TimelineJson().find("\"traceEvents\":[]"), std::string::npos);
}

TEST(SystemTest, ValidatesConfig) {
  SystemConfig config;
  config.num_clients = 0;
  EXPECT_THROW(PrivApproxSystem{config}, std::invalid_argument);
  config.num_clients = 1;
  config.num_proxies = 1;
  EXPECT_THROW(PrivApproxSystem{config}, std::invalid_argument);
}

TEST(SystemTest, RunEpochWithoutQueryThrows) {
  SystemConfig config;
  config.num_clients = 2;
  PrivApproxSystem sys(config);
  EXPECT_THROW(sys.RunEpoch(0), std::logic_error);
}

TEST(SystemTest, ExactPipelineEndToEnd) {
  SystemConfig config;
  config.num_clients = 60;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 60; ++i) {
    LoadSpeed(sys, i, i < 45 ? 25.0 : 55.0);  // 75% bucket 2, 25% bucket 5
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  const EpochStats stats = sys.RunEpoch(5000);
  EXPECT_EQ(stats.participants, 60u);
  EXPECT_EQ(stats.shares_sent, 120u);
  EXPECT_EQ(stats.shares_forwarded, 120u);
  EXPECT_EQ(stats.shares_consumed, 120u);
  sys.AdvanceWatermark(10000);
  ASSERT_EQ(sys.results().size(), 1u);
  const auto& result = sys.results()[0].result;
  EXPECT_NEAR(result.buckets[2].estimate.value, 45.0, 1e-9);
  EXPECT_NEAR(result.buckets[5].estimate.value, 15.0, 1e-9);
}

TEST(SystemTest, RandomizedPipelineDebiasesAccurately) {
  SystemConfig config;
  config.num_clients = 4000;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 4000; ++i) {
    LoadSpeed(sys, i, i < 2400 ? 25.0 : 55.0);  // 60% / 40%
  }
  core::ExecutionParams params;
  params.sampling_fraction = 0.8;
  params.randomization = {0.7, 0.6};
  sys.SubmitQuery(SpeedQuery(), params);
  sys.RunEpoch(5000);
  sys.Flush();
  ASSERT_EQ(sys.results().size(), 1u);
  const auto& result = sys.results()[0].result;
  EXPECT_NEAR(result.buckets[2].estimate.value, 2400.0, 250.0);
  EXPECT_NEAR(result.buckets[5].estimate.value, 1600.0, 250.0);
  // Both within the stated error bound (generous multiple).
  EXPECT_LE(std::fabs(result.buckets[2].estimate.value - 2400.0),
            2.0 * result.buckets[2].estimate.error);
}

TEST(SystemTest, SamplingReducesParticipantsAndTraffic) {
  SystemConfig config;
  config.num_clients = 2000;
  config.seed = 5;
  PrivApproxSystem full(config);
  PrivApproxSystem sampled(config);
  for (size_t i = 0; i < 2000; ++i) {
    LoadSpeed(full, i, 25.0);
    LoadSpeed(sampled, i, 25.0);
  }
  core::ExecutionParams params = ExactParams();
  full.SubmitQuery(SpeedQuery(), params);
  params.sampling_fraction = 0.4;
  params.randomization = {0.9, 0.6};
  sampled.SubmitQuery(SpeedQuery(), params);
  const EpochStats full_stats = full.RunEpoch(5000);
  const EpochStats sampled_stats = sampled.RunEpoch(5000);
  EXPECT_EQ(full_stats.participants, 2000u);
  EXPECT_NEAR(static_cast<double>(sampled_stats.participants), 800.0, 80.0);
  EXPECT_LT(sampled.ClientToProxyBytes(), full.ClientToProxyBytes());
}

TEST(SystemTest, BudgetPathChoosesParamsAndRuns) {
  SystemConfig config;
  config.num_clients = 500;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 500; ++i) {
    LoadSpeed(sys, i, 25.0);
  }
  core::QueryBudget budget;
  budget.max_epsilon = 1.5;
  const core::ExecutionParams params =
      sys.SubmitQuery(SpeedQuery(), budget, 0.6);
  const double eps = core::AmplifyBySampling(
      core::EpsilonDp(params.randomization), params.sampling_fraction);
  EXPECT_LE(eps, 1.5 + 1e-9);
  sys.RunEpoch(5000);
  sys.Flush();
  EXPECT_EQ(sys.results().size(), 1u);
}

TEST(SystemTest, MultiEpochSlidingWindows) {
  SystemConfig config;
  config.num_clients = 30;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 30; ++i) {
    LoadSpeed(sys, i, 25.0);
  }
  // Window 10s sliding 5s.
  const core::Query query = core::QueryBuilder()
                                .WithId(1)
                                .WithSql("SELECT speed FROM vehicle")
                                .WithAnswerFormat(
                                    core::AnswerFormat::UniformNumeric(
                                        0, 100, 10, true))
                                .WithFrequencyMs(5000)
                                .WithWindowMs(10000)
                                .WithSlideMs(5000)
                                .Build();
  sys.SubmitQuery(query, ExactParams());
  for (int64_t now = 5000; now <= 30000; now += 5000) {
    // Keep each client's data fresh so every epoch has an answer.
    for (size_t i = 0; i < 30; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(25.0)});
    }
    sys.RunEpoch(now);
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  // Sliding windows: each epoch's answers land in two windows.
  EXPECT_GE(sys.results().size(), 5u);
  for (const auto& windowed : sys.results()) {
    EXPECT_GT(windowed.result.participants, 0u);
  }
}

TEST(SystemTest, HistoricalAnalyticsOverCollectedAnswers) {
  SystemConfig config;
  config.num_clients = 100;
  config.historical.enabled = true;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 100; ++i) {
    LoadSpeed(sys, i, i < 70 ? 25.0 : 55.0);
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  sys.RunEpoch(5000);
  sys.Flush();
  const core::QueryResult batch =
      sys.RunHistorical(0, 10000, aggregator::BatchQueryBudget{1.0});
  EXPECT_EQ(batch.participants, 100u);
  EXPECT_NEAR(batch.buckets[2].estimate.value, 70.0, 1e-9);
  EXPECT_NEAR(batch.buckets[5].estimate.value, 30.0, 1e-9);
}

TEST(SystemTest, HistoricalDisabledThrows) {
  SystemConfig config;
  config.num_clients = 2;
  PrivApproxSystem sys(config);
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  EXPECT_THROW(sys.RunHistorical(0, 1, aggregator::BatchQueryBudget{1.0}),
               std::logic_error);
}

TEST(SystemTest, InvertedSystemRecoversCounts) {
  SystemConfig config;
  config.num_clients = 50;
  config.invert_answers = true;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 50; ++i) {
    LoadSpeed(sys, i, 25.0);  // everyone in bucket 2
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  sys.RunEpoch(5000);
  sys.Flush();
  ASSERT_EQ(sys.results().size(), 1u);
  EXPECT_NEAR(sys.results()[0].result.buckets[2].estimate.value, 50.0, 1e-6);
  EXPECT_NEAR(sys.results()[0].result.buckets[0].estimate.value, 0.0, 1e-6);
}

TEST(SystemTest, TakeResultsDrains) {
  SystemConfig config;
  config.num_clients = 5;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 5; ++i) {
    LoadSpeed(sys, i, 25.0);
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  sys.RunEpoch(5000);
  sys.Flush();
  EXPECT_EQ(sys.TakeResults().size(), 1u);
  EXPECT_TRUE(sys.results().empty());
}

TEST(SystemTest, TaxiCaseStudySmoke) {
  SystemConfig config;
  config.num_clients = 300;
  PrivApproxSystem sys(config);
  workload::TaxiGenerator generator(13);
  for (size_t i = 0; i < 300; ++i) {
    generator.PopulateClient(sys.client(i).database(), 3, 0, 5000);
  }
  const core::Query query =
      workload::TaxiGenerator::MakeDistanceQuery(9, 10000, 10000);
  core::ExecutionParams params;
  params.sampling_fraction = 0.9;
  params.randomization = {0.9, 0.3};
  sys.SubmitQuery(query, params);
  sys.RunEpoch(5000);
  sys.Flush();
  ASSERT_EQ(sys.results().size(), 1u);
  const auto& result = sys.results()[0].result;
  EXPECT_GT(result.participants, 200u);
  // The first bucket should hold roughly a third of the population.
  EXPECT_NEAR(result.buckets[0].estimate.value / 300.0, 0.3357, 0.15);
}

TEST(SystemTest, ElectricityCaseStudySmoke) {
  SystemConfig config;
  config.num_clients = 200;
  PrivApproxSystem sys(config);
  workload::ElectricityGenerator generator(17);
  const int64_t window = 30 * 60 * 1000;
  for (size_t i = 0; i < 200; ++i) {
    generator.PopulateClient(sys.client(i).database(), 0, window, 60 * 1000);
  }
  const core::Query query =
      workload::ElectricityGenerator::MakeUsageQuery(10, window, window);
  sys.SubmitQuery(query, ExactParams());
  sys.RunEpoch(window);
  sys.Flush();
  ASSERT_EQ(sys.results().size(), 1u);
  // Every household lands in exactly one bucket: totals must equal clients.
  double total = 0.0;
  for (const auto& bucket : sys.results()[0].result.buckets) {
    total += bucket.estimate.value;
  }
  EXPECT_NEAR(total, 200.0, 1e-6);
}

}  // namespace
}  // namespace privapprox::system
