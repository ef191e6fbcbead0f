// The PR's acceptance criterion: a 2-proxy, 1-aggregator deployment over
// real loopback TCP sockets produces bit-identical query results to the
// in-process run — including per-query under the multi-query runtime.
//
// The daemons run as in-process objects (each TcpBusServer owns its epoll
// thread), but every byte between fleet, proxies, and aggregator crosses a
// real socket: shares are produced over the wire into proxy lane topics,
// the aggregator joins by polling those topics through TcpBusClients, and
// results come back serialized. The reference run is a plain
// PrivApproxSystem (streaming pipeline, worker pool) over the same seed and
// databases; comparison is on result_wire bytes, where every double is its
// raw IEEE-754 bit pattern.

// Durability: a non-empty PRIVAPPROX_TEST_DURABILITY environment variable
// (an fsync policy name — CI uses "always") reruns every deployment in this
// file with durable daemons on scratch data dirs, proving the spill layer
// changes no result bytes. The restart tests at the bottom go further: they
// destroy and recreate one daemon mid-epoch — same port, same data dir —
// and require the recovered deployment to converge to the uninterrupted
// run's exact bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/query.h"
#include "deploy/aggregator_daemon.h"
#include "deploy/fleet_driver.h"
#include "deploy/proxy_daemon.h"
#include "deploy/result_wire.h"
#include "localdb/database.h"
#include "storage/partition_log.h"
#include "system/system.h"
#include "transport/tcp_bus.h"
#include "transport/wire.h"

namespace privapprox::deploy {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    std::random_device rd;
    path_ = fs::temp_directory_path() /
            ("privapprox_e2e_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + "_" + std::to_string(rd()));
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// The CI durability leg: PRIVAPPROX_TEST_DURABILITY=<fsync policy> makes
// every deployment in this file durable. Empty/unset = memory-only
// (the default tier-1 run).
storage::FsyncPolicy EnvFsyncPolicy(bool& enabled) {
  const char* env = std::getenv("PRIVAPPROX_TEST_DURABILITY");
  enabled = env != nullptr && *env != '\0';
  return enabled ? storage::ParseFsyncPolicy(env)
                 : storage::FsyncPolicy::kNever;
}

// Which daemon (if any) a deployment kill-and-restarts, and when.
struct RestartSpec {
  enum Target { kNone, kProxy0, kAggregator };
  Target target = kNone;
  size_t epoch = 1;  // restart fires after this epoch's shares are produced
};

constexpr size_t kClients = 120;
constexpr size_t kProxies = 2;
constexpr uint64_t kSeed = 42;
constexpr size_t kEpochs = 3;

core::Query SpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(1000)
      .WithSlideMs(1000)
      .Build();
}

core::Query FareQuery() {
  return core::QueryBuilder()
      .WithId(2)
      .WithSql("SELECT fare FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 50, 5, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(2000)
      .WithSlideMs(2000)
      .Build();
}

core::ExecutionParams RandomizedParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.9;
  params.randomization = {0.85, 0.5};
  return params;
}

void FillDatabase(localdb::Database& db, size_t client_index) {
  db.CreateTable("vehicle", {"speed", "fare"});
  db.GetTable("vehicle").Insert(
      500, {localdb::Value(static_cast<double>((client_index * 7) % 100)),
            localdb::Value(static_cast<double>((client_index * 3) % 50))});
}

// One full socket deployment: 2 proxy daemons + 1 aggregator daemon on
// ephemeral loopback ports, driven by a FleetDriver. Returns the results
// stream after `kEpochs` epochs and a flush.
//
// `force_durable` makes the deployment durable even without the env var
// (the restart tests need the disk state). With a restart spec, the chosen
// daemon is destroyed and recreated — same port, same data dir — from the
// after-produce seam of the spec's epoch, exactly where the chaos CI job
// lands its kill -9.
std::vector<aggregator::WindowedResult> RunSocketDeployment(
    const std::vector<core::Query>& queries,
    RestartSpec restart = RestartSpec{}, bool force_durable = false) {
  bool durable_env = false;
  const storage::FsyncPolicy env_policy = EnvFsyncPolicy(durable_env);
  const bool durable = durable_env || force_durable;
  TempDir data_root;
  storage::PartitionLogOptions log_options;
  log_options.fsync =
      durable_env ? env_policy : storage::FsyncPolicy::kAlways;

  std::vector<std::unique_ptr<ProxyDaemon>> proxyds;
  std::vector<ProxyDaemonConfig> proxy_configs;
  std::vector<Endpoint> proxy_endpoints;
  for (size_t j = 0; j < kProxies; ++j) {
    ProxyDaemonConfig config;
    config.proxy_index = j;
    if (durable) {
      config.data_dir =
          (data_root.path() / ("proxyd" + std::to_string(j))).string();
      config.log = log_options;
    }
    proxyds.push_back(std::make_unique<ProxyDaemon>(config));
    proxyds.back()->Start();
    // Pin the bound port so a restarted daemon comes back at the same
    // endpoint the fleet and aggregator dialed.
    config.port = proxyds.back()->port();
    proxy_configs.push_back(config);
    proxy_endpoints.push_back(Endpoint{"127.0.0.1", proxyds.back()->port()});
  }
  AggregatorDaemonConfig agg_config;
  agg_config.proxies = proxy_endpoints;
  agg_config.population = kClients;
  if (durable) {
    agg_config.data_dir = (data_root.path() / "aggregatord").string();
    agg_config.log = log_options;
  }
  auto aggregatord = std::make_unique<AggregatorDaemon>(agg_config);
  aggregatord->Start();
  agg_config.port = aggregatord->port();

  FleetDriverConfig fleet_config;
  fleet_config.num_clients = kClients;
  fleet_config.seed = kSeed;
  fleet_config.proxies = proxy_endpoints;
  fleet_config.aggregator = Endpoint{"127.0.0.1", aggregatord->port()};

  size_t current_epoch = 0;
  bool restarted = false;
  if (restart.target != RestartSpec::kNone) {
    // The restarted daemon costs at most one failed control RPC per
    // poisoned connection; retries re-dial.
    fleet_config.control_retries = 3;
    fleet_config.after_produce_hook = [&] {
      if (restarted || current_epoch != restart.epoch) {
        return;
      }
      restarted = true;
      if (restart.target == RestartSpec::kProxy0) {
        proxyds[0].reset();
        proxyds[0] = std::make_unique<ProxyDaemon>(proxy_configs[0]);
        proxyds[0]->Start();
        ASSERT_EQ(proxyds[0]->port(), proxy_configs[0].port);
      } else {
        aggregatord.reset();
        aggregatord = std::make_unique<AggregatorDaemon>(agg_config);
        aggregatord->Start();
        ASSERT_EQ(aggregatord->port(), agg_config.port);
      }
    };
  }

  FleetDriver fleet(fleet_config);
  for (size_t i = 0; i < fleet.num_clients(); ++i) {
    FillDatabase(fleet.client(i).database(), i);
  }
  for (const core::Query& query : queries) {
    fleet.SubmitQuery(query, RandomizedParams());
  }
  for (size_t e = 0; e < kEpochs; ++e) {
    current_epoch = e;
    const FleetEpochStats stats =
        fleet.RunEpoch(static_cast<int64_t>(1000 * (e + 1)));
    if (restart.target == RestartSpec::kNone) {
      // Conservation over the wire: everything sent was forwarded and
      // consumed (loopback TCP loses nothing). A restarted aggregator
      // legitimately re-consumes, so the per-epoch counts don't apply.
      EXPECT_EQ(stats.shares_forwarded, stats.shares_sent);
      EXPECT_EQ(stats.shares_consumed, stats.shares_sent);
    }
  }
  if (restart.target != RestartSpec::kNone) {
    EXPECT_TRUE(restarted) << "restart never fired";
  }
  fleet.Flush();
  return fleet.TakeResults();
}

// The in-process reference over identical inputs (streaming pipeline and
// thread pool — the default mode, pinned bit-identical to the barrier path
// by parallel_epoch_test).
std::vector<aggregator::WindowedResult> RunInProcessReference(
    const std::vector<core::Query>& queries) {
  system::SystemConfig config;
  config.num_clients = kClients;
  config.num_proxies = kProxies;
  config.seed = kSeed;
  system::PrivApproxSystem sys(config);
  for (size_t i = 0; i < kClients; ++i) {
    FillDatabase(sys.client(i).database(), i);
  }
  for (const core::Query& query : queries) {
    sys.SubmitQuery(query, RandomizedParams());
  }
  for (size_t e = 0; e < kEpochs; ++e) {
    sys.RunEpoch(static_cast<int64_t>(1000 * (e + 1)));
  }
  sys.Flush();
  return sys.TakeResults();
}

TEST(SocketDeploymentTest, SingleQueryMatchesInProcessBitForBit) {
  const std::vector<core::Query> queries = {SpeedQuery()};
  const std::vector<uint8_t> socket_wire =
      SerializeResults(RunSocketDeployment(queries));
  const std::vector<uint8_t> inproc_wire =
      SerializeResults(RunInProcessReference(queries));
  ASSERT_FALSE(socket_wire.empty());
  EXPECT_EQ(socket_wire, inproc_wire);
}

TEST(SocketDeploymentTest, MultiQueryMatchesInProcessPerQuery) {
  const std::vector<core::Query> queries = {SpeedQuery(), FareQuery()};
  const std::vector<aggregator::WindowedResult> socket_results =
      RunSocketDeployment(queries);
  const std::vector<aggregator::WindowedResult> inproc_results =
      RunInProcessReference(queries);

  // Whole-stream equality...
  EXPECT_EQ(SerializeResults(socket_results),
            SerializeResults(inproc_results));

  // ...and per-query bit-identity under the multi-query runtime: each QID's
  // result subsequence matches independently.
  for (const uint64_t qid : {uint64_t{1}, uint64_t{2}}) {
    std::vector<aggregator::WindowedResult> socket_lane, inproc_lane;
    for (const auto& result : socket_results) {
      if (result.query_id == qid) {
        socket_lane.push_back(result);
      }
    }
    for (const auto& result : inproc_results) {
      if (result.query_id == qid) {
        inproc_lane.push_back(result);
      }
    }
    ASSERT_FALSE(socket_lane.empty()) << "query " << qid;
    EXPECT_EQ(SerializeResults(socket_lane), SerializeResults(inproc_lane))
        << "query " << qid;
  }
}

TEST(SocketDeploymentTest, RerunningTheSocketDeploymentIsDeterministic) {
  const std::vector<core::Query> queries = {SpeedQuery()};
  EXPECT_EQ(SerializeResults(RunSocketDeployment(queries)),
            SerializeResults(RunSocketDeployment(queries)));
}

// ---------------------------------------------------------- crash recovery

// The durable acceptance gate, in-process edition (the chaos CI job does
// the same with kill -9 across real processes): a proxy daemon torn down
// and recovered from disk mid-epoch yields the exact bytes of an
// uninterrupted durable run — which the DurableResultsMatchMemoryOnly gate
// already pins to the memory-only bytes.
TEST(SocketRestartTest, ProxyRestartMidEpochConvergesBitForBit) {
  const std::vector<core::Query> queries = {SpeedQuery(), FareQuery()};
  const std::vector<uint8_t> reference =
      SerializeResults(RunSocketDeployment(queries, RestartSpec{},
                                           /*force_durable=*/true));
  RestartSpec restart;
  restart.target = RestartSpec::kProxy0;
  restart.epoch = 1;
  const std::vector<uint8_t> interrupted = SerializeResults(
      RunSocketDeployment(queries, restart, /*force_durable=*/true));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(interrupted, reference);
}

// Same for the aggregator: its query journal re-registers the lanes and its
// consumers re-drain the durable proxy streams from offset zero; windows
// only fire at Flush, so the interrupted run converges.
TEST(SocketRestartTest, AggregatorRestartMidEpochConvergesBitForBit) {
  const std::vector<core::Query> queries = {SpeedQuery()};
  const std::vector<uint8_t> reference =
      SerializeResults(RunSocketDeployment(queries, RestartSpec{},
                                           /*force_durable=*/true));
  RestartSpec restart;
  restart.target = RestartSpec::kAggregator;
  restart.epoch = 1;
  const std::vector<uint8_t> interrupted = SerializeResults(
      RunSocketDeployment(queries, restart, /*force_durable=*/true));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(interrupted, reference);
}

// A durable socket deployment with no interruption produces the same bytes
// as the memory-only one — the spill layer is invisible to results.
TEST(SocketRestartTest, DurableDeploymentMatchesMemoryOnly) {
  const std::vector<core::Query> queries = {SpeedQuery()};
  EXPECT_EQ(SerializeResults(RunSocketDeployment(queries, RestartSpec{},
                                                 /*force_durable=*/true)),
            SerializeResults(RunInProcessReference(queries)));
}

// Upgrade path: a data dir written before proxies dropped their QID-less
// topic pair still holds (empty) "proxy0.in"/"proxy0.out" directories next
// to its lanes. A daemon opened on it recovers them as inert topics,
// rediscovers lane 7 from its topic names, forwards the lane's pending
// records, and never writes to the legacy pair.
TEST(SocketRestartTest, ProxyDaemonOpensDataDirWithLegacyTopics) {
  constexpr size_t kPartitions = 4;
  constexpr uint64_t kPending = 25;
  TempDir data_root;
  const fs::path dir = data_root.path() / "proxyd0";
  {
    broker::Broker old;
    old.EnableDurability({dir, {}});
    for (const char* name : {"proxy0.in", "proxy0.out", "proxy0.q7.out"}) {
      old.CreateTopic(name, kPartitions);
    }
    old.CreateTopic("proxy0.query.in", 1);
    old.CreateTopic("proxy0.query.out", 1);
    broker::Topic& lane_in = old.CreateTopic("proxy0.q7.in", kPartitions);
    for (uint64_t mid = 0; mid < kPending; ++mid) {
      lane_in.Append(mid, std::vector<uint8_t>(12, static_cast<uint8_t>(mid)),
                     1000);
    }
  }

  ProxyDaemonConfig config;
  config.proxy_index = 0;
  config.num_partitions = kPartitions;
  config.data_dir = dir.string();
  ProxyDaemon daemon(config);
  daemon.Start();
  transport::TcpBusClientConfig client_config;
  client_config.port = daemon.port();
  transport::TcpBusClient bus(client_config);

  const auto total = [&bus](const std::string& topic) {
    uint64_t sum = 0;
    for (size_t p = 0; p < kPartitions; ++p) {
      sum += bus.EndOffset(topic, p);
    }
    return sum;
  };
  const std::vector<uint8_t> snapshot = bus.Control("snapshot_offsets");
  EXPECT_NE(std::string(snapshot.begin(), snapshot.end()).find("lane q7 "),
            std::string::npos);
  EXPECT_EQ(transport::WireReader(bus.Control("forward_lanes")).TakeU64(),
            kPending);
  EXPECT_EQ(total("proxy0.q7.out"), kPending);
  EXPECT_EQ(transport::WireReader(bus.Control("forward_lanes")).TakeU64(), 0u);
  EXPECT_EQ(total("proxy0.in"), 0u);
  EXPECT_EQ(total("proxy0.out"), 0u);
  daemon.Stop();
}

}  // namespace
}  // namespace privapprox::deploy
