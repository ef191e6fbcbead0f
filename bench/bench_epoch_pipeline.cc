// End-to-end epoch pipeline throughput at 1/2/4/N worker threads.
//
// Runs the full client -> proxy -> aggregator epoch loop (system/system.cc)
// on the Table 3 configuration — 100k clients, sampling fraction s=0.6,
// (p, q) = (0.9, 0.6), the 11-bucket speed query, two proxies — and reports
// clients/sec and shares/sec per thread count, with the speedup over the
// single-threaded run. The epoch dataflow is bit-deterministic at every
// worker count (tests/parallel_epoch_test.cc), so every row processes
// identical work. Each row also reports heap allocations per share across
// the timed epochs (this binary links the counting global allocator from
// common/alloc_counter.h), pinning down the zero-copy share path's
// allocation bill.
//
// The last line printed is a single JSON row, also appended to a trajectory
// file so later runs can diff epoch-throughput movement. Flags:
// --clients=N --epochs=N --reps=N --json-out=PATH --metrics=0|1
// --agg-shards=N --queries=N (defaults 100000 / 3 / 1 /
// BENCH_pipeline.json / 0 / 0 / 1; --json-out= empty disables the file
// append). --reps runs every row N times, interleaving the thread counts
// rep by rep so a slow host phase hits all of them alike; a row's
// "seconds" is the median over its reps (with "seconds_min" and
// "seconds_iqr" beside it), its rates are taken at the median, and the
// speedups compare medians. --metrics=1 turns on the
// full observability layer (stage histograms, per-proxy families, channel
// depth gauges) so CI can check its overhead stays under 5%; core counters
// are always on either way. --agg-shards pins the aggregator join shard
// count; 0 (the default) follows the worker thread count of each row, so
// every row is tagged with the shard count it actually ran. --queries runs
// N identical concurrent queries (QIDs 1..N) over the shared fleet, so a
// 2-query row shows the per-lane cost of the multi-query runtime; the JSON
// row carries a "queries" tag. The row is also tagged "simd" with the
// active crypto dispatch tier (common/simd_dispatch.h), so trajectory diffs
// attribute throughput movement to the PRIVAPPROX_SIMD setting in force.
// --transport=inproc|tcp (default inproc) picks the MessageBus backend:
// tcp runs the same fleet through real loopback sockets — two proxy
// daemons plus an aggregator daemon driven by a FleetDriver — and reports
// the loopback shares/sec figure as a single row; the JSON row carries a
// "transport" tag either way so trajectory diffs never mix the two.
// --durability=off|on (default off) spills every broker topic through the
// durable partition log (storage/partition_log.h) under a throwaway temp
// dir, with --fsync=never|on_rotate|every_n_records|always picking the
// sync policy — so the trajectory records what the durable write path
// costs at each policy. The JSON row carries "durability" and "fsync" tags
// so durable rows never mix with memory-only ones.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/alloc_counter.h"
#include "common/simd_dispatch.h"
#include "deploy/aggregator_daemon.h"
#include "deploy/fleet_driver.h"
#include "deploy/proxy_daemon.h"
#include "storage/partition_log.h"
#include "system/system.h"

using namespace privapprox;

namespace {

struct BenchConfig {
  size_t clients = 100000;
  size_t epochs = 3;
  size_t reps = 1;  // runs per row; the row reports their median
  std::string json_out = "BENCH_pipeline.json";
  bool metrics = false;   // full observability layer on (--metrics=1)
  size_t agg_shards = 0;  // aggregator join shards; 0 = worker thread count
  size_t queries = 1;     // concurrent queries sharing the fleet
  std::string transport = "inproc";  // "inproc" | "tcp" (loopback daemons)
  bool durability = false;      // spill topics through the durable log
  std::string fsync = "never";  // partition-log fsync policy when durable
};

// A throwaway data_dir for one durable bench row, wiped on scope exit so
// rows never replay each other's logs.
class ScratchDataDir {
 public:
  explicit ScratchDataDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("privapprox_bench_" + std::to_string(getpid()) + "_" + tag);
    std::filesystem::remove_all(path_);
  }
  ~ScratchDataDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

struct Row {
  // "streaming" for the in-process epoch dataflow (the tag older trajectory
  // rows carry too), "tcp" for the socket row.
  std::string label;
  size_t threads = 0;
  size_t agg_shards = 0;  // resolved aggregator shard count for this row
  // Timed-epoch wall time: median over the reps, their minimum and IQR.
  double seconds = 0.0;
  double seconds_min = 0.0;
  double seconds_iqr = 0.0;
  double clients_per_sec = 0.0;  // at the median
  double shares_per_sec = 0.0;
  // From the first rep (every rep does the same work).
  uint64_t participants = 0;
  uint64_t shares_consumed = 0;
  uint64_t heap_allocs = 0;  // across the timed epochs (counting allocator)
  double allocs_per_share = 0.0;
};

// Quantile `q` of ascending `sorted`, interpolating between order
// statistics.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

// Folds the reps of one row: counts from the first rep, seconds as the
// median with its minimum and IQR, rates at the median.
Row Summarize(const std::vector<Row>& reps, const BenchConfig& bench) {
  Row row = reps.front();
  std::vector<double> seconds;
  for (const Row& r : reps) {
    seconds.push_back(r.seconds);
  }
  std::sort(seconds.begin(), seconds.end());
  row.seconds = Quantile(seconds, 0.5);
  row.seconds_min = seconds.front();
  row.seconds_iqr = Quantile(seconds, 0.75) - Quantile(seconds, 0.25);
  const double total_clients =
      static_cast<double>(bench.clients) * static_cast<double>(bench.epochs);
  row.clients_per_sec = total_clients / row.seconds;
  row.shares_per_sec =
      static_cast<double>(row.shares_consumed) / row.seconds;
  return row;
}

core::Query SpeedQuery(uint64_t qid) {
  return core::QueryBuilder()
      .WithId(qid)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(60000)
      .WithSlideMs(60000)
      .Build();
}

// One rep of one in-process row: counts and timed seconds only
// (Summarize derives the rates).
Row RunOne(size_t threads, const BenchConfig& bench) {
  system::SystemConfig config;
  config.num_clients = bench.clients;
  config.num_proxies = 2;
  config.seed = 42;
  config.pipeline.num_worker_threads = threads;
  config.aggregator.num_shards = bench.agg_shards;
  config.metrics.enabled = bench.metrics;
  const ScratchDataDir data_dir("streaming_" + std::to_string(threads));
  if (bench.durability) {
    config.broker.data_dir = data_dir.str();
    config.broker.log.fsync = storage::ParseFsyncPolicy(bench.fsync);
  }
  system::PrivApproxSystem sys(config);
  for (size_t i = 0; i < bench.clients; ++i) {
    auto& db = sys.client(i).database();
    auto& table = db.CreateTable("vehicle", {"speed"});
    table.Insert(500,
                 {localdb::Value(static_cast<double>((i * 13) % 100))});
  }
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  // N concurrent queries over the same column: every query pays the full
  // RR/split/lane/join bill, so the row measures multi-query scaling.
  for (size_t q = 1; q <= bench.queries; ++q) {
    sys.SubmitQuery(SpeedQuery(q), params);
  }

  // Warm-up epoch: faults in lazily-built state outside the timed region.
  sys.RunEpoch(1000);

  Row row;
  row.label = "streaming";
  row.threads = sys.num_worker_threads();
  row.agg_shards =
      bench.agg_shards != 0 ? bench.agg_shards : sys.num_worker_threads();
  const uint64_t allocs_before = AllocCounter::Count();
  const auto start = std::chrono::steady_clock::now();
  for (size_t e = 0; e < bench.epochs; ++e) {
    const system::EpochStats stats =
        sys.RunEpoch(2000 + static_cast<int64_t>(e) * 1000);
    row.participants += stats.participants;
    row.shares_consumed += stats.shares_consumed;
  }
  const auto end = std::chrono::steady_clock::now();
  row.seconds = std::chrono::duration<double>(end - start).count();
  row.heap_allocs = AllocCounter::Count() - allocs_before;
  row.allocs_per_share =
      row.shares_consumed == 0
          ? 0.0
          : static_cast<double>(row.heap_allocs) /
                static_cast<double>(row.shares_consumed);
  return row;
}

// The same fleet/query configuration pushed through real loopback TCP: two
// proxy daemons and one aggregator daemon on ephemeral ports, driven by a
// FleetDriver. Single-threaded by construction (the daemons' epoll loops do
// the socket work; epoch sequencing is the driver thread), so the row is
// the loopback shares/sec figure, not a scaling curve.
Row RunOneTcp(const BenchConfig& bench) {
  const ScratchDataDir data_dir("tcp");
  std::vector<std::unique_ptr<deploy::ProxyDaemon>> proxyds;
  std::vector<deploy::Endpoint> proxy_endpoints;
  for (size_t j = 0; j < 2; ++j) {
    deploy::ProxyDaemonConfig config;
    config.proxy_index = j;
    if (bench.durability) {
      config.data_dir = data_dir.str() + "/proxyd" + std::to_string(j);
      config.log.fsync = storage::ParseFsyncPolicy(bench.fsync);
    }
    proxyds.push_back(std::make_unique<deploy::ProxyDaemon>(config));
    proxyds.back()->Start();
    proxy_endpoints.push_back(
        deploy::Endpoint{"127.0.0.1", proxyds.back()->port()});
  }
  deploy::AggregatorDaemonConfig agg_config;
  agg_config.proxies = proxy_endpoints;
  agg_config.population = bench.clients;
  agg_config.num_shards = bench.agg_shards == 0 ? 1 : bench.agg_shards;
  deploy::AggregatorDaemon aggregatord(agg_config);
  aggregatord.Start();

  deploy::FleetDriverConfig fleet_config;
  fleet_config.num_clients = bench.clients;
  fleet_config.seed = 42;
  fleet_config.proxies = proxy_endpoints;
  fleet_config.aggregator = deploy::Endpoint{"127.0.0.1", aggregatord.port()};
  deploy::FleetDriver fleet(fleet_config);
  for (size_t i = 0; i < bench.clients; ++i) {
    auto& db = fleet.client(i).database();
    auto& table = db.CreateTable("vehicle", {"speed"});
    table.Insert(500,
                 {localdb::Value(static_cast<double>((i * 13) % 100))});
  }
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  for (size_t q = 1; q <= bench.queries; ++q) {
    fleet.SubmitQuery(SpeedQuery(q), params);
  }

  // Warm-up epoch: faults in lazily-built lanes and socket buffers.
  fleet.RunEpoch(1000);

  Row row;
  row.label = "tcp";
  row.threads = 1;
  row.agg_shards = agg_config.num_shards;
  const uint64_t allocs_before = AllocCounter::Count();
  const auto start = std::chrono::steady_clock::now();
  for (size_t e = 0; e < bench.epochs; ++e) {
    const deploy::FleetEpochStats stats =
        fleet.RunEpoch(2000 + static_cast<int64_t>(e) * 1000);
    row.participants += stats.participants;
    row.shares_consumed += stats.shares_consumed;
  }
  const auto end = std::chrono::steady_clock::now();
  row.seconds = std::chrono::duration<double>(end - start).count();
  row.heap_allocs = AllocCounter::Count() - allocs_before;
  row.allocs_per_share =
      row.shares_consumed == 0
          ? 0.0
          : static_cast<double>(row.heap_allocs) /
                static_cast<double>(row.shares_consumed);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      bench.clients = static_cast<size_t>(std::atoll(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--epochs=", 9) == 0) {
      bench.epochs = static_cast<size_t>(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      bench.reps = static_cast<size_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      bench.json_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      bench.metrics = std::atoi(argv[i] + 10) != 0;
    } else if (std::strncmp(argv[i], "--agg-shards=", 13) == 0) {
      bench.agg_shards = static_cast<size_t>(std::atoll(argv[i] + 13));
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      bench.queries = static_cast<size_t>(std::atoll(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      bench.transport = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--durability=", 13) == 0) {
      bench.durability = std::strcmp(argv[i] + 13, "on") == 0;
      if (!bench.durability && std::strcmp(argv[i] + 13, "off") != 0) {
        std::fprintf(stderr, "--durability must be 'off' or 'on'\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--fsync=", 8) == 0) {
      bench.fsync = argv[i] + 8;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--clients=N] [--epochs=N] [--reps=N] "
                   "[--json-out=PATH] "
                   "[--metrics=0|1] [--agg-shards=N] [--queries=N] "
                   "[--transport=inproc|tcp] [--durability=off|on] "
                   "[--fsync=POLICY]\n",
                   argv[0]);
      return 1;
    }
  }
  if (bench.queries == 0) {
    std::fprintf(stderr, "--queries must be >= 1\n");
    return 1;
  }
  if (bench.reps == 0) {
    std::fprintf(stderr, "--reps must be >= 1\n");
    return 1;
  }
  if (bench.transport != "inproc" && bench.transport != "tcp") {
    std::fprintf(stderr, "--transport must be 'inproc' or 'tcp'\n");
    return 1;
  }
  try {
    storage::ParseFsyncPolicy(bench.fsync);  // validate before any row runs
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<size_t> thread_counts{1, 2, 4};
  if (hw > 4) {
    thread_counts.push_back(hw);
  }

  std::vector<Row> rows;
  if (bench.transport == "tcp") {
    std::printf(
        "Epoch pipeline throughput over loopback TCP (Table 3 config:\n"
        "%zu clients, s=0.6, p=0.9 q=0.6, 11 buckets, 2 proxy daemons +\n"
        "1 aggregator daemon on ephemeral ports, %zu concurrent queries;\n"
        "%zu timed epochs, median of %zu reps). Every share crosses a real\n"
        "socket.\n\n",
        bench.clients, bench.queries, bench.epochs, bench.reps);
    std::vector<Row> reps;
    for (size_t r = 0; r < bench.reps; ++r) {
      reps.push_back(RunOneTcp(bench));
    }
    rows.push_back(Summarize(reps, bench));
  } else {
    std::printf(
        "Epoch pipeline throughput (Table 3 config: %zu clients, s=0.6,\n"
        "p=0.9 q=0.6, 11 buckets, 2 proxies, %zu concurrent queries;\n"
        "%zu epochs per row, median of %zu reps).\n"
        "Host hardware_concurrency = %zu; thread counts beyond it time-slice\n"
        "one core and cannot speed up. 'speedup' is vs the 1-thread row.\n\n",
        bench.clients, bench.queries, bench.epochs, bench.reps, hw);
    std::vector<std::vector<Row>> reps(thread_counts.size());
    for (size_t r = 0; r < bench.reps; ++r) {
      for (size_t t = 0; t < thread_counts.size(); ++t) {
        reps[t].push_back(RunOne(thread_counts[t], bench));
      }
    }
    for (const std::vector<Row>& row_reps : reps) {
      rows.push_back(Summarize(row_reps, bench));
    }
  }
  std::printf("%10s %8s %10s %10s %10s %14s %14s %9s %12s\n", "mode",
              "threads", "seconds", "min", "iqr", "clients/sec", "shares/sec",
              "speedup", "allocs/share");
  for (const Row& row : rows) {
    std::printf(
        "%10s %8zu %10.3f %10.3f %10.3f %14.0f %14.0f %8.2fx %12.2f\n",
        row.label.c_str(), row.threads, row.seconds, row.seconds_min,
        row.seconds_iqr, row.clients_per_sec, row.shares_per_sec,
        rows.front().seconds / row.seconds, row.allocs_per_share);
  }

  // JSON trajectory row (one line, last on stdout; appended to the file).
  std::string json;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\":\"epoch_pipeline\",\"clients\":%zu,\"epochs\":%zu,"
                "\"reps\":%zu,\"queries\":%zu,\"transport\":\"%s\","
                "\"durability\":\"%s\",\"fsync\":\"%s\","
                "\"sampling\":0.6,\"hardware_concurrency\":%zu,\"metrics\":%d,"
                "\"simd\":\"%s\","
                "\"rows\":[",
                bench.clients, bench.epochs, bench.reps, bench.queries,
                bench.transport.c_str(), bench.durability ? "on" : "off",
                bench.durability ? bench.fsync.c_str() : "n/a", hw,
                bench.metrics ? 1 : 0, simd::IsaName(simd::ActiveIsa()));
  json += buf;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"mode\":\"%s\",\"threads\":%zu,\"agg_shards\":%zu,"
                  "\"seconds\":%.4f,\"seconds_min\":%.4f,"
                  "\"seconds_iqr\":%.4f,"
                  "\"clients_per_sec\":%.0f,\"shares_per_sec\":%.0f,"
                  "\"allocs_per_share\":%.3f}",
                  i == 0 ? "" : ",", row.label.c_str(), row.threads,
                  row.agg_shards, row.seconds, row.seconds_min,
                  row.seconds_iqr, row.clients_per_sec, row.shares_per_sec,
                  row.allocs_per_share);
    json += buf;
  }
  // Speedups of the median seconds over the 1-thread row (0 when the row
  // did not run, e.g. over TCP).
  const auto speedup = [&rows](size_t threads) {
    for (const Row& row : rows) {
      if (row.label == "streaming" && row.threads == threads) {
        return rows.front().seconds / row.seconds;
      }
    }
    return 0.0;
  };
  std::snprintf(buf, sizeof(buf),
                "],\"speedup_2_vs_1\":%.3f,\"speedup_4_vs_1\":%.3f}",
                speedup(2), speedup(4));
  json += buf;
  std::printf("\n%s\n", json.c_str());

  if (!bench.json_out.empty()) {
    if (std::FILE* f = std::fopen(bench.json_out.c_str(), "a")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "warning: cannot append to %s\n",
                   bench.json_out.c_str());
    }
  }
  return 0;
}
