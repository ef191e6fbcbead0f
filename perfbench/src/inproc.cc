// In-process passes: PrivApproxSystem (untraced) and the same components
// composed by hand (traced).

#include <memory>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "broker/broker.h"
#include "client/client.h"
#include "common/alloc_counter.h"
#include "core/query_wire.h"
#include "passes.h"
#include "proxy/proxy.h"
#include "system/system.h"
#include "transport/inproc_bus.h"

namespace perfbench {
namespace {

constexpr size_t kProxyPartitions = 4;  // what PrivApproxSystem gives each
                                        // proxy

std::string SetupTag(const Workload& workload, const char* pass, int rep) {
  return workload.name + "-" + pass + "-" + std::to_string(rep);
}

}  // namespace

PassResult RunSystemPass(const Workload& workload, const Options& options) {
  PassResult pass;
  const SetupPacer pacer(options);
  for (int i = 0;; ++i) {
    const NextSetup next = pacer.Next(pass);
    if (next == NextSetup::kDone) {
      break;
    }
    const uint64_t seed = SessionSeed(options.seed, i);
    const int64_t start_ns = NowNs();
    pa::system::SystemConfig config;
    config.num_clients = workload.clients;
    config.num_proxies = workload.proxies;
    config.seed = seed;
    config.pipeline.num_worker_threads = workload.workers;
    std::unique_ptr<ScratchDir> data_dir;
    if (workload.durable) {
      data_dir = std::make_unique<ScratchDir>(
          options, SetupTag(workload, "system", i));
      config.broker.data_dir = data_dir->path();
    }
    pa::system::PrivApproxSystem sys(config);
    ClientStreams streams(workload, seed, kTotalEpochs);
    for (const QuerySpec& spec : workload.queries) {
      sys.SubmitQuery(spec.query, spec.params);
    }
    pass.setup_s.push_back(static_cast<double>(NowNs() - start_ns) / 1e9);
    if (next == NextSetup::kSetupOnly) {
      continue;
    }

    // Registered on first use, so this returns the system's own counter.
    const pa::metrics::Counter& sent_total =
        sys.metrics_registry().GetCounter("privapprox_shares_sent_total", "");
    pa::engine::JoinStats join_before;
    uint64_t bytes_before = 0;
    EpochHooks hooks;
    hooks.run = [&](int epoch) {
      const int64_t now = EpochNowMs(epoch);
      const pa::system::EpochStats stats = sys.RunEpoch(now);
      sys.AdvanceWatermark(now + kPeriodMs);
      EpochOutcome outcome;
      outcome.results = sys.TakeResults();
      outcome.shares_sent = stats.shares_sent;
      outcome.participants = stats.participants;
      pass.malformed += stats.malformed_dropped;
      if (epoch >= kWarmupEpochs) {
        pass.timed_malformed += stats.malformed_dropped;
      }
      return outcome;
    };
    hooks.snapshot = [&](bool timed_start) {
      if (timed_start) {
        join_before = sys.aggregator().join_stats();
        bytes_before = sys.ClientToProxyBytes();
        return;
      }
      AddJoinDelta(join_before, sys.aggregator().join_stats(), pass);
      pass.client_bytes += sys.ClientToProxyBytes() - bytes_before;
    };
    hooks.shares_sent_so_far = [&] { return sent_total.Value(); };
    DriveEpochs(
        workload, streams,
        [&](size_t i) -> pa::client::Client& { return sys.client(i); },
        nullptr, hooks, pass);
  }
  return pass;
}

PassResult RunComposedPass(const Workload& workload, const Options& options,
                           Tracer& tracer) {
  PassResult pass;
  const size_t num_queries = workload.queries.size();
  const size_t num_proxies = workload.proxies;

  // Set-up, mirroring PrivApproxSystem's construction and SubmitQuery.
  std::unique_ptr<ScratchDir> data_dir;
  pa::broker::Broker broker;
  if (workload.durable) {
    data_dir =
        std::make_unique<ScratchDir>(options, SetupTag(workload, "traced", 0));
    broker.EnableDurability({data_dir->path(), {}});
    broker.RecoverTopics();
  }
  pa::transport::InProcessBus bus(broker);
  std::vector<std::unique_ptr<pa::proxy::Proxy>> proxies;
  for (size_t j = 0; j < num_proxies; ++j) {
    pa::proxy::ProxyConfig config;
    config.proxy_index = j;
    config.num_partitions = kProxyPartitions;
    proxies.push_back(std::make_unique<pa::proxy::Proxy>(config, bus));
  }
  std::vector<std::unique_ptr<pa::client::Client>> clients =
      MakeClients(workload, options);
  ClientStreams streams(workload, options.seed, kTotalEpochs);
  std::vector<pa::aggregator::WindowedResult> fired;
  pa::aggregator::AggregatorConfig agg_config;
  agg_config.num_proxies = num_proxies;
  agg_config.population = workload.clients;
  // The system runs one join shard per worker; results are bit-identical
  // for every shard count, and with no pool the shards feed sequentially.
  agg_config.num_shards = workload.workers;
  pa::aggregator::Aggregator aggregator(
      agg_config, bus, [&fired](const pa::aggregator::WindowedResult& r) {
        fired.push_back(r);
      });
  for (const QuerySpec& spec : workload.queries) {
    const std::vector<uint8_t> announcement = pa::core::SerializeAnnouncement(
        pa::core::QueryAnnouncement{spec.query, spec.params});
    for (auto& client : clients) {
      client->OnAnnouncement(announcement);
    }
    pa::aggregator::QueryLaneOptions lane;
    for (auto& proxy : proxies) {
      proxy->EnsureLane(spec.query.query_id);
      lane.source_topics.push_back(proxy->lane_out_topic(spec.query.query_id));
    }
    aggregator.RegisterQuery(spec.query, spec.params, std::move(lane));
  }

  LaneBatches lanes(workload);
  pa::engine::JoinStats join_before;
  uint64_t malformed_before = 0;
  uint64_t handed = 0;  // shares handed to the proxies
  EpochHooks hooks;
  hooks.run = [&](int epoch) {
    const int64_t now = EpochNowMs(epoch);
    const auto id = static_cast<uint32_t>(epoch);
    const bool timed = epoch >= kWarmupEpochs;
    EpochOutcome outcome;
    ScopedSpan epoch_span(&tracer, "epoch", id);
    {
      ScopedSpan span(&tracer, "client.answer", id);
      const uint64_t allocs_before = pa::AllocCounter::Count();
      outcome.participants = lanes.Answer(clients, now);
      if (timed) {
        pass.client_allocs += pa::AllocCounter::Count() - allocs_before;
      }
    }
    outcome.shares_sent = outcome.participants * num_proxies;
    const uint64_t proxy_allocs_before = pa::AllocCounter::Count();
    for (size_t k = 0; k < num_queries; ++k) {
      for (size_t j = 0; j < num_proxies; ++j) {
        ScopedSpan span(&tracer, "proxy.receive", id);
        proxies[j]->Receive(workload.queries[k].query.query_id,
                            lanes.lane(k, j));
        handed += lanes.lane(k, j).size();
      }
    }
    lanes.Reset();
    for (auto& proxy : proxies) {
      ScopedSpan span(&tracer, "proxy.forward", id);
      proxy->ForwardLanes();
    }
    if (timed) {
      pass.proxy_allocs += pa::AllocCounter::Count() - proxy_allocs_before;
    }
    {
      ScopedSpan span(&tracer, "aggregator.drain", id);
      aggregator.Drain();
    }
    {
      ScopedSpan span(&tracer, "aggregator.fire", id);
      aggregator.AdvanceWatermark(now + kPeriodMs);
    }
    outcome.results = std::move(fired);
    fired.clear();
    return outcome;
  };
  hooks.snapshot = [&](bool timed_start) {
    if (timed_start) {
      join_before = aggregator.join_stats();
      malformed_before = aggregator.malformed_dropped();
      return;
    }
    AddJoinDelta(join_before, aggregator.join_stats(), pass);
    pass.timed_malformed += aggregator.malformed_dropped() - malformed_before;
  };
  hooks.shares_sent_so_far = [&] { return handed; };
  DriveEpochs(
      workload, streams,
      [&](size_t i) -> pa::client::Client& { return *clients[i]; }, &tracer,
      hooks, pass);
  pass.malformed = aggregator.malformed_dropped();

  if (data_dir != nullptr) {
    pass.storage_bytes = data_dir->Bytes();
  }
  return pass;
}

}  // namespace perfbench
