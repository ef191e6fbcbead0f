// Socket passes: two ProxyDaemons and one AggregatorDaemon serving loopback
// ephemeral ports inside this process, driven either by a FleetDriver
// (untraced) or by the benchmark's own TcpBusClients (traced).

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client/client.h"
#include "common/alloc_counter.h"
#include "core/query_wire.h"
#include "deploy/aggregator_daemon.h"
#include "deploy/fleet_driver.h"
#include "deploy/proxy_daemon.h"
#include "deploy/result_wire.h"
#include "metrics/metrics.h"
#include "passes.h"
#include "transport/message_bus.h"
#include "transport/tcp_bus.h"
#include "transport/wire.h"

namespace perfbench {
namespace {

// FleetDriverConfig's default frame chunking, reused by the traced driver.
constexpr size_t kProduceChunkRecords = 2048;

// The daemon side of a socket deployment; destruction stops the aggregator
// first, then the proxies it polls.
struct Daemons {
  std::vector<std::unique_ptr<pa::deploy::ProxyDaemon>> proxies;
  std::vector<pa::deploy::Endpoint> proxy_endpoints;
  std::unique_ptr<pa::deploy::AggregatorDaemon> aggregator;
  pa::deploy::Endpoint aggregator_endpoint;

  explicit Daemons(const Workload& workload) {
    for (size_t j = 0; j < workload.proxies; ++j) {
      pa::deploy::ProxyDaemonConfig config;
      config.proxy_index = j;
      proxies.push_back(std::make_unique<pa::deploy::ProxyDaemon>(config));
      proxies.back()->Start();
      proxy_endpoints.push_back({"127.0.0.1", proxies.back()->port()});
    }
    pa::deploy::AggregatorDaemonConfig config;
    config.proxies = proxy_endpoints;
    config.population = workload.clients;
    aggregator = std::make_unique<pa::deploy::AggregatorDaemon>(config);
    aggregator->Start();
    aggregator_endpoint = {"127.0.0.1", aggregator->port()};
  }
  ~Daemons() {
    aggregator.reset();
    proxies.clear();
  }
  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;
};

// Sums every sample of the named families in a Prometheus text dump.
uint64_t SumFamilies(const std::string& text,
                     const std::vector<std::string>& names) {
  uint64_t total = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    for (const std::string& name : names) {
      if (line.rfind(name, 0) == 0 &&
          (line.size() > name.size() &&
           (line[name.size()] == ' ' || line[name.size()] == '{'))) {
        total += static_cast<uint64_t>(
            std::stod(line.substr(line.rfind(' ') + 1)));
      }
    }
  }
  return total;
}

// Reads the privapprox_transport_* counters from a MetricsText dump before
// the first timed epoch and after the last, and adds the deltas to the
// pass. Outbound bytes are the fleet driver's share frames plus a few small
// control requests per epoch.
class TransportSnapshot {
 public:
  void Take(const std::string& text, bool timed_start, PassResult& pass) {
    const uint64_t bytes_out =
        SumFamilies(text, {"privapprox_transport_bytes_out_total"});
    const uint64_t bytes =
        bytes_out + SumFamilies(text, {"privapprox_transport_bytes_in_total"});
    const uint64_t frames =
        SumFamilies(text, {"privapprox_transport_frames_in_total",
                           "privapprox_transport_frames_out_total"});
    if (timed_start) {
      bytes_out_ = bytes_out;
      bytes_ = bytes;
      frames_ = frames;
      return;
    }
    pass.client_bytes += bytes_out - bytes_out_;
    pass.transport_bytes += bytes - bytes_;
    pass.transport_frames += frames - frames_;
  }

 private:
  uint64_t bytes_out_ = 0;
  uint64_t bytes_ = 0;
  uint64_t frames_ = 0;
};

// The aggregator daemon does not export its join stats, so joined answers
// come from the session's fired windows (all of them are in pass.results
// once the last epoch ran): every joined answer of a tumbling
// query lands in exactly one window. Records the aggregator consumed
// without completing a join (malformed or partial groups) count as
// malformed; `consumed` and `timed_consumed` cover the whole session and
// its timed epochs.
void AddJoinedFromResults(const Workload& workload, uint64_t consumed,
                          uint64_t timed_consumed, PassResult& pass) {
  uint64_t joined = 0;
  uint64_t timed_joined = 0;
  for (size_t r = 0; r < pass.results.size(); ++r) {
    joined += pass.results[r].result.participants;
    if (r >= pass.first_timed_result) {
      timed_joined += pass.results[r].result.participants;
    }
  }
  pass.answers_joined += timed_joined;
  pass.malformed += consumed - std::min(consumed, joined * workload.proxies);
  pass.timed_malformed +=
      timed_consumed -
      std::min(timed_consumed, timed_joined * workload.proxies);
}

// Shares the proxy daemons have received, from their
// privapprox_proxy_received_total counters.
uint64_t SharesReceived(pa::deploy::FleetDriver& fleet, size_t proxies) {
  uint64_t total = 0;
  for (size_t j = 0; j < proxies; ++j) {
    total += SumFamilies(fleet.ProxyMetricsText(j),
                         {"privapprox_proxy_received_total"});
  }
  return total;
}

}  // namespace

PassResult RunFleetPass(const Workload& workload, const Options& options) {
  PassResult pass;
  const SetupPacer pacer(options);
  for (int i = 0;; ++i) {
    const NextSetup next = pacer.Next(pass);
    if (next == NextSetup::kDone) {
      break;
    }
    const uint64_t seed = SessionSeed(options.seed, i);
    const int64_t start_ns = NowNs();
    Daemons daemons(workload);
    pa::deploy::FleetDriverConfig config;
    config.num_clients = workload.clients;
    config.seed = seed;
    config.proxies = daemons.proxy_endpoints;
    config.aggregator = daemons.aggregator_endpoint;
    pa::deploy::FleetDriver fleet(config);
    ClientStreams streams(workload, seed, kTotalEpochs);
    for (const QuerySpec& spec : workload.queries) {
      fleet.SubmitQuery(spec.query, spec.params);
    }
    pass.setup_s.push_back(static_cast<double>(NowNs() - start_ns) / 1e9);
    if (next == NextSetup::kSetupOnly) {
      continue;
    }

    uint64_t consumed = 0;
    uint64_t timed_consumed = 0;
    TransportSnapshot transport;
    EpochHooks hooks;
    hooks.run = [&](int epoch) {
      const int64_t now = EpochNowMs(epoch);
      const pa::deploy::FleetEpochStats stats = fleet.RunEpoch(now);
      fleet.AdvanceWatermark(now + kPeriodMs);
      EpochOutcome outcome;
      outcome.results = fleet.TakeResults();
      outcome.shares_sent = stats.shares_sent;
      outcome.participants = stats.participants;
      consumed += stats.shares_consumed;
      if (epoch >= kWarmupEpochs) {
        timed_consumed += stats.shares_consumed;
      }
      return outcome;
    };
    hooks.snapshot = [&](bool timed_start) {
      transport.Take(fleet.MetricsText(), timed_start, pass);
      if (!timed_start) {
        AddJoinedFromResults(workload, consumed, timed_consumed, pass);
      }
    };
    hooks.shares_sent_so_far = [&] {
      return SharesReceived(fleet, workload.proxies);
    };
    DriveEpochs(
        workload, streams,
        [&](size_t i) -> pa::client::Client& { return fleet.client(i); },
        nullptr, hooks, pass);
  }
  return pass;
}

PassResult RunSocketTracedPass(const Workload& workload,
                               const Options& options, Tracer& tracer) {
  PassResult pass;
  const size_t num_queries = workload.queries.size();
  const size_t num_proxies = workload.proxies;

  // Set-up, mirroring FleetDriver's construction and SubmitQuery.
  Daemons daemons(workload);
  pa::metrics::Registry registry;
  pa::transport::TransportCounters counters;
  counters.bytes_in = &registry.GetCounter(
      "privapprox_transport_bytes_in_total", "Bytes received from daemons");
  counters.bytes_out = &registry.GetCounter(
      "privapprox_transport_bytes_out_total", "Bytes sent to daemons");
  counters.frames_in = &registry.GetCounter(
      "privapprox_transport_frames_in_total", "Response frames received");
  counters.frames_out = &registry.GetCounter(
      "privapprox_transport_frames_out_total", "Request frames sent");
  std::vector<std::unique_ptr<pa::transport::TcpBusClient>> proxy_buses;
  for (const pa::deploy::Endpoint& endpoint : daemons.proxy_endpoints) {
    pa::transport::TcpBusClientConfig config;
    config.host = endpoint.host;
    config.port = endpoint.port;
    config.counters = counters;
    proxy_buses.push_back(
        std::make_unique<pa::transport::TcpBusClient>(config));
  }
  pa::transport::TcpBusClientConfig agg_config;
  agg_config.host = daemons.aggregator_endpoint.host;
  agg_config.port = daemons.aggregator_endpoint.port;
  agg_config.counters = counters;
  pa::transport::TcpBusClient aggregator_bus(agg_config);

  std::vector<std::unique_ptr<pa::client::Client>> clients =
      MakeClients(workload, options);
  ClientStreams streams(workload, options.seed, kTotalEpochs);
  // lane_in[k][j]: proxy j's inbound topic for query k.
  std::vector<std::vector<std::string>> lane_in(num_queries);
  for (size_t k = 0; k < num_queries; ++k) {
    const QuerySpec& spec = workload.queries[k];
    const std::vector<uint8_t> announcement = pa::core::SerializeAnnouncement(
        pa::core::QueryAnnouncement{spec.query, spec.params});
    std::vector<uint8_t> qid_payload;
    pa::transport::PutU64(spec.query.query_id, qid_payload);
    for (size_t j = 0; j < num_proxies; ++j) {
      const std::string prefix = "proxy" + std::to_string(j);
      proxy_buses[j]->Control("ensure_lane", qid_payload);
      lane_in[k].push_back(prefix + ".q" +
                           std::to_string(spec.query.query_id) + ".in");
      proxy_buses[j]->EnsureTopic(prefix + ".query.in", 1);
      const pa::broker::ProduceView view{0, announcement, 0};
      proxy_buses[j]->Produce(
          prefix + ".query.in",
          std::span<const pa::broker::ProduceView>(&view, 1));
      proxy_buses[j]->Control("forward_queries", {});
      // Clients subscribe from the bytes their proxy forwarded.
      pa::transport::BusConsumer consumer(*proxy_buses[j],
                                          prefix + ".query.out");
      std::vector<pa::broker::RecordView> records;
      while (consumer.PollInto(64, records) != 0) {
      }
      const pa::broker::RecordView& last = records.at(records.size() - 1);
      const std::vector<uint8_t> bytes(last.payload,
                                       last.payload + last.payload_len);
      for (size_t i = j; i < clients.size(); i += num_proxies) {
        clients[i]->OnAnnouncement(bytes);
      }
    }
    aggregator_bus.Control("register_query", announcement);
  }

  LaneBatches lanes(workload);
  uint64_t consumed = 0;
  uint64_t timed_consumed = 0;
  uint64_t produced = 0;  // shares produced to the proxies
  TransportSnapshot transport;
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
    for (size_t k = 0; k < num_queries; ++k) {
      for (size_t j = 0; j < num_proxies; ++j) {
        ScopedSpan span(&tracer, "transport.produce", id);
        const auto& batch = lanes.lane(k, j);
        for (size_t begin = 0; begin < batch.size();
             begin += kProduceChunkRecords) {
          const size_t len =
              std::min(kProduceChunkRecords, batch.size() - begin);
          proxy_buses[j]->Produce(
              lane_in[k][j],
              std::span<const pa::broker::ProduceView>(&batch[begin], len));
          produced += len;
        }
      }
    }
    lanes.Reset();
    for (auto& bus : proxy_buses) {
      ScopedSpan span(&tracer, "transport.forward_rpc", id);
      bus->Control("forward_lanes", {});
    }
    {
      ScopedSpan span(&tracer, "transport.drain_rpc", id);
      const std::vector<uint8_t> reply = aggregator_bus.Control("drain", {});
      pa::transport::WireReader reader(reply);
      const uint64_t drained = reader.TakeU64();
      consumed += drained;
      if (timed) {
        timed_consumed += drained;
      }
    }
    {
      // The aggregator daemon's AdvanceWatermark, seen through its verb.
      ScopedSpan span(&tracer, "aggregator.fire", id);
      std::vector<uint8_t> payload;
      pa::transport::PutU64(static_cast<uint64_t>(now + kPeriodMs), payload);
      aggregator_bus.Control("advance_watermark", payload);
    }
    {
      ScopedSpan span(&tracer, "transport.take_rpc", id);
      outcome.results = pa::deploy::DeserializeResults(
          aggregator_bus.Control("take_results", {}));
    }
    return outcome;
  };
  hooks.snapshot = [&](bool timed_start) {
    transport.Take(registry.RenderText(), timed_start, pass);
    if (!timed_start) {
      AddJoinedFromResults(workload, consumed, timed_consumed, pass);
    }
  };
  hooks.shares_sent_so_far = [&] { return produced; };
  DriveEpochs(
      workload, streams,
      [&](size_t i) -> pa::client::Client& { return *clients[i]; }, &tracer,
      hooks, pass);
  return pass;
}

}  // namespace perfbench
