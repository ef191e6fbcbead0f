#include "deploy/aggregator_daemon.h"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "core/query_wire.h"
#include "deploy/result_wire.h"
#include "proxy/proxy.h"
#include "transport/wire.h"

namespace privapprox::deploy {

AggregatorDaemon::AggregatorDaemon(AggregatorDaemonConfig config)
    : config_(std::move(config)) {
  if (config_.proxies.size() < 2) {
    throw std::invalid_argument("AggregatorDaemon: need at least two proxies");
  }
  metrics::Counter* reconnects = &registry_.GetCounter(
      "privapprox_transport_reconnects_total",
      "Proxy-bus re-dials after the first established connection");
  metrics::Counter* client_bytes_in = &registry_.GetCounter(
      "privapprox_transport_bytes_in_total", "Bytes received from peers");
  metrics::Counter* client_bytes_out = &registry_.GetCounter(
      "privapprox_transport_bytes_out_total", "Bytes sent to peers");
  metrics::Counter* client_frames_in = &registry_.GetCounter(
      "privapprox_transport_frames_in_total", "Request frames received");
  metrics::Counter* client_frames_out = &registry_.GetCounter(
      "privapprox_transport_frames_out_total", "Response frames sent");
  proxy_buses_.reserve(config_.proxies.size());
  for (size_t j = 0; j < config_.proxies.size(); ++j) {
    transport::TcpBusClientConfig client_config;
    client_config.host = config_.proxies[j].host;
    client_config.port = config_.proxies[j].port;
    client_config.counters.reconnects = reconnects;
    client_config.counters.bytes_in = client_bytes_in;
    client_config.counters.bytes_out = client_bytes_out;
    client_config.counters.frames_in = client_frames_in;
    client_config.counters.frames_out = client_frames_out;
    proxy_buses_.push_back(
        std::make_unique<transport::TcpBusClient>(client_config));
    router_.AddRoute(proxy::DefaultTopicPrefix(j) + ".", *proxy_buses_[j]);
  }

  aggregator::AggregatorConfig agg_config;
  agg_config.num_proxies = config_.proxies.size();
  agg_config.population = config_.population;
  agg_config.confidence = config_.confidence;
  agg_config.answers_inverted = config_.answers_inverted;
  agg_config.num_shards = config_.num_shards;
  aggregator_ = std::make_unique<aggregator::Aggregator>(
      agg_config, router_, [this](const aggregator::WindowedResult& result) {
        results_.push_back(result);
      });

  if (!config_.data_dir.empty()) {
    journal_ = std::make_unique<storage::PartitionLog>(
        std::filesystem::path(config_.data_dir) / "query_journal",
        config_.log);
    // Re-register every query a previous incarnation accepted. The lane
    // consumers start at offset zero, so the next drains re-consume the
    // proxies' retained streams from the beginning.
    journal_->Replay([this](uint64_t /*offset*/, uint64_t /*key*/,
                            int64_t /*timestamp_ms*/,
                            std::span<const uint8_t> payload) {
      RegisterAnnouncement(payload, /*journal=*/false);
    });

    auto* segments = &registry_.GetGauge("privapprox_storage_segments",
                                         "Live query-journal segments");
    auto* bytes = &registry_.GetGauge("privapprox_storage_bytes",
                                      "Bytes held in the query journal");
    auto* fsyncs = &registry_.GetGauge("privapprox_storage_fsyncs",
                                       "fsync calls issued by the journal");
    auto* writes = &registry_.GetGauge("privapprox_storage_writes",
                                       "write(2) calls issued by the journal");
    auto* recovered = &registry_.GetGauge(
        "privapprox_storage_recovered_records",
        "Journal records replayed at startup");
    auto* truncated = &registry_.GetGauge(
        "privapprox_storage_truncated_tails",
        "Torn journal tails truncated during recovery");
    registry_.AddCollector(
        [this, segments, bytes, fsyncs, writes, recovered, truncated] {
          const storage::PartitionLogStats s = journal_->stats();
          segments->Set(static_cast<int64_t>(s.segments));
          bytes->Set(static_cast<int64_t>(s.bytes));
          fsyncs->Set(static_cast<int64_t>(s.fsyncs));
          writes->Set(static_cast<int64_t>(s.writes));
          recovered->Set(static_cast<int64_t>(s.recovered_records));
          truncated->Set(static_cast<int64_t>(s.truncated_tails));
        });
  }

  transport::TcpBusServerConfig server_config;
  server_config.bind_host = config_.bind_host;
  server_config.port = config_.port;
  server_config.counters.accepts = &registry_.GetCounter(
      "privapprox_transport_accepts_total", "Connections accepted");
  server_config.counters.disconnects = &registry_.GetCounter(
      "privapprox_transport_disconnects_total", "Peers hung up");
  server_config.counters.protocol_errors = &registry_.GetCounter(
      "privapprox_transport_protocol_errors_total",
      "Connections quarantined for framing errors");
  server_ = std::make_unique<transport::TcpBusServer>(
      server_config, control_broker_,
      [this](const std::string& verb, std::span<const uint8_t> payload) {
        return HandleControl(verb, payload);
      });
}

AggregatorDaemon::~AggregatorDaemon() { Stop(); }

void AggregatorDaemon::Start() { server_->Start(); }

void AggregatorDaemon::Stop() { server_->Stop(); }

uint16_t AggregatorDaemon::port() const { return server_->port(); }

bool AggregatorDaemon::RegisterAnnouncement(
    std::span<const uint8_t> announcement, bool journal) {
  // The announcement is the registration unit — the same bytes every client
  // parses, so daemon and in-process lanes run identical (query, params)
  // pairs by construction. It is also the journal record, so replay and the
  // live verb share this one code path.
  const core::QueryAnnouncement ann = core::DeserializeAnnouncement(announcement);
  if (aggregator_->HasQuery(ann.query.query_id)) {
    return false;  // driver retry after a restart, or duplicate submission
  }
  if (journal && journal_ != nullptr) {
    // Journal before registering, and sync unconditionally: once the verb
    // acks, the query must survive kill -9 under any fsync policy.
    journal_->Append(ann.query.query_id, /*timestamp_ms=*/0, announcement);
    journal_->Sync();
  }
  // Default source topics: proxy j's lane outbound for this query.
  aggregator_->RegisterQuery(ann.query, ann.params);
  return true;
}

std::vector<uint8_t> AggregatorDaemon::HandleControl(
    const std::string& verb, std::span<const uint8_t> payload) {
  std::vector<uint8_t> response;
  if (verb == "ping") {
    return response;
  }
  if (verb == "register_query") {
    RegisterAnnouncement(payload, /*journal=*/true);
    return response;
  }
  if (verb == "drain") {
    transport::PutU64(aggregator_->Drain(), response);
    return response;
  }
  if (verb == "advance_watermark") {
    transport::WireReader reader(payload);
    aggregator_->AdvanceWatermark(static_cast<int64_t>(reader.TakeU64()));
    return response;
  }
  if (verb == "flush") {
    aggregator_->Flush();
    return response;
  }
  if (verb == "take_results") {
    response = SerializeResults(results_);
    results_.clear();
    return response;
  }
  if (verb == "source_offsets") {
    // Per-source-topic consumed offsets — the retention low-watermarks the
    // fleet driver routes to each proxy daemon's advance_watermark verb.
    const auto offsets = aggregator_->SourceOffsets();
    transport::PutU32(static_cast<uint32_t>(offsets.size()), response);
    for (const auto& [topic, parts] : offsets) {
      transport::PutString(topic, response);
      transport::PutU32(static_cast<uint32_t>(parts.size()), response);
      for (const uint64_t offset : parts) {
        transport::PutU64(offset, response);
      }
    }
    return response;
  }
  if (verb == "snapshot_offsets") {
    std::ostringstream out;
    out << "aggregator\n";
    for (const auto& [topic, parts] : aggregator_->SourceOffsets()) {
      out << "source " << topic << " consumed=";
      for (size_t p = 0; p < parts.size(); ++p) {
        out << (p != 0 ? "," : "") << parts[p];
      }
      out << "\n";
    }
    if (journal_ != nullptr) {
      const storage::PartitionLogStats s = journal_->stats();
      out << "journal records=" << journal_->end_offset()
          << " segments=" << s.segments << " bytes=" << s.bytes
          << " recovered_records=" << s.recovered_records
          << " truncated_tails=" << s.truncated_tails << "\n";
    }
    const std::string text = out.str();
    response.assign(text.begin(), text.end());
    return response;
  }
  if (verb == "metrics") {
    const std::string text = registry_.RenderText();
    response.assign(text.begin(), text.end());
    return response;
  }
  throw std::invalid_argument("AggregatorDaemon: unknown control verb '" +
                              verb + "'");
}

}  // namespace privapprox::deploy
