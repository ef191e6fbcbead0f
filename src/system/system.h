// End-to-end wiring: clients + proxies + aggregator + analyst interface
// (paper Figure 3). This is the facade examples and case-study benches use.
//
// The driving model is discrete epochs: the harness feeds client databases,
// then calls RunEpoch(now) once per answer period. Each epoch runs the full
// pipeline — sampling/randomization/splitting at every client, transmission
// through every proxy, join/decrypt/window at the aggregator — as one
// streaming dataflow: client shards, per-proxy forwarding and aggregator
// consumption are concurrent stages joined by bounded channels
// (common/channel.h), so a shard's shares reach the proxies and the join
// while later shards are still answering. Reorder buffers keep every topic
// append and join feed in a fixed order, so results are bit-identical at
// any worker count, channel depth and shard size. Window results surface
// through the analyst callback once the event-time watermark passes their
// end.
//
// Multi-query: one system hosts N concurrent queries over a single client
// fleet, broker, proxy tier, and aggregator. Each submitted query gets its
// own per-(query, proxy) broker lanes, its own aggregator lane (join +
// window + estimator), and a per-query slice of every epoch: clients answer
// all subscribed queries in one pass with a shared sampling draw but
// independent per-query randomization, so each query's results are
// bit-identical to a run where it is the only query. Admission runs through
// a fleet-wide privacy-budget manager (core/budget_manager.h): a query that
// would push the summed zero-knowledge-privacy spend past the configured
// cap is refused or down-sampled.
//
// Observability: the system owns a metrics::Registry. The core pipeline
// counters (epochs, participants, shares sent/forwarded/consumed, malformed
// drops) are always on — EpochStats is a per-epoch delta snapshot of them —
// while stage latency histograms, per-proxy and per-query families, channel
// depth high-watermarks, broker topic gauges, and the EpochTimeline trace
// are gated behind SystemConfig::metrics.

#ifndef PRIVAPPROX_SYSTEM_SYSTEM_H_
#define PRIVAPPROX_SYSTEM_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "aggregator/historical.h"
#include "broker/broker.h"
#include "client/client.h"
#include "common/arena.h"
#include "common/thread_pool.h"
#include "core/budget.h"
#include "core/budget_manager.h"
#include "core/query.h"
#include "fault/fault.h"
#include "metrics/metrics.h"
#include "metrics/timeline.h"
#include "proxy/proxy.h"
#include "storage/partition_log.h"
#include "transport/inproc_bus.h"

namespace privapprox::system {

// Epoch pipeline execution knobs.
struct PipelineOptions {
  // Worker threads for the epoch pipeline (client answering, per-proxy
  // forwarding, per-shard join feeding). 0 = hardware_concurrency.
  // Results are byte-identical for every value: any worker may answer a
  // shard, but each proxy appends shards in shard order, so topic contents
  // stay in client-id order.
  size_t num_worker_threads = 0;
  // Capacity (in shard batches) of each inter-stage channel — the
  // backpressure knob. Larger values let fast stages run further ahead; 1
  // degenerates to near-lockstep hand-off.
  size_t depth = 8;
  // Clients per shard batch. Fixed (not derived from the worker count) so
  // the dataflow — and therefore every byte in the broker and every join
  // feed position — is identical at any thread count. 0 = default (1024).
  size_t shard_size = 0;
};

// Aggregator scale-out knobs.
struct AggregatorOptions {
  // Join/window shards per query lane inside the aggregator: shares route
  // to shard hash(MID) % num_shards, feeding in parallel on the worker
  // pool with a deterministic shard-order merge at window-fire time.
  // Results are bit-identical for every value. 0 = one shard per worker
  // thread.
  size_t num_shards = 0;
};

// Historical analytics store (§3.3.1).
struct HistoricalOptions {
  // Tee joined answers into the historical store.
  bool enabled = false;
  // When non-empty (and the store is enabled), persist the historical store
  // to a storage::PartitionLog (default options) under this directory — the
  // HDFS stand-in — instead of keeping it only in memory: one record per
  // joined answer, keyed by the joining query's QID. RunHistorical then
  // replays the active query's answers from disk.
  std::string dir;
};

// Observability knobs (see the header comment). Core counters stay on even
// when `enabled` is false — they are what EpochStats snapshots.
struct MetricsOptions {
  // Stage latency histograms, per-proxy/per-client/per-query families,
  // channel depth high-watermarks, and the broker topic collector.
  bool enabled = true;
  // Per-stage spans recorded into the EpochTimeline (dump via
  // TimelineJson() as chrome://tracing JSON). Off by default: spans cost a
  // mutexed append per shard batch.
  bool timeline = false;
};

// Durable topic spill. Empty data_dir (the default) keeps every broker
// topic memory-only — byte-identical to previous releases; non-empty roots
// per-partition segment logs at <data_dir>/<topic>/p<k> and the system's
// broker recovers whatever a previous incarnation left there before any
// component attaches.
struct BrokerOptions {
  std::string data_dir;
  storage::PartitionLogOptions log;
};

// Fleet-wide privacy-budget knobs (core/budget_manager.h). The default cap
// is infinite, so single-query configs and exact-mode tests admit
// unconditionally; set max_epsilon_zk to enforce composition across
// queries.
struct BudgetOptions {
  double max_epsilon_zk = std::numeric_limits<double>::infinity();
  bool downsample_to_fit = true;
  double min_sampling_fraction = 1e-3;
};

struct SystemConfig {
  size_t num_clients = 100;
  size_t num_proxies = 2;
  uint64_t seed = 42;
  double confidence = 0.95;
  // Clients answer the inverted query (§3.3.2).
  bool invert_answers = false;

  // Queries to register at construction, in order (equivalent to calling
  // SubmitQuery for each right after the constructor). More can be
  // submitted later; all run concurrently over the same fleet.
  struct QuerySpec {
    core::Query query;
    core::ExecutionParams params;
  };
  std::vector<QuerySpec> queries;
  BudgetOptions budget;

  PipelineOptions pipeline;
  AggregatorOptions aggregator;
  BrokerOptions broker;
  HistoricalOptions historical;
  MetricsOptions metrics;
  // Deterministic fault injection + recovery (src/fault/fault.h). Unset
  // means no injector is built and every epoch is byte-identical to a
  // build without the fault layer — results, broker topic contents, and
  // EpochStats (the bit-identity invariant tests/fault_test.cc pins).
  // A set plan derives every fault from (plan.seed, QID, MID, proxy)
  // hashes, so every worker count sees identical faults and every query
  // gets an independent replayable fault sequence.
  std::optional<fault::FaultPlan> fault;
};

struct EpochStats {
  // (client, query) pairs that passed the sampling coin this epoch. With
  // one query this is exactly the classic "clients that participated".
  size_t participants = 0;
  uint64_t shares_sent = 0;  // client -> proxy messages
  uint64_t shares_forwarded = 0;
  uint64_t shares_consumed = 0;
  // Records dropped this epoch because they failed to decode (truncated
  // share or garbage plaintext after the join) — the aggregator counts
  // them; this surfaces the per-epoch delta to RunEpoch callers.
  uint64_t malformed_dropped = 0;
  // Fault-injection and recovery deltas (all zero when SystemConfig::fault
  // is unset). Per-epoch deltas of the privapprox_fault_* /
  // privapprox_recovery_* registry counters.
  uint64_t fault_shares_dropped = 0;
  uint64_t fault_shares_corrupted = 0;
  uint64_t fault_shares_duplicated = 0;
  uint64_t fault_shares_delayed = 0;
  uint64_t fault_forward_timeouts = 0;
  uint64_t fault_proxy_crashes = 0;
  uint64_t fault_lost_mids = 0;  // (QID, MID) pairs that can never join
  uint64_t recovery_retries = 0;
  uint64_t recovery_failovers = 0;
  uint64_t recovery_late_delivered = 0;  // deferred shares replayed
};

class PrivApproxSystem {
 public:
  explicit PrivApproxSystem(SystemConfig config);
  ~PrivApproxSystem();

  size_t num_clients() const { return clients_.size(); }
  client::Client& client(size_t index) { return *clients_[index]; }

  // Analyst entry point: converts the budget into execution parameters via
  // the initializer, runs privacy-budget admission, and distributes the
  // query to all clients. Returns the parameters actually admitted (the
  // budget manager may have down-sampled `s`).
  core::ExecutionParams SubmitQuery(const core::Query& query,
                                    const core::QueryBudget& budget,
                                    double expected_yes_fraction = 0.5);

  // Variant with explicit parameters (micro-benchmarks sweep them
  // directly). Also returns the admitted parameters. Throws
  // core::BudgetExceededError when the query cannot fit under
  // SystemConfig::budget, std::invalid_argument for a duplicate QID.
  core::ExecutionParams SubmitQuery(const core::Query& query,
                                    const core::ExecutionParams& params);

  // Redistributes re-tuned execution parameters for one query (§5
  // feedback loop) without disturbing in-flight window state: the budget
  // manager re-prices the query, a fresh announcement reaches every
  // client, and the query's estimator switches to the admitted (s, p, q).
  // Returns the admitted parameters.
  core::ExecutionParams UpdateParams(uint64_t query_id,
                                     const core::ExecutionParams& params);

  size_t num_queries() const { return active_.size(); }
  // Registered QIDs in ascending order.
  std::vector<uint64_t> query_ids() const;
  // The admitted execution parameters a query currently runs with.
  const core::ExecutionParams& query_params(uint64_t query_id) const;
  core::PrivacyBudgetManager& budget_manager() { return budget_manager_; }

  // Runs one answering epoch at `now_ms`, driving every registered query
  // through the streaming dataflow (see the header comment). The returned
  // stats are the epoch's delta of the registry's core pipeline counters.
  EpochStats RunEpoch(int64_t now_ms);

  // Advances the watermark on every query lane; fires completed windows
  // into results().
  void AdvanceWatermark(int64_t watermark_ms);
  // Fires everything pending (end of run), all queries.
  void Flush();

  const std::vector<aggregator::WindowedResult>& results() const {
    return results_;
  }
  std::vector<aggregator::WindowedResult> TakeResults();

  // Bytes produced by clients into proxy inbound topics so far — every
  // lane of every primary and, under a failover plan, every standby — the
  // client->proxy network traffic of Fig 9a.
  uint64_t ClientToProxyBytes() const;

  // Historical analytics over everything collected so far (§3.3.1);
  // requires historical.enabled and exactly one registered query. Only that
  // query's answers count: a durable historical.dir reused across queries
  // keeps each query's records apart by QID.
  core::QueryResult RunHistorical(int64_t from_ms, int64_t to_ms,
                                  const aggregator::BatchQueryBudget& budget);

  // --- Observability ----------------------------------------------------
  metrics::Registry& metrics_registry() { return registry_; }
  metrics::EpochTimeline& timeline() { return timeline_; }
  // Prometheus-style text exposition of every registered family — the
  // `/metrics` dump (README quickstart).
  std::string MetricsText() { return registry_.RenderText(); }
  std::string MetricsJson() { return registry_.RenderJson(); }
  // chrome://tracing JSON of the spans recorded so far (empty trace unless
  // SystemConfig::metrics.timeline is on).
  std::string TimelineJson() const { return timeline_.ToChromeTracingJson(); }

  broker::Broker& broker() { return broker_; }
  // The in-process transport every component speaks — the deterministic
  // counterpart of the daemons' TCP buses.
  transport::InProcessBus& bus() { return bus_; }
  aggregator::Aggregator& aggregator() { return *aggregator_; }
  size_t num_worker_threads() const { return pool_->num_threads(); }

 private:
  // One registered query's system-side state.
  struct ActiveQuery {
    core::Query query;
    core::ExecutionParams params;  // admitted (possibly down-sampled)
    // Per-query labeled instruments; null unless metrics.enabled.
    metrics::Counter* participants_total = nullptr;
    metrics::Counter* shares_sent_total = nullptr;
  };

  void RunEpochStreaming(int64_t now_ms);
  void ReplayDeferredShares();
  void DistributeAnnouncement(const core::Query& query,
                              const core::ExecutionParams& params,
                              const char* failure_what);
  ActiveQuery& GetActive(uint64_t query_id, const char* caller);
  const ActiveQuery& SingleActive(const char* caller) const;

  SystemConfig config_;
  // Declared before every pipeline component: proxies, clients, and the
  // aggregator hold bare pointers to registry instruments, so the registry
  // must outlive them (members destroy in reverse declaration order).
  metrics::Registry registry_;
  metrics::EpochTimeline timeline_;
  // Always-on core pipeline counters backing EpochStats (owned by the
  // registry; registered once at construction).
  struct CoreCounters {
    metrics::Counter* epochs = nullptr;
    metrics::Counter* participants = nullptr;
    metrics::Counter* shares_sent = nullptr;
    metrics::Counter* shares_forwarded = nullptr;
    metrics::Counter* shares_consumed = nullptr;
    metrics::Counter* malformed = nullptr;
  };
  CoreCounters counters_;
  // Stage latency histograms; null unless metrics.enabled.
  struct StageHistograms {
    metrics::Histogram* answer_shard_ns = nullptr;
    metrics::Histogram* proxy_forward_ns = nullptr;
    metrics::Histogram* agg_consume_ns = nullptr;
    metrics::Histogram* epoch_ns = nullptr;
  };
  StageHistograms stage_ns_;
  broker::Broker broker_;
  // The single in-process MessageBus all proxies, the aggregator, and
  // announcement distribution run over (declared right after the broker it
  // wraps, before every component holding a reference to it).
  transport::InProcessBus bus_{broker_};
  // Share-encoding arenas, recycled across shards and epochs. Every
  // ArenaRef handed out lives only within one RunEpoch call, so the pool
  // (declared before the pipeline users) safely outlives them.
  ArenaPool arena_pool_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::vector<std::unique_ptr<proxy::Proxy>> proxies_;
  // Fault layer (null/empty unless SystemConfig::fault is set). Standby
  // proxy j shares primary j's outbound lane topics, so failover is
  // invisible to the aggregator's n-source join.
  fault::FaultCounters fault_counters_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<std::unique_ptr<proxy::Proxy>> standby_proxies_;
  uint64_t epoch_index_ = 0;  // keys the per-epoch proxy crash draw
  core::PrivacyBudgetManager budget_manager_;
  std::unique_ptr<aggregator::Aggregator> aggregator_;
  std::map<uint64_t, ActiveQuery> active_;  // QID -> query, ascending
  std::vector<aggregator::WindowedResult> results_;
  // Historical store: answers in memory, or in historical_log_ when
  // historical.dir is set (then historical_answers_ stays empty).
  std::vector<aggregator::StoredAnswer> historical_answers_;
  std::unique_ptr<storage::PartitionLog> historical_log_;
  Xoshiro256 historical_rng_;
};

}  // namespace privapprox::system

#endif  // PRIVAPPROX_SYSTEM_SYSTEM_H_
