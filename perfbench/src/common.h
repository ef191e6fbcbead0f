// Shared pieces of the steady-state epoch benchmark: workload definitions,
// seeded input generation, the closed epoch loop every pass runs, the
// per-pass record it fills in, and the exact-count reference the
// correctness checks compare against.
//
// Load model (all workloads): a closed loop. Epoch k answers at event time
// (k + 1) * 1000 ms, then advances the watermark to the end of that 1 s
// period so the windows holding epoch k's answers fire, then takes the
// results. Epoch k + 1 starts only once those results are in hand, as an
// analyst waiting on each result would. Between epochs, outside the timed
// region, every client's local database receives the rows its data stream
// produced up to the next epoch's time, and the exact counts are taken.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aggregator/aggregator.h"
#include "broker/broker.h"
#include "client/client.h"
#include "common/arena.h"
#include "common/histogram.h"
#include "core/budget.h"
#include "core/query.h"
#include "localdb/database.h"

namespace perfbench {

namespace pa = privapprox;

// Query period: epochs are 1 s of event time apart.
constexpr int64_t kPeriodMs = 1000;
// The aggregator's join timeout is 60 s, so the remembered-MID set it scans
// at every watermark reaches steady state after 60 epochs; warm up one past.
constexpr int kWarmupEpochs = 61;
// Timed epochs per session, after the warm-up. A fixed count, not a
// deadline, so peak_rss_mb compares across builds.
constexpr int kTimedEpochs = 200;
constexpr int kTotalEpochs = kWarmupEpochs + kTimedEpochs;
// An untraced pass runs sessions back to back until `--seconds` have passed
// (SetupPacer). Each sets up from scratch on its own inputs (SessionSeed),
// warms up and runs the timed epochs. Accuracy and interval coverage pool
// every session; the timing metrics are medians over sessions, so many
// short sessions spread over the run sample the host's slow and fast
// phases alike. Set-up-only repetitions then bring the set-ups to at least
// kMinSetups; setup_s is their median.
constexpr int kMinSetups = 15;
// system.trace_coverage must reach this: the traced layers' self times
// account for at least this share of the traced epoch wall time.
constexpr double kTraceCoverageTolerance = 0.9;
// The confidence-interval check allows this many binomial standard
// deviations below the expected coverage: a false alarm stays below 1 in
// 30 000 runs, while a run's tens of thousands of tumbling-window buckets
// still put their floor about half a point below the stated confidence.
constexpr double kCoverageSigmas = 4.0;
// Per-client data rates, those of the case study in
// bench/bench_fig9_network.cc: 2 taxi rides per query window, and one meter
// reading per minute of a 30-minute window (30 readings per window, each
// 1/30 of a 30-minute draw). Event time is compressed to the workload's
// window length, so the bucket distributions are the case study's.
constexpr int kRidesPerWindow = 2;
constexpr int kReadingsPerWindow = 30;

enum class Deployment { kInProcess, kSocket };

struct QuerySpec {
  pa::core::Query query;
  pa::core::ExecutionParams params;
};

struct Workload {
  std::string name;
  Deployment deployment = Deployment::kInProcess;
  bool durable = false;  // broker.data_dir set (write-through to disk)
  size_t clients = 0;
  size_t workers = 2;    // in-process epoch pipeline worker threads
  size_t proxies = 2;
  std::vector<QuerySpec> queries;  // ascending QID
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  size_t clients = 0;  // 0 = the workload's fleet size (self-test sizes)
  // Durable data dirs go here; the trace file goes to its sibling
  // perfbench-traces/.
  std::string work_dir = ".bench_build/perfbench-run";
};

// Throws std::invalid_argument for an unknown workload name.
Workload MakeWorkload(const Options& options);

inline int64_t EpochNowMs(int epoch) { return (epoch + 1) * kPeriodMs; }

// The seed session `session` of a run with `seed` uses for both its data and
// the system's randomness. Session 0 (and every traced pass) uses `seed`
// itself, so runs of different deployments with one seed are comparable.
uint64_t SessionSeed(uint64_t seed, int session);

// Every client's data stream for one session, generated from (seed, client
// id) alone when the session is set up, so every deployment and pass sees
// identical data. Feed hands a client the rows whose event time has come.
class ClientStreams {
 public:
  ClientStreams(const Workload& workload, uint64_t seed, int total_epochs);

  // Appends client `index`'s rows with timestamps before `now_ms` that it
  // has not been given yet (creating its tables on the first call), then
  // evicts the rows no query window can read any more.
  void Feed(size_t index, pa::localdb::Database& db, int64_t now_ms);

 private:
  struct Ride {
    int64_t ts_ms = 0;
    double distance = 0.0;
    double fare = 0.0;
    uint32_t borough = 0;  // index into boroughs_
  };
  struct Reading {
    int64_t ts_ms = 0;
    double kwh = 0.0;
  };

  bool taxi_ = false;
  bool meter_ = false;
  int64_t keep_ms_ = 0;  // the longest query window
  std::vector<std::string> boroughs_;
  std::vector<std::vector<Ride>> rides_;
  std::vector<std::vector<Reading>> readings_;
  std::vector<size_t> next_ride_;
  std::vector<size_t> next_reading_;
};

// The traced passes' fleet: clients configured like PrivApproxSystem's and
// FleetDriver's (same ids and seed derivation). Their data comes from a
// ClientStreams.
std::vector<std::unique_ptr<pa::client::Client>> MakeClients(
    const Workload& workload, const Options& options);

// Interval coverage over a set of buckets: how many hold the exact count,
// against how many should.
struct Coverage {
  size_t buckets = 0;
  size_t covered = 0;
  // Sum over buckets of the probability that the interval holds the exact
  // count.
  double expected = 0.0;
  // Independent trials the buckets amount to (see EvaluateSession).
  double trials = 0.0;
  double Share() const {
    return buckets == 0 ? 1.0 : static_cast<double>(covered) / buckets;
  }
  // The expected share less kCoverageSigmas binomial standard deviations
  // over `trials`.
  double Floor() const;
};

// Accuracy of the timed windows against exact counts, pooled over sessions.
struct Quality {
  // Per window, the mean of the buckets' relative errors weighted by their
  // exact counts (QueryResult::WeightedAccuracyLossAgainst), summed over
  // windows. The unweighted Eq 6 mean is summed alongside for the record:
  // a bucket holding a fraction of a client on average (the electricity
  // tails) makes it swing by tens of percent from seed to seed.
  double loss_sum = 0.0;
  double eq6_loss_sum = 0.0;
  size_t windows = 0;
  double confidence = 0.95;
  // Windows with fewer answers than clients, where the estimator's interval
  // includes its sampling-error term: each bucket is expected to be
  // covered at the stated confidence.
  Coverage modelled;
  // Windows with at least as many answers as clients (a sliding window
  // spanning several epochs). ErrorEstimator::SamplingStdDev returns 0 for
  // them, as if every client had answered once, so their intervals hold
  // only the randomized-response error. Each bucket is expected to be
  // covered with the probability such an interval has once the omitted
  // sampling error (answers drawn from clients x epochs) is present, from
  // the bucket's exact yes-fraction. A fixed estimator covers more and
  // passes; narrower intervals or biased estimates fail.
  Coverage unmodelled;

  double AccuracyLoss() const {
    return windows == 0 ? 0.0 : loss_sum / static_cast<double>(windows);
  }
  double Eq6AccuracyLoss() const {
    return windows == 0 ? 0.0 : eq6_loss_sum / static_cast<double>(windows);
  }
  bool CoverageOk() const {
    return modelled.Share() >= modelled.Floor() &&
           unmodelled.Share() >= unmodelled.Floor();
  }
};

// Everything one pass (untraced or traced) of a workload measured.
struct PassResult {
  std::vector<double> setup_s;  // one per set-up
  // Per session: each timed epoch's latency (RunEpoch -> results held) and
  // the shares the timed epochs got joined.
  std::vector<std::vector<double>> session_epoch_ms;
  std::vector<uint64_t> session_shares_joined;
  std::vector<uint64_t> session_digests;  // ResultDigest per session
  // Sessions whose timed epochs did not fire one window per query each.
  size_t sessions_short_of_windows = 0;
  // Process high-water mark when the first session's last epoch ended.
  double first_session_peak_rss_mb = 0.0;
  uint64_t shares_sent = 0;       // timed epochs, failed ones included
  uint64_t participants = 0;      // timed epochs, (client, query) pairs
  uint64_t answers_joined = 0;    // timed epochs
  uint64_t malformed = 0;         // whole run
  uint64_t timed_malformed = 0;   // timed epochs
  uint64_t allocs = 0;            // timed epochs, whole process
  uint64_t client_bytes = 0;      // timed epochs, client -> proxy bytes
  uint64_t failed_epochs = 0;        // whole run
  uint64_t failed_epoch_shares = 0;  // timed epochs that threw
  // Join statistics over the timed epochs (in-process deployments).
  uint64_t join_joined = 0;
  uint64_t join_evicted = 0;
  uint64_t join_late = 0;
  // Transport counters over the timed epochs (socket deployment).
  uint64_t transport_bytes = 0;
  uint64_t transport_frames = 0;
  // Traced passes: allocations inside the client answer calls and inside
  // Proxy::Receive + ForwardLanes, timed epochs.
  uint64_t client_allocs = 0;
  uint64_t proxy_allocs = 0;
  // Durable deployments: bytes under the data dir after the last epoch.
  uint64_t storage_bytes = 0;
  // Shares every epoch of the current session (warm-up included) sent.
  uint64_t run_shares_sent = 0;
  // Time inside Client::TruthfulAnswer, per client-epoch computed.
  int64_t sql_ns = 0;
  uint64_t sql_client_epochs = 0;
  Quality quality;
  // The current session's results, every epoch in order;
  // results[first_timed_result...] belong to the timed epochs.
  std::vector<pa::aggregator::WindowedResult> results;
  size_t first_timed_result = 0;
};

enum class NextSetup { kSession, kSetupOnly, kDone };

// Paces an untraced pass's set-ups. Sessions run back to back until
// `--seconds` have passed since the pacer was made, at least one; then
// set-up-only repetitions (construct, generate inputs, submit the queries,
// tear down) follow until the pass has set up kMinSetups times. A fixed
// duration rather than a fixed session count keeps a run's length the same
// when the host is slow.
class SetupPacer {
 public:
  explicit SetupPacer(const Options& options);
  NextSetup Next(const PassResult& pass) const;

 private:
  int64_t deadline_ns_;
};

// What one epoch (RunEpoch, watermark to the period's end, take results)
// handed back.
struct EpochOutcome {
  uint64_t shares_sent = 0;
  uint64_t participants = 0;
  std::vector<pa::aggregator::WindowedResult> results;
};

class Tracer;
using ClientAt = std::function<pa::client::Client&(size_t)>;

struct EpochHooks {
  // Runs one epoch; may throw.
  std::function<EpochOutcome(int epoch)> run;
  // Runs once, untimed, right before the first timed epoch and right after
  // the last one; the second call adds the counters' timed deltas to the
  // pass.
  std::function<void(bool timed_start)> snapshot;
  // Shares the session has sent so far, read when an epoch throws to
  // charge the shares it sent.
  std::function<uint64_t()> shares_sent_so_far;
};

// One session's closed loop: kTotalEpochs epochs, back to back. Before each
// epoch, untimed, feeds every client (`client_at`) its rows up to the
// epoch's time from `streams` and takes the exact per-bucket counts
// (Client::TruthfulAnswer over the whole fleet; a "client.sql" span when
// `tracer` is set) for every epoch a timed window covers. Appends the
// session's timed latencies, joined shares and result digest, adds its
// whole-process allocations, replaces pass.results with its results, and
// adds the accuracy and interval coverage of its timed windows to
// pass.quality. An epoch that throws is skipped; a timed one counts every
// share it sent as attempted and failed.
void DriveEpochs(const Workload& workload, ClientStreams& streams,
                 const ClientAt& client_at, Tracer* tracer,
                 const EpochHooks& hooks, PassResult& pass);

// Adds the join statistics accumulated between two snapshots to `pass`.
void AddJoinDelta(const pa::engine::JoinStats& before,
                  const pa::engine::JoinStats& after, PassResult& pass);

// The traced passes' answer step: every client answers in client-id order
// (the order FleetDriver and both in-process pipeline modes reduce to) and
// each (query, proxy) lane's shares are collected in that order.
class LaneBatches {
 public:
  explicit LaneBatches(const Workload& workload);

  // Returns the (client, query) pairs that participated.
  uint64_t Answer(std::vector<std::unique_ptr<pa::client::Client>>& clients,
                  int64_t now_ms);
  // Query k's shares for proxy j; views stay valid until Reset.
  const std::vector<pa::broker::ProduceView>& lane(size_t k, size_t j) const {
    return batches_[k][j];
  }
  void Reset() { arena_.Reset(); }

 private:
  const Workload& workload_;
  pa::EpochArena arena_;
  std::vector<std::vector<std::vector<pa::broker::ProduceView>>> batches_;
  std::vector<pa::crypto::ShareView> views_;
  std::vector<uint64_t> answered_;
};

// FNV-1a over the bit-exact wire form of the results (doubles as IEEE-754
// bit patterns): equal digests mean bit-identical results.
uint64_t ResultDigest(
    const std::vector<pa::aggregator::WindowedResult>& results);

int64_t NowNs();
double PeakRssMb();
double Median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

// A throwaway directory under the run's work dir, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const Options& options, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }
  // Bytes in regular files below the directory.
  uint64_t Bytes() const;

 private:
  std::string path_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
