#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/alloc_counter.h"
#include "common/rng.h"
#include "deploy/result_wire.h"
#include "stats/special_functions.h"
#include "tracer.h"
#include "workload/electricity.h"
#include "workload/taxi.h"

namespace perfbench {
namespace {

uint64_t Mix(uint64_t seed, uint64_t index, uint64_t stream) {
  pa::SplitMix64 mix(seed ^ (index * 0x9E3779B97F4A7C15ULL) ^
                     (stream << 56));
  return mix.Next();
}

pa::core::ExecutionParams PaperParams() {
  // The Table 3 configuration: s = 0.6, (p, q) = (0.9, 0.6).
  pa::core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  return params;
}

bool IsMeterQuery(const pa::core::Query& query) {
  return query.sql.find("meter") != std::string::npos;
}

// The window length of the workload's taxi (meter = false) or meter queries;
// 0 when it runs none. A workload's queries of one kind share a window.
int64_t WindowOf(const Workload& workload, bool meter) {
  for (const QuerySpec& spec : workload.queries) {
    if (IsMeterQuery(spec.query) == meter) {
      return spec.query.window_length_ms;
    }
  }
  return 0;
}

pa::localdb::Table& TableOf(pa::localdb::Database& db, const char* name,
                            std::vector<std::string> columns) {
  return db.HasTable(name) ? db.GetTable(name)
                           : db.CreateTable(name, std::move(columns));
}

// The probability that an interval holding only the randomized-response
// error, at critical value z, covers the exact count of a bucket whose
// exact yes-fraction is y, when the estimate from n answers drawn out of
// `pairs` (client, epoch) pairs also carries that draw's sampling error.
// Both variances scale by population^2 / n, which cancels.
double RandomizationOnlyCoverage(const pa::core::ExecutionParams& params,
                                 double y, double n, double pairs, double z) {
  const double p = params.randomization.p;
  const double q = params.randomization.q;
  const double pi_yes = p + (1.0 - p) * q;
  const double pi_no = (1.0 - p) * q;
  const double rr = (y * pi_yes * (1.0 - pi_yes) +
                     (1.0 - y) * pi_no * (1.0 - pi_no)) /
                    (p * p);
  const double sampling = y * (1.0 - y) * std::max(0.0, 1.0 - n / pairs);
  if (rr + sampling <= 0.0) {
    return 1.0;
  }
  return std::erf(z * std::sqrt(rr / (rr + sampling)) / std::sqrt(2.0));
}

// Adds the accuracy and interval coverage of the session's timed windows,
// against the per-epoch exact counts, to pass.quality.
void EvaluateSession(
    const Workload& workload,
    const std::map<std::pair<uint64_t, int64_t>, pa::Histogram>& truth,
    PassResult& pass) {
  Quality& quality = pass.quality;
  for (size_t r = pass.first_timed_result; r < pass.results.size(); ++r) {
    const pa::aggregator::WindowedResult& wr = pass.results[r];
    const QuerySpec& spec = *std::find_if(
        workload.queries.begin(), workload.queries.end(),
        [&](const QuerySpec& q) { return q.query.query_id == wr.query_id; });
    const size_t num_buckets = wr.result.buckets.size();
    // The estimator scales to the population the mean fraction over every
    // answer in the window; each epoch contributes equally in expectation,
    // so the exact reference is the mean of the per-epoch exact counts.
    pa::Histogram exact(num_buckets);
    size_t epochs = 0;
    for (int64_t t = wr.window.start_ms; t < wr.window.end_ms;
         t += kPeriodMs) {
      const auto it = truth.find({wr.query_id, t});
      if (it != truth.end()) {
        exact.Merge(it->second);
        ++epochs;
      }
    }
    if (epochs == 0) {
      throw std::logic_error("no exact counts for a timed window");
    }
    for (size_t b = 0; b < num_buckets; ++b) {
      exact.SetCount(b, exact.Count(b) / static_cast<double>(epochs));
    }
    quality.loss_sum += wr.result.WeightedAccuracyLossAgainst(exact);
    quality.eq6_loss_sum += wr.result.AccuracyLossAgainst(exact);
    ++quality.windows;
    quality.confidence = wr.result.confidence;

    const double population = static_cast<double>(wr.result.population);
    const double n = static_cast<double>(wr.result.participants);
    const bool modelled = wr.result.participants < wr.result.population;
    const double z =
        pa::stats::NormalQuantile(1.0 - (1.0 - wr.result.confidence) / 2.0);
    Coverage& coverage = modelled ? quality.modelled : quality.unmodelled;
    for (size_t b = 0; b < num_buckets; ++b) {
      const auto& estimate = wr.result.buckets[b].estimate;
      ++coverage.buckets;
      if (std::fabs(estimate.value - exact.Count(b)) <= estimate.error) {
        ++coverage.covered;
      }
      coverage.expected +=
          modelled ? wr.result.confidence
                   : RandomizationOnlyCoverage(
                         spec.params,
                         std::clamp(exact.Count(b) / population, 0.0, 1.0), n,
                         static_cast<double>(epochs) * population, z);
    }
    // Buckets of windows whose intervals model every error term cover
    // independently enough to count one trial each. Where the sampling term
    // is missing, a window's buckets miss together: they, the windows
    // overlapping it and the other queries (one sampling coin per client
    // and epoch) share the same omitted draw, so each window counts only
    // its slide / window length share of one trial.
    coverage.trials +=
        modelled ? static_cast<double>(num_buckets)
                 : static_cast<double>(spec.query.sliding_interval_ms) /
                       static_cast<double>(spec.query.window_length_ms);
  }
}

}  // namespace

Workload MakeWorkload(const Options& options) {
  using pa::workload::ElectricityGenerator;
  using pa::workload::TaxiGenerator;
  Workload w;
  w.name = options.workload;
  if (w.name == "inproc_taxi" || w.name == "socket_taxi") {
    w.deployment = w.name == "inproc_taxi" ? Deployment::kInProcess
                                           : Deployment::kSocket;
    w.clients = 2000;
    w.queries.push_back(
        {TaxiGenerator::MakeDistanceQuery(1, kPeriodMs, kPeriodMs),
         PaperParams()});
  } else if (w.name == "durable_multiquery") {
    w.durable = true;
    w.clients = 600;
    // Both proxies' stages are busy with write-through here, so a second
    // answer worker would make five busy threads on four cores.
    w.workers = 1;
    const int64_t window_ms = 5 * kPeriodMs;
    w.queries.push_back(
        {TaxiGenerator::MakeDistanceQuery(1, window_ms, kPeriodMs),
         PaperParams()});
    w.queries.push_back(
        {TaxiGenerator::MakeDistanceQuery(2, window_ms, kPeriodMs),
         PaperParams()});
    w.queries.push_back(
        {ElectricityGenerator::MakeUsageQuery(3, window_ms, kPeriodMs),
         PaperParams()});
    w.queries.push_back(
        {ElectricityGenerator::MakeUsageQuery(4, window_ms, kPeriodMs),
         PaperParams()});
  } else {
    throw std::invalid_argument("unknown workload '" + w.name + "'");
  }
  if (options.clients != 0) {
    w.clients = options.clients;
  }
  return w;
}

uint64_t SessionSeed(uint64_t seed, int session) {
  return session == 0 ? seed : Mix(seed, static_cast<uint64_t>(session), 3);
}

SetupPacer::SetupPacer(const Options& options)
    : deadline_ns_(NowNs() + int64_t{options.seconds} * 1000000000) {}

NextSetup SetupPacer::Next(const PassResult& pass) const {
  if (pass.session_digests.empty() || NowNs() < deadline_ns_) {
    return NextSetup::kSession;
  }
  return pass.setup_s.size() < static_cast<size_t>(kMinSetups)
             ? NextSetup::kSetupOnly
             : NextSetup::kDone;
}

ClientStreams::ClientStreams(const Workload& workload, uint64_t seed,
                             int total_epochs) {
  const int64_t horizon = EpochNowMs(total_epochs - 1);
  const int64_t taxi_window = WindowOf(workload, false);
  const int64_t meter_window = WindowOf(workload, true);
  taxi_ = taxi_window != 0;
  meter_ = meter_window != 0;
  keep_ms_ = std::max(taxi_window, meter_window);
  rides_.resize(workload.clients);
  readings_.resize(workload.clients);
  next_ride_.assign(workload.clients, 0);
  next_reading_.assign(workload.clients, 0);
  for (size_t i = 0; i < workload.clients; ++i) {
    if (taxi_) {
      pa::workload::TaxiGenerator taxi(Mix(seed, i, 1));
      std::vector<Ride>& rides = rides_[i];
      rides.reserve(kRidesPerWindow * (horizon / taxi_window + 1));
      for (int64_t start = 0; start < horizon; start += taxi_window) {
        for (int r = 0; r < kRidesPerWindow; ++r) {
          const pa::workload::TaxiRide ride =
              taxi.NextRide(start, start + taxi_window);
          auto known =
              std::find(boroughs_.begin(), boroughs_.end(), ride.borough);
          if (known == boroughs_.end()) {
            known = boroughs_.insert(known, ride.borough);
          }
          rides.push_back({ride.pickup_ms, ride.distance_miles, ride.fare_usd,
                           static_cast<uint32_t>(known - boroughs_.begin())});
        }
      }
      std::stable_sort(rides.begin(), rides.end(),
                       [](const Ride& a, const Ride& b) {
                         return a.ts_ms < b.ts_ms;
                       });
    }
    if (meter_) {
      pa::workload::ElectricityGenerator meter(Mix(seed, i, 2));
      readings_[i].reserve(kReadingsPerWindow * (horizon / meter_window + 1));
      for (int64_t start = 0; start < horizon; start += meter_window) {
        for (int k = 0; k < kReadingsPerWindow; ++k) {
          readings_[i].push_back(
              {start + k * meter_window / kReadingsPerWindow,
               meter.NextConsumptionKwh() / kReadingsPerWindow});
        }
      }
    }
  }
}

void ClientStreams::Feed(size_t index, pa::localdb::Database& db,
                         int64_t now_ms) {
  // The tables and columns pa::workload's generators create.
  if (taxi_) {
    pa::localdb::Table& table =
        TableOf(db, "rides", {"distance", "fare", "borough"});
    const std::vector<Ride>& rides = rides_[index];
    size_t& next = next_ride_[index];
    for (; next < rides.size() && rides[next].ts_ms < now_ms; ++next) {
      const Ride& ride = rides[next];
      table.Insert(ride.ts_ms, {pa::localdb::Value(ride.distance),
                                pa::localdb::Value(ride.fare),
                                pa::localdb::Value(boroughs_[ride.borough])});
    }
  }
  if (meter_) {
    pa::localdb::Table& table = TableOf(db, "meter", {"kwh"});
    const std::vector<Reading>& readings = readings_[index];
    size_t& next = next_reading_[index];
    for (; next < readings.size() && readings[next].ts_ms < now_ms; ++next) {
      table.Insert(readings[next].ts_ms,
                   {pa::localdb::Value(readings[next].kwh)});
    }
  }
  db.EvictBefore(now_ms - keep_ms_);
}

LaneBatches::LaneBatches(const Workload& workload)
    : workload_(workload),
      batches_(workload.queries.size(),
               std::vector<std::vector<pa::broker::ProduceView>>(
                   workload.proxies)),
      views_(workload.queries.size() * workload.proxies) {}

uint64_t LaneBatches::Answer(
    std::vector<std::unique_ptr<pa::client::Client>>& clients,
    int64_t now_ms) {
  const size_t num_proxies = workload_.proxies;
  for (auto& per_proxy : batches_) {
    for (auto& batch : per_proxy) {
      batch.clear();
    }
  }
  uint64_t participants = 0;
  for (auto& client : clients) {
    client->AnswerSubscribedInto(now_ms, arena_, views_, answered_);
    size_t k = 0;
    for (const uint64_t qid : answered_) {
      while (workload_.queries[k].query.query_id != qid) {
        ++k;
      }
      ++participants;
      for (size_t j = 0; j < num_proxies; ++j) {
        const pa::crypto::ShareView& view = views_[k * num_proxies + j];
        batches_[k][j].push_back(
            pa::broker::ProduceView{view.message_id, view.bytes(), now_ms});
      }
    }
  }
  return participants;
}

void DriveEpochs(const Workload& workload, ClientStreams& streams,
                 const ClientAt& client_at, Tracer* tracer,
                 const EpochHooks& hooks, PassResult& pass) {
  int64_t max_window_ms = kPeriodMs;
  for (const QuerySpec& spec : workload.queries) {
    max_window_ms = std::max(max_window_ms, spec.query.window_length_ms);
  }
  // A timed window also covers the epochs up to one window length before
  // the first timed epoch.
  const int first_exact = std::max(
      0, kWarmupEpochs - static_cast<int>(max_window_ms / kPeriodMs) + 1);
  // Exact counts per (QID, epoch time).
  std::map<std::pair<uint64_t, int64_t>, pa::Histogram> truth;

  std::vector<double>& epoch_ms = pass.session_epoch_ms.emplace_back();
  const uint64_t joined_before = pass.answers_joined;
  pass.results.clear();
  pass.run_shares_sent = 0;
  for (int epoch = 0; epoch < kTotalEpochs; ++epoch) {
    const int64_t now = EpochNowMs(epoch);
    for (size_t i = 0; i < workload.clients; ++i) {
      streams.Feed(i, client_at(i).database(), now);
    }
    if (epoch >= first_exact) {
      std::vector<pa::Histogram*> counts;
      for (const QuerySpec& spec : workload.queries) {
        pa::Histogram& h = truth[{spec.query.query_id, now}];
        h = pa::Histogram(spec.query.answer_format.num_buckets());
        counts.push_back(&h);
      }
      ScopedSpan span(tracer, "client.sql", static_cast<uint32_t>(epoch));
      const int64_t start = NowNs();
      for (size_t i = 0; i < workload.clients; ++i) {
        pa::client::Client& client = client_at(i);
        for (size_t k = 0; k < workload.queries.size(); ++k) {
          const pa::BitVector bits =
              client.TruthfulAnswer(workload.queries[k].query.query_id, now);
          for (size_t b = 0; b < bits.size(); ++b) {
            if (bits.Get(b)) {
              counts[k]->Add(b);
            }
          }
        }
      }
      pass.sql_ns += NowNs() - start;
      pass.sql_client_epochs += workload.clients;
    }

    const bool timed = epoch >= kWarmupEpochs;
    if (epoch == kWarmupEpochs) {
      hooks.snapshot(true);
      pass.first_timed_result = pass.results.size();
    }
    const uint64_t allocs_before = pa::AllocCounter::Count();
    const int64_t start_ns = NowNs();
    EpochOutcome outcome;
    try {
      outcome = hooks.run(epoch);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: epoch %d failed: %s\n", epoch,
                   e.what());
      ++pass.failed_epochs;
      const uint64_t sent = hooks.shares_sent_so_far() - pass.run_shares_sent;
      pass.run_shares_sent += sent;
      if (timed) {
        pass.shares_sent += sent;
        pass.failed_epoch_shares += sent;
      }
      continue;
    }
    const int64_t end_ns = NowNs();
    const uint64_t allocs = pa::AllocCounter::Count() - allocs_before;
    pass.run_shares_sent += outcome.shares_sent;
    if (timed) {
      epoch_ms.push_back(static_cast<double>(end_ns - start_ns) / 1e6);
      pass.shares_sent += outcome.shares_sent;
      pass.participants += outcome.participants;
      pass.allocs += allocs;
    }
    for (auto& result : outcome.results) {
      pass.results.push_back(std::move(result));
    }
  }
  hooks.snapshot(false);
  pass.session_shares_joined.push_back((pass.answers_joined - joined_before) *
                                       workload.proxies);
  pass.session_digests.push_back(ResultDigest(pass.results));
  if (pass.results.size() - pass.first_timed_result !=
      static_cast<size_t>(kTimedEpochs) * workload.queries.size()) {
    ++pass.sessions_short_of_windows;
  }
  if (pass.session_digests.size() == 1) {
    pass.first_session_peak_rss_mb = PeakRssMb();
  }
  EvaluateSession(workload, truth, pass);
}

void AddJoinDelta(const pa::engine::JoinStats& before,
                  const pa::engine::JoinStats& after, PassResult& pass) {
  pass.join_joined += after.joined - before.joined;
  pass.join_evicted += after.evicted_partial - before.evicted_partial;
  pass.join_late += after.late_dropped - before.late_dropped;
  pass.answers_joined += after.joined - before.joined;
}

std::vector<std::unique_ptr<pa::client::Client>> MakeClients(
    const Workload& workload, const Options& options) {
  std::vector<std::unique_ptr<pa::client::Client>> clients;
  for (size_t i = 0; i < workload.clients; ++i) {
    pa::client::ClientConfig config;
    config.client_id = i;
    config.num_proxies = workload.proxies;
    config.seed = options.seed;
    clients.push_back(std::make_unique<pa::client::Client>(config));
  }
  return clients;
}

double Coverage::Floor() const {
  if (buckets == 0) {
    return 0.0;
  }
  const double share = expected / static_cast<double>(buckets);
  return share - kCoverageSigmas * std::sqrt(share * (1.0 - share) / trials);
}

uint64_t ResultDigest(
    const std::vector<pa::aggregator::WindowedResult>& results) {
  const std::vector<uint8_t> bytes = pa::deploy::SerializeResults(results);
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

ScratchDir::ScratchDir(const Options& options, const std::string& tag)
    : path_(options.work_dir + "/" + tag + "-" + std::to_string(getpid())) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

uint64_t ScratchDir::Bytes() const {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path_)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

}  // namespace perfbench
