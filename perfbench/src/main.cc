// perfbench: the steady-state epoch benchmark.
//
//   perfbench --workload <inproc_taxi|socket_taxi|durable_multiquery>
//             --seed N --seconds S --trace 0|1
//             [--clients N] [--work-dir DIR]
//
// --trace 0 runs the untraced pass and prints the end-to-end metrics.
// --trace 1 runs the untraced pass, then a traced pass over the same inputs,
// prints the per-layer metrics and writes a chrome://tracing file. Every
// run checks its outputs; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is 0 only
// when every check passed. Lines starting with '#' before it carry the
// fingerprint and the check details.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "common/simd_dispatch.h"
#include "passes.h"
#include "tracer.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Compact JSON writer for the flat objects this file prints.
class JsonObject {
 public:
  JsonObject& Str(const std::string& key, const std::string& value) {
    Key(key);
    out_ += "\"" + value + "\"";
    return *this;
  }
  JsonObject& Num(const std::string& key, double value) {
    Key(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out_ += buf;
    return *this;
  }
  JsonObject& Int(const std::string& key, uint64_t value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonObject& Bool(const std::string& key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    Key(key);
    out_ += json;
    return *this;
  }
  std::string Done() const { return "{" + out_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!out_.empty()) {
      out_ += ",";
    }
    out_ += "\"" + key + "\":";
  }
  std::string out_;
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// "[a,b,...]" from already-encoded JSON values.
std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) {
      out += ',';
    }
    out += item;
  }
  out += ']';
  return out;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--clients") {
      options.clients = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds >= 1;
}

std::string Fingerprint(const Workload& workload, const Options& options) {
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  const bool socket = workload.deployment == Deployment::kSocket;
  return JsonObject()
      .Str("host", host)
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("simd", pa::simd::IsaName(pa::simd::ActiveIsa()))
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("workload", workload.name)
      .Int("seed", options.seed)
      .Int("clients", workload.clients)
      .Int("queries", workload.queries.size())
      .Int("proxies", workload.proxies)
      .Bool("durable", workload.durable)
      .Int("warmup_epochs", kWarmupEpochs)
      .Int("timed_epochs_per_session", kTimedEpochs)
      .Int("period_ms", kPeriodMs)
      .Int("seconds", static_cast<uint64_t>(options.seconds))
      // In process: the epoch pipeline's worker pool. Over sockets: one
      // driver thread plus one event-loop thread per daemon.
      .Int("worker_threads", socket ? 1 : workload.workers)
      .Int("daemon_threads", socket ? workload.proxies + 1 : 0)
      .Bool("trace", options.trace)
      .Done();
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) {
    out.Raw(m.name,
            JsonObject().Num("value", m.value).Str("unit", m.unit).Done());
  }
  return out.Done();
}

// Every timing figure is a per-session statistic, then the median over
// sessions: the host slows down in bursts of a few seconds, and a burst
// that catches a minority of the sessions moves the median over sessions
// no more than the sessions it missed do. A session's rate is its joined
// shares over the sum of its timed epochs' latencies, which leaves out the
// untimed feeding between epochs. The tail metric is p75: on a shared host
// p90 follows other tenants' load (its run-to-run spread reached 0.33-0.48
// where p50's was 0.11-0.21), so p90 goes on the checks line, where it
// still shows whether an epoch fits in the 1 s query period.
struct Timings {
  double shares_per_sec = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;

  explicit Timings(const PassResult& pass) {
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> p75s;
    std::vector<double> p90s;
    for (size_t s = 0; s < pass.session_epoch_ms.size(); ++s) {
      const std::vector<double>& epoch_ms = pass.session_epoch_ms[s];
      double timed_s = 0.0;
      for (const double ms : epoch_ms) {
        timed_s += ms / 1e3;
      }
      rates.push_back(Ratio(
          static_cast<double>(pass.session_shares_joined[s]), timed_s));
      p50s.push_back(Median(epoch_ms));
      p75s.push_back(Percentile(epoch_ms, 0.75));
      p90s.push_back(Percentile(epoch_ms, 0.9));
    }
    shares_per_sec = Median(rates);
    p50 = Median(p50s);
    p75 = Median(p75s);
    p90 = Median(p90s);
  }
};

std::vector<Metric> EndToEnd(const PassResult& untraced) {
  const Timings timings(untraced);
  return {
      {"shares_per_sec", "shares/s", timings.shares_per_sec},
      {"epoch_ms_p50", "ms", timings.p50},
      {"epoch_ms_p75", "ms", timings.p75},
      {"setup_s", "s", Median(untraced.setup_s)},
      {"peak_rss_mb", "MB", untraced.first_session_peak_rss_mb},
      {"accuracy_loss", "ratio", untraced.quality.AccuracyLoss()},
      {"bytes_per_share", "B/share",
       Ratio(static_cast<double>(untraced.client_bytes),
             static_cast<double>(untraced.shares_sent))},
  };
}

std::vector<Metric> PerLayer(const Workload& workload,
                             const PassResult& untraced,
                             const PassResult& traced, const Tracer& tracer) {
  const auto first = static_cast<uint32_t>(kWarmupEpochs);
  const auto last = static_cast<uint32_t>(kTotalEpochs);
  const double epochs = kTimedEpochs;
  std::map<std::string, int64_t> self = tracer.SelfNs(first, last);
  const double shares = static_cast<double>(traced.shares_sent);
  const auto per_share = [&](const char* span) {
    return Ratio(static_cast<double>(self[span]), shares);
  };
  const bool socket = workload.deployment == Deployment::kSocket;
  // In process the join stats are exact; the daemon does not export them,
  // so over sockets joined answers come from the fired windows.
  const double join_ratio =
      socket ? Ratio(static_cast<double>(traced.answers_joined),
                     static_cast<double>(traced.participants))
             : Ratio(static_cast<double>(traced.join_joined),
                     static_cast<double>(traced.join_joined +
                                         traced.join_evicted +
                                         traced.join_late));
  const double epoch_total =
      static_cast<double>(tracer.TotalNs("epoch", first, last));
  return {
      {"client.answer_ns_per_share", "ns/share", per_share("client.answer")},
      {"client.sql_ns_per_client", "ns/client",
       Ratio(static_cast<double>(traced.sql_ns),
             static_cast<double>(traced.sql_client_epochs))},
      {"client.participation_ratio", "ratio",
       Ratio(static_cast<double>(traced.participants),
             static_cast<double>(workload.clients * workload.queries.size()) *
                 epochs)},
      {"client.allocs_per_share", "allocs/share",
       Ratio(static_cast<double>(traced.client_allocs), shares)},
      {"proxy.receive_ns_per_share", "ns/share", per_share("proxy.receive")},
      {"proxy.forward_ns_per_share", "ns/share", per_share("proxy.forward")},
      {"proxy.allocs_per_share", "allocs/share",
       Ratio(static_cast<double>(traced.proxy_allocs), shares)},
      {"storage.bytes_per_share", "B/share",
       Ratio(static_cast<double>(traced.storage_bytes),
             static_cast<double>(traced.run_shares_sent))},
      {"transport.produce_ns_per_share", "ns/share",
       per_share("transport.produce")},
      {"transport.forward_rpc_ns_per_share", "ns/share",
       per_share("transport.forward_rpc")},
      {"transport.drain_rpc_ns_per_share", "ns/share",
       per_share("transport.drain_rpc")},
      {"transport.bytes_per_share", "B/share",
       Ratio(static_cast<double>(untraced.transport_bytes),
             static_cast<double>(untraced.shares_sent))},
      {"transport.frames_per_epoch", "frames/epoch",
       Ratio(static_cast<double>(untraced.transport_frames), epochs)},
      {"aggregator.drain_ns_per_share", "ns/share",
       per_share("aggregator.drain")},
      {"aggregator.fire_ns_per_epoch", "ns/epoch",
       Ratio(static_cast<double>(self["aggregator.fire"]), epochs)},
      {"aggregator.join_ratio", "ratio", join_ratio},
      {"system.parallel_speedup", "ratio",
       Ratio(Median(traced.session_epoch_ms.at(0)),
             Timings(untraced).p50)},
      {"system.trace_coverage", "ratio",
       1.0 - Ratio(static_cast<double>(self["epoch"]), epoch_total)},
      {"system.allocs_per_share", "allocs/share",
       Ratio(static_cast<double>(untraced.allocs),
             static_cast<double>(untraced.shares_sent))},
  };
}

void WriteTrace(const Options& options, const Workload& workload,
                const Tracer& tracer, const std::string& fingerprint,
                const std::vector<Metric>& per_layer) {
  const std::filesystem::path dir =
      std::filesystem::path(options.work_dir).parent_path() /
      "perfbench-traces";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / (workload.name + "-seed" +
                                   std::to_string(options.seed) + ".json"))
                               .string();
  std::map<uint32_t, double> fire_curve;
  std::vector<std::string> warmup_curve;
  for (const auto& [epoch, ns] : tracer.DurationsByTrace("aggregator.fire")) {
    fire_curve[epoch] = static_cast<double>(ns);
    if (epoch < static_cast<uint32_t>(kWarmupEpochs)) {
      warmup_curve.push_back(std::to_string(ns));
    }
  }
  const std::string other =
      JsonObject()
          .Raw("fingerprint", fingerprint)
          .Raw("per_layer", MetricsJson(per_layer))
          .Raw("warmup_aggregator_fire_ns", JsonArray(warmup_curve))
          .Done();
  std::ofstream out(path);
  out << tracer.ChromeJson({{"aggregator.fire_ns_per_epoch", fire_curve}},
                           other);
  std::printf("# trace %s\n", path.c_str());
}

int Run(const Options& options) {
  const Workload workload = MakeWorkload(options);
  const bool socket = workload.deployment == Deployment::kSocket;
  const std::string fingerprint = Fingerprint(workload, options);
  std::printf("# fingerprint %s\n", fingerprint.c_str());

  const PassResult untraced = socket ? RunFleetPass(workload, options)
                                     : RunSystemPass(workload, options);
  Tracer tracer;
  PassResult traced;
  if (options.trace) {
    traced = socket ? RunSocketTracedPass(workload, options, tracer)
                    : RunComposedPass(workload, options, tracer);
  }

  // Correctness checks.
  const Quality& quality = untraced.quality;
  const bool coverage_ok = quality.CoverageOk();
  const bool malformed_ok = untraced.malformed == 0 && traced.malformed == 0;
  const bool windows_ok =
      untraced.sessions_short_of_windows + traced.sessions_short_of_windows ==
      0;
  // Session 0 and the traced pass run the same seed.
  const uint64_t digest = untraced.session_digests.at(0);
  const uint64_t traced_digest =
      options.trace ? traced.session_digests.at(0) : digest;
  const bool digest_ok = digest == traced_digest;
  const bool correct = coverage_ok && malformed_ok && windows_ok && digest_ok;

  // Timed epochs only: shares sent, and of those the ones a throwing epoch
  // sent, the ones never joined and the malformed ones.
  const uint64_t attempted = untraced.shares_sent;
  const uint64_t completed = attempted - untraced.failed_epoch_shares;
  const uint64_t joined_shares = untraced.answers_joined * workload.proxies;
  const uint64_t failed = std::min(
      attempted, untraced.failed_epoch_shares +
                     (completed - std::min(completed, joined_shares)) +
                     untraced.timed_malformed);

  std::vector<std::string> session_digests;
  for (const uint64_t d : untraced.session_digests) {
    std::string quoted = "\"";
    quoted += Hex(d);
    quoted += '"';
    session_digests.push_back(quoted);
  }
  std::vector<std::string> setups;
  for (const double setup : untraced.setup_s) {
    setups.push_back(std::to_string(setup));
  }
  std::vector<std::string> session_p50s;
  for (const std::vector<double>& epoch_ms : untraced.session_epoch_ms) {
    session_p50s.push_back(std::to_string(Median(epoch_ms)));
  }
  JsonObject checks;
  checks.Str("digest", Hex(digest))
      .Str("traced_digest", options.trace ? Hex(traced_digest) : "")
      .Bool("digest_ok", digest_ok)
      .Int("sessions", untraced.session_digests.size())
      .Int("setups", untraced.setup_s.size())
      .Raw("session_digests", JsonArray(session_digests))
      .Num("confidence", quality.confidence)
      .Int("ci_buckets", quality.modelled.buckets)
      .Num("ci_coverage", quality.modelled.Share())
      .Num("ci_coverage_floor", quality.modelled.Floor())
      .Int("ci_unmodelled_buckets", quality.unmodelled.buckets)
      .Num("ci_unmodelled_coverage", quality.unmodelled.Share())
      .Num("ci_unmodelled_expected",
           Ratio(quality.unmodelled.expected,
                 static_cast<double>(quality.unmodelled.buckets)))
      .Num("ci_unmodelled_floor", quality.unmodelled.Floor())
      .Bool("ci_ok", coverage_ok)
      .Num("eq6_accuracy_loss", quality.Eq6AccuracyLoss())
      .Int("malformed", untraced.malformed + traced.malformed)
      .Bool("malformed_ok", malformed_ok)
      .Bool("windows_ok", windows_ok)
      .Int("failed_epochs", untraced.failed_epochs + traced.failed_epochs)
      .Raw("session_epoch_ms_p50", JsonArray(session_p50s))
      .Num("epoch_ms_p90", Timings(untraced).p90)
      .Raw("setup_s", JsonArray(setups))
      .Num("trace_coverage_tolerance", kTraceCoverageTolerance);
  std::printf("# checks %s\n", checks.Done().c_str());

  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = PerLayer(workload, untraced, traced, tracer);
    WriteTrace(options, workload, tracer, fingerprint, metrics);
  } else {
    metrics = EndToEnd(untraced);
  }
  std::printf("%s\n", JsonObject()
                          .Bool("correct", correct)
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Raw("metrics", MetricsJson(metrics))
                          .Done()
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--clients N] [--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::Run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
