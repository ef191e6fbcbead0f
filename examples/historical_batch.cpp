// Historical analytics (paper §3.3.1): stream for several epochs while
// teeing joined answers into the historical store, then run batch queries
// over past time ranges under different aggregator-side sampling budgets
// (the "spot market" knob).
//
// Build & run:  ./build/examples/historical_batch

#include <cstdio>

#include "system/system.h"
#include "workload/taxi.h"

using namespace privapprox;

int main() {
  constexpr size_t kClients = 1500;
  constexpr int64_t kSlideMs = 10 * 1000;
  constexpr int kEpochs = 8;

  system::SystemConfig config;
  config.num_clients = kClients;
  config.seed = 33;
  config.historical.enabled = true;
  system::PrivApproxSystem sys(config);

  workload::TaxiGenerator generator(44);
  const core::Query query = workload::TaxiGenerator::MakeDistanceQuery(
      5, /*window_ms=*/kSlideMs, /*slide_ms=*/kSlideMs);
  core::ExecutionParams params;
  params.sampling_fraction = 0.8;
  params.randomization = {0.9, 0.3};
  sys.SubmitQuery(query, params);

  // Stream kEpochs epochs; the aggregator tees every joined answer.
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    const int64_t now = epoch * kSlideMs;
    for (size_t i = 0; i < kClients; ++i) {
      generator.PopulateClient(sys.client(i).database(), 1, now - kSlideMs,
                               now);
    }
    sys.RunEpoch(now);
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  std::printf("Streamed %d epochs; %zu windowed results emitted.\n\n",
              kEpochs, sys.results().size());

  // Batch analytics over the first half vs the whole run, under shrinking
  // budgets.
  const int64_t half = kEpochs / 2 * kSlideMs + kSlideMs;
  struct Case {
    const char* label;
    int64_t from, to;
    double budget;
  };
  const Case cases[] = {
      {"full range, full budget", 0, (kEpochs + 1) * kSlideMs, 1.0},
      {"full range, 30% budget", 0, (kEpochs + 1) * kSlideMs, 0.3},
      {"full range, 10% budget", 0, (kEpochs + 1) * kSlideMs, 0.1},
      {"first half, full budget", 0, half, 1.0},
  };
  std::printf("%-26s %12s %14s %16s\n", "batch query", "answers",
              "bucket0 est", "bucket0 95% CI");
  for (const Case& c : cases) {
    const core::QueryResult result =
        sys.RunHistorical(c.from, c.to, aggregator::BatchQueryBudget{c.budget});
    const auto& est = result.buckets[0].estimate;
    std::printf("%-26s %12zu %14.1f [%7.1f,%8.1f]\n", c.label,
                result.participants, est.value, est.Lower(), est.Upper());
  }
  std::printf(
      "\nNote how smaller aggregator budgets process fewer stored answers\n"
      "and report proportionally wider confidence intervals.\n");
  return 0;
}
