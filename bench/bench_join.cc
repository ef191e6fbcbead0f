// MID share join (paper §3.2.4) in steady state: MidJoiner::Add ns/share and
// MidJoiner::EvictStale ns/epoch at 1 200 MIDs per 1 s epoch, every MID
// joined from two proxy streams, swept over the join timeout so the joiner
// remembers 10, 60 or 300 epochs of MIDs (12k / 72k / 360k).
//
// EvictStale forgets remembered MIDs through a stamp-ordered expiry index,
// so its cost follows the 1 200 MIDs that expire per epoch, not the history
// it remembers: the BM_JoinEvictStale rows stay flat across the sweep while
// the `remembered` counter grows 30x.
//
//   build/bench/bench_join [--benchmark_min_time=0.05]

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "engine/join.h"

namespace privapprox {
namespace {

constexpr size_t kMidsPerEpoch = 1200;
constexpr size_t kProxies = 2;
constexpr size_t kSharesPerEpoch = kMidsPerEpoch * kProxies;
constexpr int64_t kEpochMs = 1000;

// A joiner fed one epoch at a time: every MID (random, like client-drawn
// ones) gets a share from each proxy at the epoch's event time, and the
// watermark then advances to the epoch's end.
class SteadyJoin {
 public:
  // Runs history_epochs + 1 epochs so the remembered set is at its steady
  // size (history_epochs x 1 200) before measurement starts.
  explicit SteadyJoin(int64_t history_epochs)
      : joiner_(kProxies, history_epochs * kEpochMs,
                [](uint64_t, std::vector<uint8_t> plaintext, int64_t) {
                  benchmark::DoNotOptimize(plaintext.data());
                }) {
    for (int64_t e = 0; e <= history_epochs; ++e) {
      AddEpoch();
      AdvanceWatermark();
    }
  }

  void AddEpoch() {
    const int64_t event_ms = epoch_ * kEpochMs;
    for (size_t i = 0; i < kMidsPerEpoch; ++i) {
      const uint64_t mid = mids_.Next();
      for (size_t source = 0; source < kProxies; ++source) {
        joiner_.Add(mid, payload_, event_ms, source);
      }
    }
  }

  void AdvanceWatermark() {
    ++epoch_;
    joiner_.EvictStale(epoch_ * kEpochMs);
  }

  const engine::MidJoiner& joiner() const { return joiner_; }

 private:
  engine::MidJoiner joiner_;
  SplitMix64 mids_{42};
  std::array<uint8_t, 16> payload_{};
  int64_t epoch_ = 0;
};

void BM_JoinAdd(benchmark::State& state) {
  SteadyJoin join(state.range(0));
  for (auto _ : state) {
    join.AddEpoch();
    state.PauseTiming();
    join.AdvanceWatermark();
    state.ResumeTiming();
  }
  const double shares = static_cast<double>(state.iterations()) *
                        static_cast<double>(kSharesPerEpoch);
  state.SetItemsProcessed(static_cast<int64_t>(shares));
  // Seconds per share (printed with an SI prefix: "150n" = 150 ns).
  state.counters["per_share"] = benchmark::Counter(
      shares, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["remembered"] =
      static_cast<double>(join.joiner().remembered_mids());
}

void BM_JoinEvictStale(benchmark::State& state) {
  SteadyJoin join(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    join.AddEpoch();
    state.ResumeTiming();
    join.AdvanceWatermark();
  }
  state.counters["remembered"] =
      static_cast<double>(join.joiner().remembered_mids());
}

BENCHMARK(BM_JoinAdd)
    ->ArgName("history_epochs")
    ->Arg(10)
    ->Arg(60)
    ->Arg(300)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_JoinEvictStale)
    ->ArgName("history_epochs")
    ->Arg(10)
    ->Arg(60)
    ->Arg(300)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace privapprox

BENCHMARK_MAIN();
