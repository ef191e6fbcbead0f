// Figure 5(b): proxy throughput vs the answer bit-vector size A[n].
//
// Measures the real transmission path: clients' encrypted shares are
// produced into one query lane's inbound topic and ForwardLanes() moves them
// to the lane's outbound topic — the only per-answer work a PrivApprox proxy
// does.
// Registered as a google-benchmark so the per-size timings come from steady-
// state measurement, then summarized as the paper's responses/sec series.
//
// Expected shape: throughput inversely proportional to the bit-vector size.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "broker/broker.h"
#include "crypto/xor_cipher.h"
#include "proxy/proxy.h"
#include "transport/inproc_bus.h"

using namespace privapprox;

namespace {

constexpr uint64_t kQueryId = 1;

// Pre-build a batch of shares of the given answer size.
std::vector<crypto::MessageShare> MakeShares(size_t bit_vector_size,
                                             size_t count) {
  crypto::XorSplitter splitter(2, crypto::ChaCha20Rng::FromSeed(1, 0));
  const std::vector<uint8_t> payload(
      crypto::AnswerMessage::WireSize(bit_vector_size), 0xAB);
  std::vector<crypto::MessageShare> shares;
  shares.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    shares.push_back(splitter.Split(payload)[0]);
  }
  return shares;
}

void BM_ProxyForward(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  constexpr size_t kBatch = 20000;
  const auto shares = MakeShares(bits, kBatch);
  std::vector<std::vector<uint8_t>> encoded;
  std::vector<broker::ProduceView> views;
  encoded.reserve(shares.size());
  views.reserve(shares.size());
  for (const auto& share : shares) {
    encoded.push_back(proxy::Proxy::EncodeShare(share));
    views.push_back(broker::ProduceView{share.message_id, encoded.back(), 0});
  }
  uint64_t total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    broker::Broker b;
    transport::InProcessBus bus(b);
    proxy::Proxy proxy(proxy::ProxyConfig{0, 4}, bus);
    proxy.EnsureLane(kQueryId);
    proxy.Receive(kQueryId, views);
    state.ResumeTiming();
    total += proxy.ForwardLanes();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["responses/sec"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_ProxyForward)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Figure 5(b): proxy throughput vs answer bit-vector size.\n"
      "Expected shape: responses/sec inversely proportional to A[n] size\n"
      "(paper: ~1.8M/s at 100 bits falling toward ~0.15M/s at 10^4 bits on\n"
      "their 3-node cluster; absolute numbers here are single-host).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
