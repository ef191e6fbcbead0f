// Tests for the proxy runtime: share encode/decode, transmission-only
// forwarding, and the parallel forwarding path.

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "proxy/proxy.h"
#include "transport/inproc_bus.h"

namespace privapprox::proxy {
namespace {

TEST(ProxyTest, CreatesItsTopics) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 2}, bus);
  EXPECT_TRUE(b.HasTopic("proxy0.in"));
  EXPECT_TRUE(b.HasTopic("proxy0.out"));
  EXPECT_EQ(proxy.index(), 0u);
}

TEST(ProxyTest, ShareEncodeDecodeRoundTrip) {
  const crypto::MessageShare share{0x0123456789ABCDEFULL, {1, 2, 3, 0xFF}};
  const auto bytes = Proxy::EncodeShare(share);
  EXPECT_EQ(bytes.size(), 8u + 4u);
  EXPECT_EQ(Proxy::DecodeShare(bytes), share);
}

TEST(ProxyTest, DecodeRejectsTruncatedShare) {
  const std::vector<uint8_t> truncated{1, 2, 3};
  EXPECT_THROW(Proxy::DecodeShare(truncated), std::invalid_argument);
}

TEST(ProxyTest, DecodeOfEmptyPayloadShare) {
  const crypto::MessageShare share{42, {}};
  EXPECT_EQ(Proxy::DecodeShare(Proxy::EncodeShare(share)), share);
}

TEST(ProxyTest, ForwardMovesEverythingInToOut) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{1, 4}, bus);
  for (uint64_t mid = 0; mid < 100; ++mid) {
    proxy.Receive(crypto::MessageShare{mid, {static_cast<uint8_t>(mid)}},
                  static_cast<int64_t>(mid));
  }
  EXPECT_EQ(proxy.Forward(), 100u);
  EXPECT_EQ(proxy.forwarded(), 100u);
  broker::Consumer consumer(b.GetTopic("proxy1.out"));
  size_t count = 0;
  while (!consumer.CaughtUp()) {
    for (const auto& record : consumer.Poll(32)) {
      const auto share = Proxy::DecodeShare(record.payload);
      EXPECT_EQ(share.payload.size(), 1u);
      ++count;
    }
  }
  EXPECT_EQ(count, 100u);
}

TEST(ProxyTest, ForwardPreservesTimestamps) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 1}, bus);
  proxy.Receive(crypto::MessageShare{1, {9}}, 12345);
  proxy.Forward();
  broker::Consumer consumer(b.GetTopic("proxy0.out"));
  const auto records = consumer.Poll(10);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp_ms, 12345);
}

TEST(ProxyTest, ForwardOnEmptyQueueIsZero) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 2}, bus);
  EXPECT_EQ(proxy.Forward(), 0u);
}

TEST(ProxyTest, RepeatedForwardOnlyMovesNewRecords) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 2}, bus);
  proxy.Receive(crypto::MessageShare{1, {1}}, 0);
  EXPECT_EQ(proxy.Forward(), 1u);
  EXPECT_EQ(proxy.Forward(), 0u);
  proxy.Receive(crypto::MessageShare{2, {2}}, 0);
  EXPECT_EQ(proxy.Forward(), 1u);
  EXPECT_EQ(proxy.forwarded(), 2u);
}

TEST(ProxyTest, ParallelForwardMovesEverything) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 4}, bus);
  for (uint64_t mid = 0; mid < 5000; ++mid) {
    proxy.Receive(crypto::MessageShare{mid, {0, 1, 2}}, 0);
  }
  ThreadPool pool(4);
  EXPECT_EQ(proxy.ForwardParallel(pool), 5000u);
  broker::Consumer consumer(b.GetTopic("proxy0.out"));
  size_t count = 0;
  while (!consumer.CaughtUp()) {
    count += consumer.Poll(512).size();
  }
  EXPECT_EQ(count, 5000u);
}

TEST(ProxyTest, TwoProxiesAreIndependent) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy p0(ProxyConfig{0, 2}, bus);
  Proxy p1(ProxyConfig{1, 2}, bus);
  p0.Receive(crypto::MessageShare{1, {1}}, 0);
  EXPECT_EQ(p0.Forward(), 1u);
  EXPECT_EQ(p1.Forward(), 0u);  // p1 never saw the share
}

}  // namespace
}  // namespace privapprox::proxy
