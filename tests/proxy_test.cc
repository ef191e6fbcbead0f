// Tests for the proxy runtime: share encode/decode, lane topic naming, and
// transmission-only forwarding over per-query lanes.

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "proxy/proxy.h"
#include "ship_share.h"
#include "transport/inproc_bus.h"

namespace privapprox::proxy {
namespace {

constexpr uint64_t kQid = 7;

// Every record on `topic`, in partition order.
std::vector<broker::Record> ReadAll(broker::Broker& b,
                                    const std::string& topic) {
  const broker::Topic& t = b.GetTopic(topic);
  std::vector<broker::Record> out;
  for (size_t p = 0; p < t.num_partitions(); ++p) {
    for (broker::Record& r : t.Read(p, 0, t.EndOffset(p))) {
      out.push_back(std::move(r));
    }
  }
  return out;
}

TEST(ProxyTest, CreatesItsTopics) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 2}, bus);
  EXPECT_TRUE(b.HasTopic("proxy0.query.in"));
  EXPECT_TRUE(b.HasTopic("proxy0.query.out"));
  EXPECT_FALSE(b.HasTopic("proxy0.q7.in"));
  proxy.EnsureLane(kQid);
  EXPECT_TRUE(b.HasTopic("proxy0.q7.in"));
  EXPECT_TRUE(b.HasTopic("proxy0.q7.out"));
  EXPECT_EQ(proxy.lane_in_topic(kQid), "proxy0.q7.in");
  EXPECT_EQ(proxy.lane_out_topic(kQid), "proxy0.q7.out");
  // Shares move only over lanes: no QID-less topic pair.
  EXPECT_FALSE(b.HasTopic("proxy0.in"));
  EXPECT_FALSE(b.HasTopic("proxy0.out"));
  EXPECT_EQ(b.TopicNames().size(), 4u);
  EXPECT_EQ(proxy.index(), 0u);
}

TEST(ProxyTest, LaneTopicNamesRoundTrip) {
  EXPECT_EQ(DefaultTopicPrefix(3), "proxy3");
  EXPECT_EQ(LaneTopic("proxy3", 12, TopicEnd::kIn), "proxy3.q12.in");
  EXPECT_EQ(LaneTopic("standby0", 1, TopicEnd::kOut), "standby0.q1.out");
  EXPECT_EQ(ParseLaneTopic("proxy3", "proxy3.q12.in", TopicEnd::kIn), 12u);
  EXPECT_EQ(ParseLaneTopic("proxy3", "proxy3.q12.out", TopicEnd::kOut), 12u);
  for (const char* other :
       {"proxy3.q12.out", "proxy3.query.in", "proxy3.in", "proxy3.q.in",
        "proxy3.q-1.in", "proxy3.q+1.in", "proxy3.q1x.in", "proxy31.q1.in",
        "proxy3.q99999999999999999999.in", "proxy4.q12.in"}) {
    SCOPED_TRACE(other);
    EXPECT_EQ(ParseLaneTopic("proxy3", other, TopicEnd::kIn), std::nullopt);
  }
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
  metrics::Counter forwarded_total;
  ProxyConfig config{1, 4};
  config.forwarded_total = &forwarded_total;
  Proxy proxy(config, bus);
  proxy.EnsureLane(kQid);
  for (uint64_t mid = 0; mid < 100; ++mid) {
    Ship(proxy, kQid, crypto::MessageShare{mid, {static_cast<uint8_t>(mid)}},
         static_cast<int64_t>(mid));
  }
  EXPECT_EQ(proxy.ForwardLanes(), 100u);
  EXPECT_EQ(forwarded_total.Value(), 100u);
  const auto records = ReadAll(b, "proxy1.q7.out");
  ASSERT_EQ(records.size(), 100u);
  for (const auto& record : records) {
    const auto share = Proxy::DecodeShare(record.payload);
    EXPECT_EQ(share.message_id, record.key);
    EXPECT_EQ(share.payload.size(), 1u);
  }
}

TEST(ProxyTest, ForwardPreservesTimestamps) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 1}, bus);
  proxy.EnsureLane(kQid);
  Ship(proxy, kQid, crypto::MessageShare{1, {9}}, 12345);
  proxy.ForwardLanes();
  const auto records = ReadAll(b, proxy.lane_out_topic(kQid));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp_ms, 12345);
}

TEST(ProxyTest, ForwardOnEmptyQueueIsZero) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 2}, bus);
  EXPECT_EQ(proxy.ForwardLanes(), 0u);
  proxy.EnsureLane(kQid);
  EXPECT_EQ(proxy.ForwardLanes(), 0u);
}

TEST(ProxyTest, RepeatedForwardOnlyMovesNewRecords) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  metrics::Counter forwarded_total;
  ProxyConfig config{0, 2};
  config.forwarded_total = &forwarded_total;
  Proxy proxy(config, bus);
  proxy.EnsureLane(kQid);
  Ship(proxy, kQid, crypto::MessageShare{1, {1}}, 0);
  EXPECT_EQ(proxy.ForwardLanes(), 1u);
  EXPECT_EQ(proxy.ForwardLanes(), 0u);
  Ship(proxy, kQid, crypto::MessageShare{2, {2}}, 0);
  EXPECT_EQ(proxy.ForwardLanes(), 1u);
  EXPECT_EQ(forwarded_total.Value(), 2u);
}

TEST(ProxyTest, TwoProxiesAreIndependent) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy p0(ProxyConfig{0, 2}, bus);
  Proxy p1(ProxyConfig{1, 2}, bus);
  p0.EnsureLane(kQid);
  p1.EnsureLane(kQid);
  Ship(p0, kQid, crypto::MessageShare{1, {1}}, 0);
  EXPECT_EQ(p0.ForwardLanes(), 1u);
  EXPECT_EQ(p1.ForwardLanes(), 0u);  // p1 never saw the share
}

}  // namespace
}  // namespace privapprox::proxy
