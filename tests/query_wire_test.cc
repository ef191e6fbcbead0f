// Tests for the query-announcement wire format and the broker-routed query
// distribution path (analyst -> aggregator -> proxies -> clients).

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "client/client.h"
#include "core/query_wire.h"
#include "proxy/proxy.h"
#include "transport/inproc_bus.h"

namespace privapprox::core {
namespace {

Query MakeQuery() {
  std::vector<Bucket> buckets;
  buckets.push_back(NumericBucket{0.0, 1.5});
  buckets.push_back(NumericBucket{1.5, std::numeric_limits<double>::infinity()});
  buckets.push_back(MatchBucket{"exact", false});
  buckets.push_back(MatchBucket{"wild*", true});
  return QueryBuilder()
      .WithId(0xABCDEF0123456789ULL)
      .WithAnalyst(7)
      .WithSql("SELECT distance FROM rides WHERE borough = 'queens'")
      .WithAnswerFormat(AnswerFormat(std::move(buckets)))
      .WithFrequencyMs(500)
      .WithWindowMs(60000)
      .WithSlideMs(15000)
      .Build();
}

ExecutionParams MakeParams() {
  ExecutionParams params;
  params.sampling_fraction = 0.37;
  params.randomization = {0.81, 0.62};
  return params;
}

TEST(QueryWireTest, RoundTripPreservesEverything) {
  const QueryAnnouncement original{MakeQuery(), MakeParams()};
  const QueryAnnouncement parsed =
      DeserializeAnnouncement(SerializeAnnouncement(original));
  EXPECT_EQ(parsed, original);
  // Bucket semantics survive, not just counts.
  EXPECT_EQ(parsed.query.answer_format.BucketOf(1.0).value(), 0u);
  EXPECT_EQ(parsed.query.answer_format.BucketOf(99.0).value(), 1u);
  EXPECT_EQ(parsed.query.answer_format.BucketOf(std::string("exact")).value(),
            2u);
  EXPECT_EQ(
      parsed.query.answer_format.BucketOf(std::string("wildcat")).value(),
      3u);
}

TEST(QueryWireTest, SignatureSurvivesRoundTrip) {
  const QueryAnnouncement original{MakeQuery(), MakeParams()};
  const QueryAnnouncement parsed =
      DeserializeAnnouncement(SerializeAnnouncement(original));
  EXPECT_TRUE(parsed.query.VerifySignature());
}

TEST(QueryWireTest, TamperedSqlFailsSignatureAfterParse) {
  QueryAnnouncement ann{MakeQuery(), MakeParams()};
  auto bytes = SerializeAnnouncement(ann);
  // Flip a byte inside the SQL text region (search for 'rides').
  const std::string needle = "rides";
  const auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(it, bytes.end());
  *it ^= 0x01;
  const QueryAnnouncement parsed = DeserializeAnnouncement(bytes);
  EXPECT_FALSE(parsed.query.VerifySignature());
}

TEST(QueryWireTest, TruncationThrows) {
  const auto bytes =
      SerializeAnnouncement(QueryAnnouncement{MakeQuery(), MakeParams()});
  for (size_t keep : {size_t{0}, size_t{3}, size_t{6}, size_t{20}, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(DeserializeAnnouncement(truncated), WireError)
        << "keep=" << keep;
  }
}

TEST(QueryWireTest, BadMagicAndVersionThrow) {
  auto bytes =
      SerializeAnnouncement(QueryAnnouncement{MakeQuery(), MakeParams()});
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(DeserializeAnnouncement(bad_magic), WireError);
  auto bad_version = bytes;
  bad_version[4] = 0xEE;
  EXPECT_THROW(DeserializeAnnouncement(bad_version), WireError);
}

TEST(QueryWireTest, GarbageThrows) {
  EXPECT_THROW(DeserializeAnnouncement(std::vector<uint8_t>{}), WireError);
  EXPECT_THROW(
      DeserializeAnnouncement(std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}),
      WireError);
}

TEST(QueryDistributionTest, AnnouncementReachesClientThroughProxy) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  proxy::Proxy proxy(proxy::ProxyConfig{0, 2}, bus);
  const QueryAnnouncement ann{MakeQuery(), MakeParams()};
  proxy.AnnounceQuery(SerializeAnnouncement(ann), 0);
  EXPECT_EQ(proxy.ForwardQueries(), 1u);

  const auto records = b.GetTopic(proxy.query_out_topic()).Read(0, 0, 4);
  ASSERT_EQ(records.size(), 1u);

  client::Client client(client::ClientConfig{0, 2, 1});
  client.OnAnnouncement(records[0].payload);
  EXPECT_TRUE(client.subscribed());
  EXPECT_EQ(client.query().query_id, ann.query.query_id);
}

TEST(QueryDistributionTest, ClientRejectsTamperedAnnouncement) {
  client::Client client(client::ClientConfig{0, 2, 1});
  auto bytes =
      SerializeAnnouncement(QueryAnnouncement{MakeQuery(), MakeParams()});
  const std::string needle = "SELECT";
  const auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(it, bytes.end());
  *it ^= 0x01;
  EXPECT_THROW(client.OnAnnouncement(bytes), std::invalid_argument);
  EXPECT_FALSE(client.subscribed());
}

TEST(QueryDistributionTest, ClientRejectsMalformedAnnouncement) {
  client::Client client(client::ClientConfig{0, 2, 1});
  EXPECT_THROW(client.OnAnnouncement({0xDE, 0xAD}), WireError);
}

TEST(TaggedShareTest, RoundTripsQidMidAndPayload) {
  // Lane record: MID (8 B LE) followed by the encrypted payload.
  std::vector<uint8_t> lane_record(8 + 3);
  const uint64_t mid = 0x0123456789ABCDEFULL;
  for (size_t i = 0; i < 8; ++i) {
    lane_record[i] = static_cast<uint8_t>(mid >> (8 * i));
  }
  lane_record[8] = 0xAA;
  lane_record[9] = 0xBB;
  lane_record[10] = 0xCC;
  const std::vector<uint8_t> frame = SerializeTaggedShare(42, lane_record);
  ASSERT_EQ(frame.size(), lane_record.size() + 8);
  const TaggedShareView view = ParseTaggedShare(frame);
  EXPECT_EQ(view.query_id, 42u);
  EXPECT_EQ(view.message_id, mid);
  ASSERT_EQ(view.payload.size(), 3u);
  EXPECT_EQ(view.payload[0], 0xAA);
  // The lane_record span is the frame minus the QID header — byte-for-byte
  // what a per-lane Receive path expects.
  ASSERT_EQ(view.lane_record.size(), lane_record.size());
  EXPECT_TRUE(std::equal(lane_record.begin(), lane_record.end(),
                         view.lane_record.begin()));
}

TEST(TaggedShareTest, RejectsTruncatedFrames) {
  // Shorter than QID + MID headers: unparseable.
  EXPECT_THROW(ParseTaggedShare(std::vector<uint8_t>(15, 0)), WireError);
  // A lane record without even its own MID header cannot be framed.
  EXPECT_THROW(SerializeTaggedShare(1, std::vector<uint8_t>(7, 0)),
               WireError);
}

TEST(QueryDistributionTest, ClientRejectsInvalidParams) {
  client::Client client(client::ClientConfig{0, 2, 1});
  QueryAnnouncement ann{MakeQuery(), MakeParams()};
  ann.params.sampling_fraction = 1.7;  // invalid
  EXPECT_THROW(client.OnAnnouncement(SerializeAnnouncement(ann)),
               std::invalid_argument);
}

}  // namespace
}  // namespace privapprox::core
