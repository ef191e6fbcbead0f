// Tests for CRC32 (slicing-by-8 against a bytewise reference) and the durable historical answer store: answers appended
// to a storage::PartitionLog (aggregator/historical.h) round-trip, filter by
// time range, survive rotation, reopen and a torn tail, and a record whose
// payload lies about its bit count is rejected.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <random>
#include <vector>

#include <unistd.h>

#include "aggregator/historical.h"
#include "storage/crc32.h"
#include "storage/partition_log.h"

namespace privapprox::storage {
namespace {

namespace fs = std::filesystem;
using aggregator::AppendStoredAnswer;
using aggregator::ReplayStoredAnswers;
using aggregator::StoredAnswer;

class TempDir {
 public:
  TempDir() {
    // ctest runs each TEST in its own process concurrently: the directory
    // name must be unique across processes, not just within one.
    static std::atomic<int> counter{0};
    std::random_device rd;
    path_ = fs::temp_directory_path() /
            ("privapprox_log_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + "_" + std::to_string(rd()));
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

BitVector MakeAnswer(size_t bits, size_t set_bit) {
  BitVector answer(bits);
  answer.Set(set_bit, true);
  return answer;
}

// ------------------------------------------------------------------ CRC32

TEST(Crc32Test, KnownVectors) {
  // Standard check value: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char data[] = "privacy-preserving stream analytics";
  const uint32_t whole = Crc32(data, sizeof(data) - 1);
  uint32_t incremental = Crc32(data, 10);
  incremental = Crc32Update(incremental, data + 10, sizeof(data) - 1 - 10);
  EXPECT_EQ(incremental, whole);
}

// Bitwise CRC-32 over the reflected IEEE polynomial: the definition the
// slicing-by-8 tables must reproduce.
uint32_t ReferenceCrc32(uint32_t crc, const uint8_t* data, size_t len) {
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<uint8_t> PseudoRandomBytes(size_t len, uint32_t seed) {
  std::vector<uint8_t> bytes(len);
  std::mt19937 rng(seed);
  for (uint8_t& byte : bytes) {
    byte = static_cast<uint8_t>(rng());
  }
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // 8 bytes of slack so every (offset, length) pair stays in bounds.
  const std::vector<uint8_t> buffer = PseudoRandomBytes(64 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint8_t* data = buffer.data() + offset;
      EXPECT_EQ(Crc32(data, len), ReferenceCrc32(0, data, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32Test, IncrementalSplitAtEveryPointMatchesReference) {
  const std::vector<uint8_t> buffer = PseudoRandomBytes(64, 2);
  const uint32_t expected = ReferenceCrc32(0, buffer.data(), buffer.size());
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = Crc32(buffer.data(), split);
    EXPECT_EQ(head, ReferenceCrc32(0, buffer.data(), split));
    EXPECT_EQ(Crc32Update(head, buffer.data() + split, buffer.size() - split),
              expected)
        << "split=" << split;
  }
}

TEST(Crc32Test, OneMebibyteBufferMatchesReference) {
  const std::vector<uint8_t> buffer = PseudoRandomBytes(1 << 20, 3);
  EXPECT_EQ(Crc32(buffer.data(), buffer.size()),
            ReferenceCrc32(0, buffer.data(), buffer.size()));
}

TEST(Crc32Test, DetectsBitFlips) {
  uint8_t buffer[64];
  for (size_t i = 0; i < sizeof(buffer); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 7);
  }
  const uint32_t original = Crc32(buffer, sizeof(buffer));
  buffer[13] ^= 0x20;
  EXPECT_NE(Crc32(buffer, sizeof(buffer)), original);
}

// ------------------------------------------------- historical answer log

constexpr uint64_t kQid = 1;

std::vector<StoredAnswer> ReplayEverything(const PartitionLog& log) {
  return ReplayStoredAnswers(log, kQid, INT64_MIN, INT64_MAX);
}

TEST(SegmentLogTest, AppendAndLoadRoundTrip) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  for (int64_t ts = 0; ts < 100; ++ts) {
    AppendStoredAnswer(log, kQid, ts, MakeAnswer(11, static_cast<size_t>(ts % 11)));
  }
  EXPECT_EQ(log.end_offset(), 100u);
  const std::vector<StoredAnswer> answers = ReplayEverything(log);
  ASSERT_EQ(answers.size(), 100u);
  EXPECT_EQ(answers[42].timestamp_ms, 42);
  EXPECT_TRUE(answers[42].answer.Get(42 % 11));
  EXPECT_EQ(answers[42].answer, MakeAnswer(11, 42 % 11));
}

TEST(SegmentLogTest, TimeRangeFilter) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  for (int64_t ts = 0; ts < 50; ++ts) {
    AppendStoredAnswer(log, kQid, ts * 10, MakeAnswer(4, 0));
  }
  EXPECT_EQ(ReplayStoredAnswers(log, kQid, 100, 200).size(), 10u);
  EXPECT_EQ(ReplayStoredAnswers(log, kQid, 1000, 2000).size(), 0u);
}

TEST(SegmentLogTest, RotatesSegments) {
  TempDir dir;
  PartitionLogOptions options;
  options.max_segment_bytes = 512;  // tiny: force rotation
  PartitionLog log(dir.path(), options);
  for (int64_t ts = 0; ts < 200; ++ts) {
    AppendStoredAnswer(log, kQid, ts, MakeAnswer(64, 1));
  }
  EXPECT_GT(log.num_segments(), 3u);
  EXPECT_EQ(ReplayEverything(log).size(), 200u);
}

TEST(SegmentLogTest, ReopenResumesAppending) {
  TempDir dir;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 30; ++ts) {
      AppendStoredAnswer(log, kQid, ts, MakeAnswer(8, 2));
    }
  }
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 30u);
  for (int64_t ts = 30; ts < 60; ++ts) {
    AppendStoredAnswer(log, kQid, ts, MakeAnswer(8, 2));
  }
  EXPECT_EQ(ReplayEverything(log).size(), 60u);
}

TEST(SegmentLogTest, RecoversFromTornTail) {
  TempDir dir;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 10; ++ts) {
      AppendStoredAnswer(log, kQid, ts, MakeAnswer(16, 3));
    }
  }
  // Simulate a crash mid-append: chop the last 5 bytes.
  const fs::path segment = dir.path() / "seg-00000000000000000000.log";
  fs::resize_file(segment, fs::file_size(segment) - 5);
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(ReplayEverything(log).size(), 9u);  // last answer truncated away
  // And the log is writable again.
  AppendStoredAnswer(log, kQid, 100, MakeAnswer(16, 3));
  EXPECT_EQ(ReplayEverything(log).size(), 10u);
}

TEST(SegmentLogTest, RejectsPayloadWithLyingBitCount) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  AppendStoredAnswer(log, kQid, 0, MakeAnswer(16, 3));
  // CRC-valid record: num_bits = 100 claims 13 answer bytes, 2 follow.
  log.Append(kQid, 1, std::vector<uint8_t>{100, 0, 0, 0, 0xFF, 0x01});
  EXPECT_THROW(ReplayEverything(log), SegmentLogError);
  // Malformed records are rejected whatever query or time they carry.
  EXPECT_THROW(ReplayStoredAnswers(log, 2, 5, 6), SegmentLogError);
}

TEST(SegmentLogTest, RejectsPayloadShorterThanBitCount) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  log.Append(kQid, 0, std::vector<uint8_t>{8, 0});  // torn num_bits field
  EXPECT_THROW(ReplayEverything(log), SegmentLogError);
}

TEST(SegmentLogTest, EmptyDirectoryIsValid) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 0u);
  EXPECT_TRUE(ReplayEverything(log).empty());
}

TEST(SegmentLogTest, BatchAnalyticsOverLoadedStore) {
  // End-to-end: durable log -> Replay -> HistoricalAnalytics.
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  BitVector yes(2), no(2);
  yes.Set(0, true);
  no.Set(1, true);
  for (int i = 0; i < 70; ++i) {
    AppendStoredAnswer(log, kQid, i, yes);
  }
  for (int i = 70; i < 100; ++i) {
    AppendStoredAnswer(log, kQid, i, no);
  }
  const std::vector<StoredAnswer> answers =
      ReplayStoredAnswers(log, kQid, 0, 100);
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  const aggregator::HistoricalAnalytics analytics(params, 100);
  Xoshiro256 rng(1);
  const core::QueryResult result = analytics.Run(
      answers, 0, 100, aggregator::BatchQueryBudget{1.0}, rng, 2);
  EXPECT_NEAR(result.buckets[0].estimate.value, 70.0, 1e-9);
  EXPECT_NEAR(result.buckets[1].estimate.value, 30.0, 1e-9);
}

}  // namespace
}  // namespace privapprox::storage
