// Tests for the dataflow engine: sliding-window assignment, the windowed
// buffer with watermarks and late data, and the MID share join (including
// replay/duplicate defense and partial-group eviction).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>

#include "crypto/xor_cipher.h"
#include "engine/join.h"
#include "engine/window.h"

namespace privapprox::engine {
namespace {

// ------------------------------------------------------------------ windows

TEST(SlidingWindowAssignerTest, TumblingWindow) {
  const SlidingWindowAssigner assigner(10, 10);
  const auto windows = assigner.WindowsFor(25);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_ms, 20);
  EXPECT_EQ(windows[0].end_ms, 30);
}

TEST(SlidingWindowAssignerTest, OverlappingWindows) {
  // Window 30 ms sliding by 10 ms: each timestamp is in 3 windows.
  const SlidingWindowAssigner assigner(30, 10);
  const auto windows = assigner.WindowsFor(35);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start_ms, 30);
  EXPECT_EQ(windows[1].start_ms, 20);
  EXPECT_EQ(windows[2].start_ms, 10);
  for (const Window& w : windows) {
    EXPECT_LE(w.start_ms, 35);
    EXPECT_GT(w.end_ms, 35);
  }
}

TEST(SlidingWindowAssignerTest, BoundaryTimestampBelongsToNewWindow) {
  const SlidingWindowAssigner assigner(20, 10);
  const auto windows = assigner.WindowsFor(20);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start_ms, 20);  // [20, 40)
  EXPECT_EQ(windows[1].start_ms, 10);  // [10, 30)
}

TEST(SlidingWindowAssignerTest, NegativeTimestamps) {
  const SlidingWindowAssigner assigner(10, 10);
  const auto windows = assigner.WindowsFor(-5);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_ms, -10);
  EXPECT_EQ(windows[0].end_ms, 0);
}

TEST(SlidingWindowAssignerTest, RejectsBadPeriods) {
  EXPECT_THROW(SlidingWindowAssigner(0, 1), std::invalid_argument);
  EXPECT_THROW(SlidingWindowAssigner(10, 0), std::invalid_argument);
  EXPECT_THROW(SlidingWindowAssigner(10, 20), std::invalid_argument);
}

TEST(SlidingWindowAssignerTest, TimestampExactlyOnWindowStart) {
  // Tumbling: a timestamp on a boundary belongs to the window starting
  // there, never the one ending there ([start, end) semantics).
  const SlidingWindowAssigner assigner(10, 10);
  const auto windows = assigner.WindowsFor(20);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_ms, 20);
  EXPECT_EQ(windows[0].end_ms, 30);
}

TEST(SlidingWindowAssignerTest, TimestampJustBeforeWindowEnd) {
  const SlidingWindowAssigner assigner(10, 10);
  const auto windows = assigner.WindowsFor(19);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_ms, 10);
  EXPECT_EQ(windows[0].end_ms, 20);
}

TEST(SlidingWindowAssignerTest, SlidingBoundaryExcludesEndingWindow) {
  // Length 30, slide 10: ts 30 is in [30,60), [20,50), [10,40) — but not
  // [0,30), which ends exactly at 30.
  const SlidingWindowAssigner assigner(30, 10);
  const auto windows = assigner.WindowsFor(30);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start_ms, 30);
  EXPECT_EQ(windows[1].start_ms, 20);
  EXPECT_EQ(windows[2].start_ms, 10);
}

TEST(SlidingWindowAssignerTest, NegativeTimestampOnBoundary) {
  const SlidingWindowAssigner assigner(10, 10);
  const auto windows = assigner.WindowsFor(-10);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_ms, -10);
  EXPECT_EQ(windows[0].end_ms, 0);
}

TEST(SlidingWindowAssignerTest, NegativeTimestampsSliding) {
  const SlidingWindowAssigner assigner(20, 10);
  const auto windows = assigner.WindowsFor(-15);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start_ms, -20);  // [-20, 0)
  EXPECT_EQ(windows[1].start_ms, -30);  // [-30, -10)
}

TEST(SlidingWindowAssignerTest, AppendWindowsForMatchesWindowsFor) {
  // The allocation-free fast path (including the tumbling shortcut) must
  // agree with the reference implementation everywhere, and must clear any
  // stale content in the output vector.
  for (const auto& [length, slide] :
       {std::pair<int64_t, int64_t>{10, 10}, {30, 10}, {20, 10}, {7, 3}}) {
    const SlidingWindowAssigner assigner(length, slide);
    std::vector<Window> scratch = {Window{-999, -999}};
    for (int64_t ts = -45; ts <= 45; ++ts) {
      assigner.AppendWindowsFor(ts, scratch);
      EXPECT_EQ(scratch, assigner.WindowsFor(ts))
          << "length=" << length << " slide=" << slide << " ts=" << ts;
    }
  }
}

TEST(WindowBufferTest, FiresOnWatermark) {
  std::map<int64_t, size_t> fired;  // window start -> item count
  WindowBuffer<int> buffer(SlidingWindowAssigner(10, 10),
                           [&](const Window& w, const std::vector<int>& items) {
                             fired[w.start_ms] = items.size();
                           });
  buffer.Add(1, 100);
  buffer.Add(5, 101);
  buffer.Add(12, 102);
  EXPECT_TRUE(fired.empty());
  buffer.AdvanceWatermark(10);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2u);
  buffer.AdvanceWatermark(20);
  EXPECT_EQ(fired[10], 1u);
}

TEST(WindowBufferTest, LateDataIsDroppedAndCounted) {
  int fired = 0;
  WindowBuffer<int> buffer(SlidingWindowAssigner(10, 10),
                           [&](const Window&, const std::vector<int>&) {
                             ++fired;
                           });
  buffer.AdvanceWatermark(50);
  buffer.Add(30, 1);  // behind the watermark
  EXPECT_EQ(buffer.late_dropped(), 1u);
  buffer.AdvanceWatermark(100);
  EXPECT_EQ(fired, 0);
}

TEST(WindowBufferTest, WatermarkNeverMovesBackwards) {
  WindowBuffer<int> buffer(SlidingWindowAssigner(10, 10),
                           [](const Window&, const std::vector<int>&) {});
  buffer.AdvanceWatermark(100);
  buffer.AdvanceWatermark(50);
  EXPECT_EQ(buffer.watermark_ms(), 100);
}

TEST(WindowBufferTest, FlushFiresEverythingPending) {
  int fired = 0;
  WindowBuffer<int> buffer(SlidingWindowAssigner(30, 10),
                           [&](const Window&, const std::vector<int>&) {
                             ++fired;
                           });
  buffer.Add(25, 1);  // 3 overlapping windows
  EXPECT_EQ(buffer.pending_windows(), 3u);
  buffer.Flush();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(buffer.pending_windows(), 0u);
}

TEST(WindowBufferTest, SlidingWindowsShareItems) {
  std::map<int64_t, std::vector<int>> fired;
  WindowBuffer<int> buffer(SlidingWindowAssigner(20, 10),
                           [&](const Window& w, const std::vector<int>& items) {
                             fired[w.start_ms] = items;
                           });
  buffer.Add(15, 7);  // in [0,20) and [10,30)
  buffer.AdvanceWatermark(40);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], std::vector<int>{7});
  EXPECT_EQ(fired[10], std::vector<int>{7});
}

TEST(WindowBufferTest, AddAfterFlushCountsAsLate) {
  // Regression: Flush used to leave the watermark where it was, so a
  // post-flush Add would silently start a window that could never fire.
  int fired = 0;
  WindowBuffer<int> buffer(SlidingWindowAssigner(10, 10),
                           [&](const Window&, const std::vector<int>&) {
                             ++fired;
                           });
  buffer.Add(5, 1);
  buffer.Flush();
  EXPECT_EQ(fired, 1);
  buffer.Add(100, 2);  // stream is over: must not buffer
  EXPECT_EQ(buffer.pending_windows(), 0u);
  EXPECT_EQ(buffer.late_dropped(), 1u);
  buffer.AdvanceWatermark(INT64_MAX);
  EXPECT_EQ(fired, 1);
}

TEST(WindowBufferTest, RvalueAddMovesIntoLastWindow) {
  // An item spanning k windows is copied k-1 times and moved once (into
  // the last-assigned window). Observable: the moved-from source is empty,
  // and every fired window holds the full item.
  std::map<int64_t, std::vector<std::vector<int>>> fired;
  WindowBuffer<std::vector<int>> buffer(
      SlidingWindowAssigner(20, 10),
      [&](const Window& w, const std::vector<std::vector<int>>& items) {
        fired[w.start_ms] = items;
      });
  std::vector<int> item = {1, 2, 3};
  buffer.Add(15, std::move(item));  // in [0,20) and [10,30)
  EXPECT_TRUE(item.empty());        // NOLINT(bugprone-use-after-move)
  buffer.AdvanceWatermark(40);
  ASSERT_EQ(fired.size(), 2u);
  const std::vector<int> expected = {1, 2, 3};
  EXPECT_EQ(fired[0], std::vector<std::vector<int>>{expected});
  EXPECT_EQ(fired[10], std::vector<std::vector<int>>{expected});
}

// --------------------------------------------- accumulating window buffer

// Minimal additive accumulator for AccumulatingWindowBuffer tests.
struct SumAcc {
  int64_t sum = 0;
  size_t n = 0;
  void Add(int v) {
    sum += v;
    ++n;
  }
};

TEST(AccumulatingWindowBufferTest, FoldsAndDrainsOnWatermark) {
  AccumulatingWindowBuffer<SumAcc> buffer{SlidingWindowAssigner(10, 10)};
  buffer.Fold(1, 100, [] { return SumAcc{}; });
  buffer.Fold(5, 10, [] { return SumAcc{}; });
  buffer.Fold(12, 7, [] { return SumAcc{}; });
  EXPECT_EQ(buffer.pending_windows(), 2u);

  std::vector<std::pair<Window, SumAcc>> fired;
  buffer.DrainFired(10, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first.start_ms, 0);
  EXPECT_EQ(fired[0].second.sum, 110);
  EXPECT_EQ(fired[0].second.n, 2u);
  EXPECT_EQ(buffer.pending_windows(), 1u);

  // Watermark never moves backwards; nothing re-fires.
  buffer.DrainFired(5, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(buffer.watermark_ms(), 10);
}

TEST(AccumulatingWindowBufferTest, SlidingWindowsEachAccumulate) {
  AccumulatingWindowBuffer<SumAcc> buffer{SlidingWindowAssigner(20, 10)};
  buffer.Fold(15, 3, [] { return SumAcc{}; });  // in [0,20) and [10,30)
  std::vector<std::pair<Window, SumAcc>> fired;
  buffer.DrainFired(40, fired);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].first.start_ms, 0);   // ascending window order
  EXPECT_EQ(fired[1].first.start_ms, 10);
  EXPECT_EQ(fired[0].second.sum, 3);
  EXPECT_EQ(fired[1].second.sum, 3);
}

TEST(AccumulatingWindowBufferTest, LateFoldsDropAndDrainAllPinsWatermark) {
  AccumulatingWindowBuffer<SumAcc> buffer{SlidingWindowAssigner(10, 10)};
  std::vector<std::pair<Window, SumAcc>> none;
  buffer.DrainFired(50, none);
  EXPECT_TRUE(none.empty());
  buffer.Fold(30, 1, [] { return SumAcc{}; });  // behind the watermark
  EXPECT_EQ(buffer.late_dropped(), 1u);
  buffer.Fold(60, 2, [] { return SumAcc{}; });
  std::vector<std::pair<Window, SumAcc>> fired;
  buffer.DrainAll(fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].second.sum, 2);
  // Stream over: later folds are late, mirroring WindowBuffer::Flush.
  buffer.Fold(1000, 3, [] { return SumAcc{}; });
  EXPECT_EQ(buffer.pending_windows(), 0u);
  EXPECT_EQ(buffer.late_dropped(), 2u);
}

// --------------------------------------------------------------------- join

crypto::MessageShare Share(uint64_t mid, std::vector<uint8_t> payload) {
  return crypto::MessageShare{mid, std::move(payload)};
}

TEST(MidJoinerTest, JoinsWhenAllSharesArrive) {
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> emitted;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t mid, std::vector<uint8_t> plaintext, int64_t) {
                     emitted.emplace_back(mid, std::move(plaintext));
                   });
  joiner.Add(Share(7, {0xF0}), 10, /*source=*/0);
  EXPECT_TRUE(emitted.empty());
  joiner.Add(Share(7, {0x0F}), 12, /*source=*/1);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].first, 7u);
  EXPECT_EQ(emitted[0].second, std::vector<uint8_t>{0xFF});
  EXPECT_EQ(joiner.stats().joined, 1u);
}

TEST(MidJoinerTest, EmitsWithFirstSeenTimestamp) {
  int64_t emitted_ts = -1;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t, std::vector<uint8_t>, int64_t ts) {
                     emitted_ts = ts;
                   });
  joiner.Add(Share(1, {0}), 100, 0);
  joiner.Add(Share(1, {0}), 250, 1);
  EXPECT_EQ(emitted_ts, 100);
}

TEST(MidJoinerTest, ThreeWayJoinRoundTrip) {
  crypto::XorSplitter splitter(3, crypto::ChaCha20Rng::FromSeed(1, 0));
  const std::vector<uint8_t> plaintext = {1, 2, 3, 4};
  const auto shares = splitter.Split(plaintext);
  std::vector<uint8_t> recovered;
  MidJoiner joiner(3, 1000,
                   [&](uint64_t, std::vector<uint8_t> out, int64_t) {
                     recovered = std::move(out);
                   });
  // Arrive out of order (the share's own source index still identifies the
  // stream it traveled on).
  joiner.Add(shares[2], 1, 2);
  joiner.Add(shares[0], 2, 0);
  joiner.Add(shares[1], 3, 1);
  EXPECT_EQ(recovered, plaintext);
}

TEST(MidJoinerTest, ReplayedMidIsDropped) {
  int emitted = 0;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(Share(5, {1}), 0, 0);
  joiner.Add(Share(5, {2}), 0, 1);
  EXPECT_EQ(emitted, 1);
  // A malicious client replays the same MID to distort the count (§3.2.4).
  joiner.Add(Share(5, {1}), 1, 0);
  joiner.Add(Share(5, {2}), 1, 1);
  EXPECT_EQ(emitted, 1);
  EXPECT_EQ(joiner.stats().duplicates_dropped, 2u);
}

TEST(MidJoinerTest, EvictsStalePartialGroups) {
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(Share(9, {1}), 0, 0);  // second share never arrives
  EXPECT_EQ(joiner.pending_groups(), 1u);
  joiner.EvictStale(200);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
  // The straggler share is dropped as late — it must not start a fresh,
  // never-completable group (which would double-count the loss on the next
  // eviction pass).
  joiner.Add(Share(9, {2}), 201, 1);
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().late_dropped, 1u);
}

TEST(MidJoinerTest, LastShareExactlyAtEvictionCutoffStillJoins) {
  // Eviction is strict (first_seen < now - timeout): the watermark landing
  // exactly on first_seen + timeout does not expire the group, so a sibling
  // arriving in the same instant still completes the join.
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(Share(4, {0x0F}), 50, 0);
  joiner.EvictStale(150);  // cutoff = 50: 50 < 50 is false -> keep waiting
  EXPECT_EQ(joiner.pending_groups(), 1u);
  EXPECT_EQ(joiner.stats().evicted_partial, 0u);
  joiner.Add(Share(4, {0xF0}), 150, 1);
  EXPECT_EQ(emitted, 1);
  // One more millisecond and it would have been evicted.
  joiner.Add(Share(6, {1}), 50, 0);
  joiner.EvictStale(151);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
}

TEST(MidJoinerTest, DuplicateShareAfterExpiryIsLateDropped) {
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(Share(8, {1}), 0, 0);
  joiner.EvictStale(200);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
  // Even a redelivery of the share the group already had counts as late,
  // not as a same-slot duplicate — the group no longer exists.
  joiner.Add(Share(8, {1}), 205, 0);
  joiner.Add(Share(8, {2}), 206, 1);
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().late_dropped, 2u);
  EXPECT_EQ(joiner.stats().duplicates_dropped, 0u);
}

TEST(MidJoinerTest, RememberedMidSetsStayBoundedOverManyEpochs) {
  // Regression: completed_mids_/expired_mids_ used to grow for the life of
  // the run — one entry per MID ever seen. EvictStale now prunes both
  // behind its cutoff, so across many epochs the remembered set stays
  // bounded by the MIDs seen within the last join timeout, while replay
  // and straggler defense still hold inside that horizon.
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  size_t max_remembered = 0;
  uint64_t next_mid = 1;
  for (int64_t epoch = 0; epoch < 200; ++epoch) {
    const int64_t now = epoch * 100;
    for (int i = 0; i < 10; ++i) {
      const uint64_t mid = next_mid++;
      joiner.Add(Share(mid, {1}), now, 0);
      if (i % 2 == 0) {
        joiner.Add(Share(mid, {2}), now, 1);  // completes
      }  // else: partial, expires at the watermark
    }
    joiner.EvictStale(now + 100);
    max_remembered = std::max(max_remembered, joiner.remembered_mids());
  }
  // Strict cutoff: the final epoch's partials outlive its own watermark by
  // design; one more advance expires them.
  joiner.EvictStale(200 * 100 + 100);
  EXPECT_EQ(emitted, 200 * 5);
  EXPECT_EQ(joiner.stats().evicted_partial, 200u * 5u);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  // Each epoch remembers at most its own 10 MIDs plus the previous epoch's
  // (stamps within one timeout of the watermark) — far below the 2000 MIDs
  // an unbounded set would hold.
  EXPECT_LE(max_remembered, 40u);
  EXPECT_LE(joiner.remembered_mids(), 40u);
}

TEST(MidJoinerTest, ReplayAfterPruneRestartsButReexpires) {
  // Beyond the remembered horizon, a replayed MID is indistinguishable from
  // a new one: it restarts a group that can never complete and is evicted
  // again at the next watermark — counted as evicted, never double-joined.
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(Share(7, {1}), 0, 0);
  joiner.Add(Share(7, {2}), 0, 1);
  EXPECT_EQ(emitted, 1);
  joiner.EvictStale(1000);  // prunes the completed-MID memory of 7
  EXPECT_EQ(joiner.remembered_mids(), 0u);
  joiner.Add(Share(7, {1}), 1001, 0);  // ancient replay
  EXPECT_EQ(joiner.pending_groups(), 1u);
  joiner.EvictStale(2000);
  EXPECT_EQ(emitted, 1);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
}

TEST(MidJoinerTest, EvictFnReportsMidAndFirstSeen) {
  std::vector<std::pair<uint64_t, int64_t>> evicted;
  MidJoiner joiner(2, 100,
                   [](uint64_t, std::vector<uint8_t>, int64_t) {});
  joiner.set_evict_fn([&](uint64_t mid, int64_t first_seen_ms) {
    evicted.emplace_back(mid, first_seen_ms);
  });
  joiner.Add(Share(11, {1}), 10, 0);
  joiner.Add(Share(12, {2}), 20, 1);
  joiner.EvictStale(500);
  ASSERT_EQ(evicted.size(), 2u);
  std::sort(evicted.begin(), evicted.end());
  EXPECT_EQ(evicted[0], (std::pair<uint64_t, int64_t>{11, 10}));
  EXPECT_EQ(evicted[1], (std::pair<uint64_t, int64_t>{12, 20}));
}

TEST(MidJoinerTest, RejectsBadConfig) {
  const auto noop = [](uint64_t, std::vector<uint8_t>, int64_t) {};
  EXPECT_THROW(MidJoiner(1, 1000, noop), std::invalid_argument);
  EXPECT_THROW(MidJoiner(2, 0, noop), std::invalid_argument);
}

TEST(MidJoinerTest, RejectsBadSource) {
  MidJoiner joiner(2, 1000, [](uint64_t, std::vector<uint8_t>, int64_t) {});
  EXPECT_THROW(joiner.Add(Share(1, {0}), 0, 2), std::out_of_range);
}

TEST(MidJoinerTest, SameStreamRedeliveryCannotSelfJoin) {
  // The same share delivered twice on one stream must not XOR with itself
  // into a zero "plaintext" — it fills one slot and the copy is dropped.
  int emitted = 0;
  std::vector<uint8_t> plaintext_out;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t, std::vector<uint8_t> plaintext, int64_t) {
                     ++emitted;
                     plaintext_out = std::move(plaintext);
                   });
  joiner.Add(Share(3, {0xAA}), 0, 0);
  joiner.Add(Share(3, {0xAA}), 1, 0);  // redelivery on stream 0
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(joiner.stats().duplicates_dropped, 1u);
  joiner.Add(Share(3, {0x55}), 2, 1);  // the real sibling
  EXPECT_EQ(emitted, 1);
  EXPECT_EQ(plaintext_out, std::vector<uint8_t>{0xFF});
}

TEST(MidJoinerTest, ManyInterleavedGroups) {
  crypto::XorSplitter splitter(2, crypto::ChaCha20Rng::FromSeed(2, 0));
  std::vector<std::vector<crypto::MessageShare>> all;
  for (uint8_t i = 0; i < 100; ++i) {
    all.push_back(splitter.Split({i}));
  }
  size_t emitted = 0;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t, std::vector<uint8_t> plaintext, int64_t) {
                     ++emitted;
                     ASSERT_EQ(plaintext.size(), 1u);
                   });
  // First shares of everyone, then second shares of everyone.
  for (const auto& shares : all) {
    joiner.Add(shares[0], 0, 0);
  }
  for (const auto& shares : all) {
    joiner.Add(shares[1], 1, 1);
  }
  EXPECT_EQ(emitted, 100u);
}

// The join's semantics as first written, kept as a differential oracle:
// completed and expired MIDs in two stamped maps, both pruned by a full scan
// at every watermark.
class ReferenceJoiner {
 public:
  struct Emitted {
    uint64_t mid;
    std::vector<uint8_t> plaintext;
    int64_t first_seen_ms;
    bool operator==(const Emitted&) const = default;
  };

  ReferenceJoiner(size_t expected_shares, int64_t timeout_ms)
      : expected_shares_(expected_shares), timeout_ms_(timeout_ms) {}

  void Add(uint64_t mid, const std::vector<uint8_t>& payload,
           int64_t timestamp_ms, size_t source) {
    if (completed_.contains(mid)) {
      ++stats.duplicates_dropped;
      return;
    }
    if (expired_.contains(mid)) {
      ++stats.late_dropped;
      return;
    }
    Group& group = pending_[mid];
    if (group.slots.empty()) {
      group.slots.resize(expected_shares_);
      group.first_seen_ms = timestamp_ms;
    }
    if (group.slots[source].has_value()) {
      ++stats.duplicates_dropped;
      return;
    }
    group.slots[source] = payload;
    if (++group.filled < expected_shares_) {
      return;
    }
    std::vector<uint8_t> plaintext(payload.size(), 0);
    for (const auto& slot : group.slots) {
      for (size_t i = 0; i < plaintext.size(); ++i) {
        plaintext[i] ^= (*slot)[i];
      }
    }
    emitted.push_back({mid, std::move(plaintext), group.first_seen_ms});
    pending_.erase(mid);
    completed_[mid] = timestamp_ms;
    ++stats.joined;
  }

  void EvictStale(int64_t now_ms) {
    const int64_t cutoff = now_ms - timeout_ms_;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.first_seen_ms < cutoff) {
        ++stats.evicted_partial;
        evicted.emplace_back(it->first, it->second.first_seen_ms);
        expired_[it->first] = now_ms;
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    std::erase_if(completed_,
                  [&](const auto& entry) { return entry.second < cutoff; });
    std::erase_if(expired_,
                  [&](const auto& entry) { return entry.second < cutoff; });
  }

  size_t pending_groups() const { return pending_.size(); }
  size_t remembered_mids() const {
    return completed_.size() + expired_.size();
  }

  JoinStats stats;
  std::vector<Emitted> emitted;
  std::vector<std::pair<uint64_t, int64_t>> evicted;

 private:
  struct Group {
    std::vector<std::optional<std::vector<uint8_t>>> slots;
    size_t filled = 0;
    int64_t first_seen_ms = 0;
  };

  size_t expected_shares_;
  int64_t timeout_ms_;
  std::unordered_map<uint64_t, Group> pending_;
  std::unordered_map<uint64_t, int64_t> completed_;
  std::unordered_map<uint64_t, int64_t> expired_;
};

TEST(MidJoinerTest, MatchesFullScanReferenceOnRandomizedStreams) {
  // Drives MidJoiner and the full-scan reference with the same seeded
  // operation stream: completions and partial groups, same-source
  // duplicates, replays inside and beyond the horizon, stragglers after
  // expiry, shares stamped older than earlier ones (fault-delay replay), and
  // watermarks exactly at a stamp's cutoff, one past it, or behind an
  // earlier watermark. Every observable must agree after every step.
  constexpr int64_t kTimeout = 100;
  constexpr int kSteps = 6000;
  JoinStats covered;
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const size_t n = 2 + seed % 2;
    ReferenceJoiner reference(n, kTimeout);
    std::vector<ReferenceJoiner::Emitted> emitted;
    std::vector<std::pair<uint64_t, int64_t>> evicted;
    MidJoiner joiner(n, kTimeout,
                     [&](uint64_t mid, std::vector<uint8_t> plaintext,
                         int64_t first_seen_ms) {
                       emitted.push_back(
                           {mid, std::move(plaintext), first_seen_ms});
                     });
    joiner.set_evict_fn([&](uint64_t mid, int64_t first_seen_ms) {
      evicted.emplace_back(mid, first_seen_ms);
    });
    // Zero-copy payloads must outlive their pending groups.
    std::deque<std::vector<uint8_t>> parked;
    std::vector<int64_t> recent_stamps = {0};
    int64_t clock = 0;
    uint64_t next_mid = 1;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step=" + std::to_string(step));
      const uint64_t op = rng() % 100;
      if (op < 80 || next_mid == 1) {
        uint64_t mid = next_mid;
        const uint64_t pick = rng() % 10;
        if (pick < 4 || next_mid == 1) {
          ++next_mid;  // a fresh MID
        } else if (pick < 8) {
          // A recent MID: a sibling share, a same-source duplicate, a
          // replay inside the horizon or a straggler after expiry.
          mid = next_mid - 1 - rng() % std::min<uint64_t>(next_mid - 1, 24);
        } else {
          mid = 1 + rng() % (next_mid - 1);  // often beyond the horizon
        }
        int64_t stamp = clock;
        if (rng() % 5 == 0) {
          // A fault-delayed share replayed with its original, older stamp.
          stamp -= static_cast<int64_t>(rng() % (3 * kTimeout));
        }
        recent_stamps.push_back(stamp);
        const size_t source = rng() % n;
        std::vector<uint8_t> payload(3);
        for (uint8_t& byte : payload) {
          byte = static_cast<uint8_t>(rng());
        }
        reference.Add(mid, payload, stamp, source);
        if (rng() % 2 == 0) {
          joiner.Add(Share(mid, payload), stamp, source);
        } else {
          parked.push_back(std::move(payload));
          joiner.Add(mid, parked.back(), stamp, source);
        }
      } else if (op < 86) {
        clock += static_cast<int64_t>(rng() % 40);
      } else {
        int64_t now = clock;
        const int64_t stamp =
            recent_stamps[recent_stamps.size() - 1 -
                          rng() % std::min<size_t>(recent_stamps.size(), 64)];
        switch (rng() % 4) {
          case 0:
            now = stamp + kTimeout;  // cutoff == stamp: kept
            break;
          case 1:
            now = stamp + kTimeout + 1;  // one past: pruned
            break;
          case 2:
            now = clock - static_cast<int64_t>(rng() % (2 * kTimeout));
            break;
          default:
            break;
        }
        reference.EvictStale(now);
        joiner.EvictStale(now);
      }

      const JoinStats& got = joiner.stats();
      ASSERT_EQ(got.joined, reference.stats.joined);
      ASSERT_EQ(got.duplicates_dropped, reference.stats.duplicates_dropped);
      ASSERT_EQ(got.evicted_partial, reference.stats.evicted_partial);
      ASSERT_EQ(got.late_dropped, reference.stats.late_dropped);
      ASSERT_EQ(joiner.pending_groups(), reference.pending_groups());
      ASSERT_EQ(joiner.remembered_mids(), reference.remembered_mids());
      // Emissions in order; evictions as a set (both sides walk their own
      // pending hash map).
      ASSERT_EQ(emitted, reference.emitted);
      emitted.clear();
      reference.emitted.clear();
      std::sort(evicted.begin(), evicted.end());
      std::sort(reference.evicted.begin(), reference.evicted.end());
      ASSERT_EQ(evicted, reference.evicted);
      evicted.clear();
      reference.evicted.clear();
    }
    covered.joined += joiner.stats().joined;
    covered.duplicates_dropped += joiner.stats().duplicates_dropped;
    covered.evicted_partial += joiner.stats().evicted_partial;
    covered.late_dropped += joiner.stats().late_dropped;
  }
  // The stream exercised every path the remembered table guards.
  EXPECT_GT(covered.joined, 0u);
  EXPECT_GT(covered.duplicates_dropped, 0u);
  EXPECT_GT(covered.evicted_partial, 0u);
  EXPECT_GT(covered.late_dropped, 0u);
}

}  // namespace
}  // namespace privapprox::engine
