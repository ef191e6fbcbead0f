#include "engine/join.h"

#include <stdexcept>

#include "common/xor_bytes.h"

namespace privapprox::engine {

MidJoiner::MidJoiner(size_t expected_shares, int64_t timeout_ms, EmitFn emit)
    : expected_shares_(expected_shares),
      timeout_ms_(timeout_ms),
      emit_(std::move(emit)) {
  if (expected_shares < 2) {
    throw std::invalid_argument("MidJoiner: need at least two shares");
  }
  if (timeout_ms <= 0) {
    throw std::invalid_argument("MidJoiner: timeout must be > 0");
  }
}

void MidJoiner::Add(const crypto::MessageShare& share, int64_t timestamp_ms,
                    size_t source) {
  AddImpl(share.message_id, share.payload, timestamp_ms, source,
          /*copy=*/true);
}

void MidJoiner::Add(uint64_t message_id, std::span<const uint8_t> payload,
                    int64_t timestamp_ms, size_t source) {
  AddImpl(message_id, payload, timestamp_ms, source, /*copy=*/false);
}

void MidJoiner::AddImpl(uint64_t message_id, std::span<const uint8_t> payload,
                        int64_t timestamp_ms, size_t source, bool copy) {
  if (source >= expected_shares_) {
    throw std::out_of_range("MidJoiner::Add: bad source index");
  }
  if (const auto it = remembered_.find(message_id); it != remembered_.end()) {
    if (it->second == Remembered::kCompleted) {
      ++stats_.duplicates_dropped;
    } else {
      // Straggler for a group already evicted at the watermark: starting a
      // fresh group could never complete (its siblings are gone) and would
      // double-count the loss on the next eviction pass.
      ++stats_.late_dropped;
    }
    return;
  }
  Group& group = pending_[message_id];
  if (group.slots.empty()) {
    group.slots.resize(expected_shares_);
    group.first_seen_ms = timestamp_ms;
  }
  Slot& slot = group.slots[source];
  if (slot.filled) {
    // Redelivery on the same stream (or a replay through it).
    ++stats_.duplicates_dropped;
    return;
  }
  if (copy) {
    slot.owned.assign(payload.begin(), payload.end());
    slot.view = slot.owned;
  } else {
    slot.view = payload;
  }
  slot.filled = true;
  ++group.filled;
  if (group.filled == expected_shares_) {
    // XOR-combine all source views (Eq 12: M = ME xor MK_2 xor ... xor MK_n).
    // The first pair goes through the three-operand XorBytesInto, combining
    // the two slab spans straight into the plaintext buffer instead of
    // copying share 0 and XORing over it.
    const std::span<const uint8_t> first = group.slots[0].view;
    const std::span<const uint8_t> second = group.slots[1].view;
    if (second.size() != first.size()) {
      throw std::invalid_argument("MidJoiner::Add: share length mismatch");
    }
    std::vector<uint8_t> plaintext(first.size());
    XorBytesInto(plaintext.data(), first.data(), second.data(), first.size());
    for (size_t i = 2; i < expected_shares_; ++i) {
      const std::span<const uint8_t> view = group.slots[i].view;
      if (view.size() != plaintext.size()) {
        throw std::invalid_argument("MidJoiner::Add: share length mismatch");
      }
      XorBytesInPlace(plaintext.data(), view.data(), view.size());
    }
    const int64_t first_seen = group.first_seen_ms;
    pending_.erase(message_id);
    Remember(message_id, Remembered::kCompleted, timestamp_ms);
    ++stats_.joined;
    emit_(message_id, std::move(plaintext), first_seen);
  }
}

void MidJoiner::EvictStale(int64_t now_ms) {
  const int64_t cutoff = now_ms - timeout_ms_;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.first_seen_ms < cutoff) {
      ++stats_.evicted_partial;
      const uint64_t mid = it->first;
      const int64_t first_seen = it->second.first_seen_ms;
      Remember(mid, Remembered::kExpired, now_ms);
      it = pending_.erase(it);
      if (evict_fn_) {
        evict_fn_(mid, first_seen);
      }
    } else {
      ++it;
    }
  }
  // Prune the remembered MIDs behind the same cutoff: a completed MID is
  // forgotten one timeout after its completing share's event time, an
  // expired MID one timeout after its eviction — keeping the table bounded
  // by roughly two timeouts of distinct MIDs in steady state.
  while (!expiry_.empty() && expiry_.begin()->first < cutoff) {
    for (const uint64_t mid : expiry_.begin()->second) {
      remembered_.erase(mid);
    }
    expiry_.erase(expiry_.begin());
  }
}

void MidJoiner::Remember(uint64_t mid, Remembered what, int64_t stamp_ms) {
  remembered_.emplace(mid, what);
  expiry_[stamp_ms].push_back(mid);
}

}  // namespace privapprox::engine
