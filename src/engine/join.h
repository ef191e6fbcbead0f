// MID share join (paper §3.2.4).
//
// The aggregator receives n share streams — one per proxy — and joins shares
// by message identifier. Each group holds one slot per source stream; when
// all n slots of one MID are filled the shares are XOR-combined into the
// original randomized message. Source slots make the join robust against
// redelivery: the same share arriving twice from one proxy cannot
// self-combine into garbage, it is counted as a duplicate. Replayed MIDs (a
// malicious client re-answering to distort the result) are detected and
// dropped; partial groups are evicted after a timeout so a share lost on one
// proxy path cannot leak memory.

#ifndef PRIVAPPROX_ENGINE_JOIN_H_
#define PRIVAPPROX_ENGINE_JOIN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/message.h"

namespace privapprox::engine {

struct JoinStats {
  uint64_t joined = 0;            // complete messages emitted
  uint64_t duplicates_dropped = 0;  // replayed MIDs
  uint64_t evicted_partial = 0;     // timed-out incomplete groups
  uint64_t late_dropped = 0;        // shares arriving after their group's
                                    // eviction (stragglers past the timeout)
};

class MidJoiner {
 public:
  using EmitFn =
      std::function<void(uint64_t mid, std::vector<uint8_t> plaintext,
                         int64_t timestamp_ms)>;

  // Called for every group EvictStale expires, with the group's MID and
  // first-seen event time — the fault-recovery layer uses it to attribute
  // the loss to the right window for confidence-interval widening.
  using EvictFn = std::function<void(uint64_t mid, int64_t first_seen_ms)>;

  // `expected_shares` = number of proxies n; `timeout_ms` bounds how long a
  // partial group may wait for its remaining shares.
  MidJoiner(size_t expected_shares, int64_t timeout_ms, EmitFn emit);

  void set_evict_fn(EvictFn fn) { evict_fn_ = std::move(fn); }

  // Feeds one share from stream `source` (the proxy index, < n);
  // `timestamp_ms` is the share's event time. Emits the joined plaintext as
  // soon as every source slot of the MID is filled. Throws
  // std::out_of_range for source >= n and std::invalid_argument if a
  // group's share lengths disagree at combine time.
  void Add(const crypto::MessageShare& share, int64_t timestamp_ms,
           size_t source);
  // Zero-copy variant: `payload` must point into storage that outlives the
  // pending group — the aggregator feeds broker slab views, which live as
  // long as the topic, so partial groups may safely park a span across
  // epochs. No payload bytes are copied until the group completes and is
  // XOR-combined into the emitted plaintext.
  void Add(uint64_t message_id, std::span<const uint8_t> payload,
           int64_t timestamp_ms, size_t source);

  // Evicts partial groups whose first share is older than now - timeout
  // (strictly: first_seen < now - timeout, so a group whose last share
  // lands exactly at the cutoff still joins). Evicted MIDs are remembered:
  // a straggler share arriving later is dropped as late (it must not start
  // a fresh, never-completable group). Remembered MIDs are pruned behind the
  // same cutoff, so their number is bounded by the MIDs seen within the last
  // join timeout instead of growing for the life of the run.
  //
  // Cost: one pass over the pending (in-flight partial) groups, plus work
  // proportional to the remembered MIDs that expire in this call — whole
  // stamp buckets are popped off the front of the expiry index, and the
  // remembered table itself is never iterated.
  void EvictStale(int64_t now_ms);

  const JoinStats& stats() const { return stats_; }
  size_t pending_groups() const { return pending_.size(); }
  // Number of remembered (completed + expired) MIDs — bounded by the
  // pruning in EvictStale; the boundedness test pins it.
  size_t remembered_mids() const { return remembered_.size(); }

 private:
  // One per-source slot. The copying Add stores the payload in `owned` and
  // points `view` at it (the vector's heap buffer is stable under Group
  // moves); the zero-copy Add leaves `owned` empty and parks the caller's
  // span directly.
  struct Slot {
    std::vector<uint8_t> owned;
    std::span<const uint8_t> view;
    bool filled = false;
  };
  struct Group {
    std::vector<Slot> slots;  // one per source
    size_t filled = 0;
    int64_t first_seen_ms = 0;
  };
  // What a remembered MID was: completed (a later share is a replay) or
  // expired (a later share is a straggler past the timeout).
  enum class Remembered : uint8_t { kCompleted, kExpired };

  void AddImpl(uint64_t message_id, std::span<const uint8_t> payload,
               int64_t timestamp_ms, size_t source, bool copy);
  // Files `mid` in the remembered table and under `stamp_ms` in the expiry
  // index.
  void Remember(uint64_t mid, Remembered what, int64_t stamp_ms);

  size_t expected_shares_;
  int64_t timeout_ms_;
  EmitFn emit_;
  EvictFn evict_fn_;
  std::unordered_map<uint64_t, Group> pending_;
  // Remembered MIDs: one table, so Add refuses a replay or a straggler with
  // a single probe. A MID is in it at most once — a remembered MID is
  // refused before it can open a group, and a pending MID is never
  // remembered — so each entry has exactly one stamp, filed in `expiry_`:
  // a completion under the completing share's event time (a replay within
  // one timeout of it is still detected), an eviction under the eviction
  // watermark (a straggler within one timeout of the eviction is still
  // dropped as late). EvictStale pops the buckets stamped behind its cutoff
  // and erases their MIDs from the table, whatever order the stamps arrived
  // in. Anything older is beyond the join horizon anyway: at worst an
  // ancient replay restarts a group that can never complete and expires
  // again at the next pass. The index costs 8 B per remembered MID plus one
  // map node per distinct stamp (shares of one epoch share its event time).
  std::unordered_map<uint64_t, Remembered> remembered_;
  std::map<int64_t, std::vector<uint64_t>> expiry_;
  JoinStats stats_;
};

}  // namespace privapprox::engine

#endif  // PRIVAPPROX_ENGINE_JOIN_H_
