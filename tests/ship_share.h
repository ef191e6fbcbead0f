// Enqueues one owning share on a proxy's query lane through the batched
// Receive(query_id, span) entry, encoded with the reference
// Proxy::EncodeShare. The lane must exist (Proxy::EnsureLane).

#ifndef PRIVAPPROX_TESTS_SHIP_SHARE_H_
#define PRIVAPPROX_TESTS_SHIP_SHARE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "proxy/proxy.h"

namespace privapprox::proxy {

inline void Ship(Proxy& proxy, uint64_t query_id,
                 const crypto::MessageShare& share, int64_t timestamp_ms) {
  const std::vector<uint8_t> encoded = Proxy::EncodeShare(share);
  const broker::ProduceView view{share.message_id, encoded, timestamp_ms};
  proxy.Receive(query_id, std::span<const broker::ProduceView>(&view, 1));
}

}  // namespace privapprox::proxy

#endif  // PRIVAPPROX_TESTS_SHIP_SHARE_H_
