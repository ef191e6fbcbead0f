// CRC-32 (IEEE 802.3 polynomial, reflected 0xEDB88320, slicing-by-8) —
// integrity checksum for partition-log records and transport frames. This
// is CRC-32, not CRC-32C: the SSE4.2 crc32 instruction computes the other
// polynomial and would change every checksum on disk and on the wire.

#ifndef PRIVAPPROX_STORAGE_CRC32_H_
#define PRIVAPPROX_STORAGE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace privapprox::storage {

// CRC of `len` bytes starting at `data`, with standard init/final xor.
uint32_t Crc32(const void* data, size_t len);

// Incremental form: continue a CRC previously returned by Crc32/Crc32Update.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);

}  // namespace privapprox::storage

#endif  // PRIVAPPROX_STORAGE_CRC32_H_
