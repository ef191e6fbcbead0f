#include "storage/crc32.h"

#include <array>

namespace privapprox::storage {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected 0x04C11DB7

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

// Little-endian load, independent of host byte order.
uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (; len >= 8; bytes += 8, len -= 8) {
    const uint32_t lo = crc ^ LoadU32(bytes);
    const uint32_t hi = LoadU32(bytes + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFF];
  }
  return ~crc;
}

uint32_t Crc32(const void* data, size_t len) {
  return Crc32Update(0, data, len);
}

}  // namespace privapprox::storage
