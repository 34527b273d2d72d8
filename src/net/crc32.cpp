#include "src/net/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace haccs::net {

namespace {

static_assert(std::endian::native == std::endian::little,
              "crc32 loads payload words as little-endian");

constexpr std::uint32_t kPolynomial = 0xEDB88320u;
constexpr std::size_t kSlices = 16;

using Tables = std::array<std::array<std::uint32_t, 256>, kSlices>;

/// Slicing-by-16 tables: tables[0] is the classic bytewise table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so sixteen
/// lookups advance the CRC over sixteen input bytes at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < kSlices; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Folds one little-endian word: `table` is the slice for its first byte.
inline std::uint32_t fold_word(std::uint32_t w, std::size_t table) {
  return kTables[table][w & 0xFFu] ^ kTables[table - 1][(w >> 8) & 0xFFu] ^
         kTables[table - 2][(w >> 16) & 0xFFu] ^ kTables[table - 3][w >> 24];
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  // memcpy word loads: the payload has no alignment guarantee.
  for (; len >= kSlices; p += kSlices, len -= kSlices) {
    std::uint32_t w[4];
    std::memcpy(w, p, sizeof(w));
    c = fold_word(w[0] ^ c, 15) ^ fold_word(w[1], 11) ^ fold_word(w[2], 7) ^
        fold_word(w[3], 3);
  }
  for (; len > 0; ++p, --len) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace haccs::net
