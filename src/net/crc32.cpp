#include "src/net/crc32.hpp"

#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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

/// The slicing-by-16 loop over the running (pre-inverted) state `c`.
std::uint32_t crc32_sliced(const unsigned char* p, std::size_t len,
                           std::uint32_t c) {
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
  return c;
}

#if defined(__x86_64__) || defined(__i386__)
#define HACCS_HAVE_CLMUL_CRC 1

__m128i load(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One 128-bit fold: x·k over the low halves ⊕ x·k over the high halves ⊕
/// the next 16 bytes.
__attribute__((target("pclmul,sse4.1"))) __m128i fold(__m128i x, __m128i k,
                                                      __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Carry-less-multiply folding over the running state `c` for `len` bytes,
/// len >= 64 and a multiple of 16: four 128-bit lanes fold 64-byte blocks,
/// collapse to one lane, fold the remaining 16-byte blocks, and a Barrett
/// reduction yields the 32-bit state. The constants are x^k mod P for the
/// reflected polynomial (the k1..k5 and μ of Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
/// 2009), as zlib's crc32_simd uses them.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(
    const unsigned char* p, std::size_t len, std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0x0000000000, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_clmulepi64_si128(x1, k5k0, 0x00);
  x1 = _mm_xor_si128(x1, t);
  t = _mm_and_si128(x1, mask32);
  t = _mm_clmulepi64_si128(t, poly, 0x10);
  t = _mm_and_si128(t, mask32);
  t = _mm_clmulepi64_si128(t, poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

/// Resolved once per process: the carry-less-multiply path when the CPU has
/// PCLMULQDQ and SSE4.1 and HACCS_PORTABLE_KERNELS is not set.
bool use_clmul() {
  static const bool use = __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("sse4.1") &&
                          std::getenv("HACCS_PORTABLE_KERNELS") == nullptr;
  return use;
}
#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(HACCS_HAVE_CLMUL_CRC)
  if (len >= 64 && use_clmul()) {
    const std::size_t blocks = len & ~std::size_t{15};
    c = crc32_clmul(p, blocks, c);
    p += blocks;
    len -= blocks;
  }
#endif
  return crc32_sliced(p, len, c) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_table(const void* data, std::size_t len,
                          std::uint32_t seed) {
  return crc32_sliced(static_cast<const unsigned char*>(data), len,
                      seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

}  // namespace haccs::net
