// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the integrity
// check shared by every wire frame and by nn::serialize checkpoints.
//
// A CRC is the right tool here (vs a cryptographic hash): frames cross
// sockets and disks where the threat model is bit rot and truncation, not an
// adversary. On x86 CPUs with PCLMULQDQ and SSE4.1 (checked once at run
// time; HACCS_PORTABLE_KERNELS=1 opts out, as it does for GEMM), 16-byte
// blocks fold by carry-less multiplication, at about 16 GB/s (~16 us per
// 256 KiB) on a 4-vCPU x86-64 Xeon in a Release build, and the table path
// finishes the tail. The table path is slicing-by-16 — sixteen lookup
// tables fold sixteen bytes per step — at about 2.3 GB/s (~105 us per
// 256 KiB), against ~0.35 GB/s for the classic byte-at-a-time table. The
// incremental form (seed with a previous crc) lets a caller checksum a frame
// without first gathering it into one buffer.
#pragma once

#include <cstddef>
#include <cstdint>

namespace haccs::net {

/// CRC-32 of `data[0..len)`. Pass a previous result as `seed` to extend a
/// running checksum across several buffers; the default seed starts fresh.
/// `data` needs no particular alignment.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

/// The same CRC by the table path alone, whatever the CPU: what crc32
/// computes on hosts without PCLMULQDQ, exposed so tests cover it there
/// too.
std::uint32_t crc32_table(const void* data, std::size_t len,
                          std::uint32_t seed = 0);

}  // namespace haccs::net
