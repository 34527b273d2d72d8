// Little-endian wire primitives: WireWriter appends scalars/arrays to a byte
// buffer, WireReader consumes them with bounds checking.
//
// Floats travel as their IEEE-754 bit patterns, so NaN and Inf payloads
// round-trip bit-exactly — a corrupted client update must arrive unmodified
// for server-side validation to reject it for the right reason
// (fl::update_is_valid), not be laundered by the codec. All multi-byte
// values are little-endian on the wire, and the codec only builds for
// little-endian hosts (the static_assert below): a value's wire bytes are
// its memory bytes, so every scalar is one memcpy and every array is one
// bounds check plus one memcpy.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace haccs::net {

static_assert(std::endian::native == std::endian::little,
              "the wire codec copies host memory as little-endian bytes");

/// Thrown by WireReader on truncated or over-long payloads. Distinct from
/// std::runtime_error so transports can map it to a Corrupt verdict.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

class WireWriter {
 public:
  /// Reserves room for `bytes` in total, so an encoder that knows its size
  /// grows the buffer once.
  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f32(float v) { put(v); }
  void f64(double v) { put(v); }

  /// Raw bytes, no length prefix (callers write the count themselves).
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + len);
  }

  /// Length-prefixed (u64 count) element arrays.
  void f32_array(std::span<const float> v) { put_array(v); }
  void f64_array(std::span<const double> v) { put_array(v); }
  void u32_array(std::span<const std::uint32_t> v) { put_array(v); }
  void u8_array(std::span<const std::uint8_t> v) { put_array(v); }
  void string(const std::string& s) {
    put_array(std::span<const char>(s.data(), s.size()));
  }

  std::size_t size() const { return bytes_.size(); }
  const std::vector<std::uint8_t>& data() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  template <typename T>
  void put(T v) {
    bytes(&v, sizeof(T));
  }

  template <typename T>
  void put_array(std::span<const T> v) {
    u64(v.size());
    bytes(v.data(), v.size_bytes());
  }

  std::vector<std::uint8_t> bytes_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  float f32() { return take<float>(); }
  double f64() { return take<double>(); }

  /// Raw bytes into `dst`, no length prefix; throws WireError if fewer than
  /// `len` remain.
  void bytes(void* dst, std::size_t len) {
    if (remaining() < len) throw WireError("wire: truncated payload");
    if (len > 0) std::memcpy(dst, data_.data() + pos_, len);
    pos_ += len;
  }

  std::vector<float> f32_array() { return take_array<float>(); }
  std::vector<double> f64_array() { return take_array<double>(); }
  std::vector<std::uint32_t> u32_array() {
    return take_array<std::uint32_t>();
  }
  std::vector<std::uint8_t> u8_array() { return take_array<std::uint8_t>(); }
  std::string string() {
    const std::uint64_t n = checked_count(u64(), 1);
    std::string out(static_cast<std::size_t>(n), '\0');
    bytes(out.data(), out.size());
    return out;
  }

  std::size_t remaining() const { return data_.size() - pos_; }

  /// Throws WireError unless every byte was consumed — a well-formed decoder
  /// must account for the entire payload (trailing garbage means the frame
  /// does not hold what its type tag claims).
  void expect_exhausted() const {
    if (remaining() != 0) {
      throw WireError("wire: " + std::to_string(remaining()) +
                      " unconsumed payload bytes");
    }
  }

 private:
  template <typename T>
  T take() {
    T v{};
    bytes(&v, sizeof(T));
    return v;
  }

  template <typename T>
  std::vector<T> take_array() {
    const std::uint64_t n = checked_count(u64(), sizeof(T));
    std::vector<T> out(static_cast<std::size_t>(n));
    bytes(out.data(), out.size() * sizeof(T));
    return out;
  }

  /// Validates a declared element count against the bytes actually present
  /// before allocating (a corrupt count must not drive a huge allocation).
  std::uint64_t checked_count(std::uint64_t n, std::size_t elem_size) {
    if (n > remaining() / elem_size) {
      throw WireError("wire: declared array exceeds payload");
    }
    return n;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace haccs::net
