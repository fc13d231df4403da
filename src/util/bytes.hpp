// The one little-endian byte codec of the library.
//
// Every binary encoding here — shard files (core/certify_wire.hpp), the
// shard journal's session record (svc/journal.hpp), and the dispatch
// protocol's frames and payloads (svc/net.hpp, svc/protocol.hpp) — is
// written with put_* and read back with PayloadReader. Fields are
// (de)serialized byte by byte, never memcpy'd through host integers, so
// every encoding is endian-stable. Decoding is strict: truncation,
// trailing bytes, and a boolean byte other than 0 or 1 all throw
// std::invalid_argument, so a damaged input can refuse to load but never
// read out of bounds or decode to a second spelling of the same value.
//
// seal / unseal wrap a body in the envelope both file records use:
// magic + body + FNV-1a 64 of the body, little-endian.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace bncg {

/// FNV-1a 64-bit hash. Used for the graph fingerprint and every checksum.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t size) noexcept;

inline void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

inline void put_bool(std::string& out, bool v) { put_u8(out, v ? 1 : 0); }

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// u32 length prefix + raw bytes.
inline void put_bytes(std::string& out, std::string_view bytes) {
  BNCG_REQUIRE(bytes.size() <= 0xFFFFFFFFull, "bytes: string too long");
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

/// Bounds-checked little-endian reader over a byte view; throws
/// std::invalid_argument on truncation, trailing content (expect_end), or
/// a non-canonical boolean.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  /// One byte that must be exactly 0 or 1.
  [[nodiscard]] bool boolean() {
    const std::uint8_t v = u8();
    BNCG_REQUIRE(v <= 1, "bytes: boolean field out of range");
    return v != 0;
  }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(little_endian(4)); }
  [[nodiscard]] std::uint64_t u64() { return little_endian(8); }
  /// u32 length prefix + raw bytes (the put_bytes layout).
  [[nodiscard]] std::string bytes() {
    const std::uint32_t len = u32();
    need(len);
    std::string out(bytes_.substr(pos_, len));
    pos_ += len;
    return out;
  }
  void expect_end() const { BNCG_REQUIRE(pos_ == bytes_.size(), "bytes: trailing bytes"); }

 private:
  void need(std::size_t count) const {
    BNCG_REQUIRE(count <= bytes_.size() - pos_, "bytes: truncated");
  }
  [[nodiscard]] std::uint64_t little_endian(int width) {
    need(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(width);
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// magic + body + fnv1a64(body).
[[nodiscard]] std::string seal(std::string_view magic, std::string_view body);

/// The body of a sealed record; throws std::invalid_argument when the
/// record is truncated, carries another magic, or fails its checksum.
[[nodiscard]] std::string_view unseal(std::string_view magic, std::string_view sealed);

}  // namespace bncg
