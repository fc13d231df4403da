#include "util/bytes.hpp"

namespace bncg {

std::uint64_t fnv1a64(const void* data, std::size_t size) noexcept {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string seal(std::string_view magic, std::string_view body) {
  std::string out;
  out.reserve(magic.size() + body.size() + 8);
  out += magic;
  out += body;
  put_u64(out, fnv1a64(body.data(), body.size()));
  return out;
}

std::string_view unseal(std::string_view magic, std::string_view sealed) {
  BNCG_REQUIRE(sealed.size() >= magic.size() + 8, "sealed record: truncated");
  BNCG_REQUIRE(sealed.substr(0, magic.size()) == magic, "sealed record: bad magic");
  const std::string_view body = sealed.substr(magic.size(), sealed.size() - magic.size() - 8);
  PayloadReader tail(sealed.substr(sealed.size() - 8));
  BNCG_REQUIRE(fnv1a64(body.data(), body.size()) == tail.u64(), "sealed record: checksum mismatch");
  return body;
}

}  // namespace bncg
