#include "core/certify_wire.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/error.hpp"

namespace bncg {

namespace {

[[nodiscard]] std::string encode_body(const ShardResult& r) {
  std::string out;
  put_u32(out, kShardWireVersion);
  put_u64(out, r.fingerprint);
  put_u32(out, r.n);
  put_u64(out, r.m);
  put_model(out, r.model);
  put_bool(out, r.include_deletions);
  put_bool(out, r.stop_on_violation);
  put_u8(out, r.width == DistWidth::U8 ? 0 : 1);
  put_u32(out, r.shard_index);
  put_u32(out, r.shard_count);
  put_u32(out, r.agent_lo);
  put_u32(out, r.agent_hi);
  put_u32(out, r.scanned);
  put_u64(out, r.moves);
  put_u64(out, r.width_fallbacks);
  put_bool(out, r.best.has_value());
  if (r.best) {
    put_u32(out, r.best->swap.v);
    put_u32(out, r.best->swap.remove_w);
    put_u32(out, r.best->swap.add_w);
    put_u64(out, r.best->cost_before);
    put_u64(out, r.best->cost_after);
    put_u8(out, r.best->kind == Deviation::Kind::ImprovingSwap ? 0 : 1);
  }
  return out;
}

/// Structural sanity the decoder enforces before a result is handed out;
/// the deeper run-consistency checks live in merge_shard_results.
void validate_shard(const ShardResult& r) {
  BNCG_REQUIRE(r.agent_lo <= r.agent_hi && r.agent_hi <= r.n, "shard wire: bad agent range");
  BNCG_REQUIRE(r.shard_index < r.shard_count, "shard wire: bad shard index");
  BNCG_REQUIRE(r.scanned <= r.agent_hi - r.agent_lo, "shard wire: scanned exceeds range");
  if (r.best) {
    BNCG_REQUIRE(r.best->swap.v >= r.agent_lo && r.best->swap.v < r.agent_hi,
                 "shard wire: witness agent outside shard range");
    BNCG_REQUIRE(r.best->swap.remove_w < r.n && r.best->swap.add_w < r.n,
                 "shard wire: witness endpoint out of range");
  }
}

[[nodiscard]] ShardResult decode_body(std::string_view body) {
  PayloadReader in(body);
  const std::uint32_t version = in.u32();
  BNCG_REQUIRE(version == kShardWireVersion, "shard wire: unsupported version");
  ShardResult r;
  r.fingerprint = in.u64();
  r.n = in.u32();
  r.m = in.u64();
  r.model = read_model(in);
  r.include_deletions = in.boolean();
  r.stop_on_violation = in.boolean();
  const std::uint8_t width = in.u8();
  BNCG_REQUIRE(width <= 1, "shard wire: bad width byte");
  r.width = width == 0 ? DistWidth::U8 : DistWidth::U16;
  r.shard_index = in.u32();
  r.shard_count = in.u32();
  r.agent_lo = in.u32();
  r.agent_hi = in.u32();
  r.scanned = in.u32();
  r.moves = in.u64();
  r.width_fallbacks = in.u64();
  if (in.boolean()) {
    Deviation dev;
    dev.swap.v = in.u32();
    dev.swap.remove_w = in.u32();
    dev.swap.add_w = in.u32();
    dev.cost_before = in.u64();
    dev.cost_after = in.u64();
    const std::uint8_t kind = in.u8();
    BNCG_REQUIRE(kind <= 1, "shard wire: bad witness kind byte");
    dev.kind = kind == 0 ? Deviation::Kind::ImprovingSwap : Deviation::Kind::NonCriticalDelete;
    r.best = dev;
  }
  in.expect_end();
  validate_shard(r);
  return r;
}

}  // namespace

std::string shard_to_binary(const ShardResult& shard) {
  return seal(kShardWireMagic, encode_body(shard));
}

ShardResult shard_from_binary(std::string_view bytes) {
  return decode_body(unseal(kShardWireMagic, bytes));
}

void put_model(std::string& out, UsageCost model) {
  put_u8(out, model == UsageCost::Sum ? 0 : 1);
}

UsageCost read_model(PayloadReader& in) {
  const std::uint8_t model = in.u8();
  BNCG_REQUIRE(model <= 1, "bad model byte");
  return model == 0 ? UsageCost::Sum : UsageCost::Max;
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  // Crash-safe: write <path>.tmp, fsync, rename(2) into place, fsync the
  // directory entry. A process killed mid-write leaves at most a stale
  // .tmp — never a truncated file at the path a reader will trust.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) throw std::runtime_error("shard wire: cannot open for writing: " + tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t rc = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw std::runtime_error("shard wire: write failed: " + tmp);
    }
    written += static_cast<std::size_t>(rc);
  }
  if (::fsync(fd) < 0 || ::close(fd) < 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("shard wire: fsync/close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("shard wire: rename failed: " + path);
  }
  // Make the rename itself durable: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in && !in.eof()) throw std::runtime_error("read failed: " + path);
  return buffer.str();
}

void write_shard_file(const std::string& path, const ShardResult& shard) {
  write_file_atomic(path, shard_to_binary(shard));
}

ShardResult read_shard_file(const std::string& path) {
  return shard_from_binary(read_file(path));
}

}  // namespace bncg
