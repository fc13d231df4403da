// Wire format of cross-process certification shards.
//
// A ShardResult (core/certify_sharded.hpp) is the unit a worker process
// hands back to the merger, as a shard file or as the payload of a served
// Result frame. It has one encoding: a fixed little-endian layout
// (util/bytes.hpp) behind an 8-byte magic and an explicit version word,
// sealed by an FNV-1a checksum over the body, so truncation and bit
// corruption are detected before any field is trusted.
//
// The decoder throws std::invalid_argument on malformed input (truncated,
// corrupted, wrong magic/version, out-of-range fields, or anything that is
// not this layout at all) — a bad shard file can refuse to load but can
// never crash the merger or smuggle in an inconsistent result. Instance
// safety is layered on top: every shard embeds graph_fingerprint(g), and
// merge_shard_results refuses to fold shards whose fingerprints (or run
// parameters) disagree. Layout and protocol: DESIGN.md §11.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/certify_sharded.hpp"
#include "util/bytes.hpp"

namespace bncg {

/// Version word of the shard wire format. Bump on any layout change; the
/// decoder rejects versions it does not speak.
inline constexpr std::uint32_t kShardWireVersion = 1;

/// Magic prefix of binary shard files ("BNCGSHRD").
inline constexpr std::string_view kShardWireMagic = "BNCGSHRD";

/// Serializes to the binary layout (magic + version + body + checksum).
[[nodiscard]] std::string shard_to_binary(const ShardResult& shard);

/// Decodes the binary layout; throws std::invalid_argument on anything
/// short of a byte-exact, checksum-valid, in-range encoding.
[[nodiscard]] ShardResult shard_from_binary(std::string_view bytes);

/// The one-byte usage-cost model field every binary encoding carries
/// (0 = sum, 1 = max); read_model throws std::invalid_argument on any
/// other byte.
void put_model(std::string& out, UsageCost model);
[[nodiscard]] UsageCost read_model(PayloadReader& in);

/// Writes `bytes` to `path` crash-safely: `<path>.tmp` + fsync +
/// rename(2) + directory fsync, so a process killed at ANY instant leaves
/// either the complete file or nothing at the final path — never a
/// truncated one. Shared by write_shard_file, the service's shard journal
/// (svc/journal.hpp), and the streaming witness sink (svc/sink.hpp).
/// Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Reads the whole file at `path`. Throws std::runtime_error when it
/// cannot be read.
[[nodiscard]] std::string read_file(const std::string& path);

/// Writes `shard` to `path` in the binary layout, crash-safely (via
/// write_file_atomic), so a worker killed mid-write leaves no truncated
/// file for a merge to trip on. Throws std::runtime_error on I/O failure.
void write_shard_file(const std::string& path, const ShardResult& shard);

/// Reads and decodes a shard file. Throws std::runtime_error when the
/// file cannot be read, std::invalid_argument when its contents do not
/// decode.
[[nodiscard]] ShardResult read_shard_file(const std::string& path);

}  // namespace bncg
