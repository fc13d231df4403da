// Crash-safe shard journal of a certification service run (DESIGN.md §12).
//
// The dispatcher records every completed agent range as one wire-encoded
// ShardResult file inside a journal directory, written via temp-file +
// rename(2) with fsync, so a dispatcher killed at ANY instant leaves
// either a fully valid record or no record — never a truncated one. A
// session header (same atomic discipline) pins the instance fingerprint
// and run configuration; `bncg_certify serve --resume` reopens the
// directory, refuses a header that does not match its own instance (the
// journal-level twin of the wire fingerprint guard), and marks every
// recovered range completed so a resumed run recomputes nothing that was
// already certified.
//
// The journal is append-only: records are never rewritten or deleted, and
// record() is a no-op for a range that already has a record (first valid
// result wins, exactly like the dispatcher's in-memory accounting). A
// record file that fails to decode — possible only through external
// damage, not through crashes, thanks to the atomic rename — is skipped
// and counted, degrading to recomputation of that range rather than
// refusal of the whole journal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/certify_sharded.hpp"

namespace bncg::svc {

/// Version word of the journal session record.
inline constexpr std::uint32_t kJournalVersion = 1;

/// Magic prefix of the session record file ("BNCGJRNL").
inline constexpr std::string_view kJournalMagic = "BNCGJRNL";

/// Identity of the run a journal belongs to. Resume refuses any mismatch.
struct JournalHeader {
  std::uint64_t fingerprint = 0;
  Vertex n = 0;
  std::uint64_t m = 0;
  UsageCost model = UsageCost::Sum;
  bool include_deletions = false;
  bool stop_on_violation = false;
  std::uint32_t shard_count = 1;

  bool operator==(const JournalHeader&) const = default;
};

/// Whether shard `r` was computed for the run `h` names: the same
/// instance (fingerprint, n, m), model, flags, and shard count. Journal
/// records and served results are both admitted by this one predicate.
[[nodiscard]] bool same_run(const JournalHeader& h, const ShardResult& r);

class ShardJournal {
 public:
  /// Starts a fresh journal in `dir` (created if absent). Throws
  /// std::invalid_argument when `dir` already holds a session — an
  /// existing journal must be resumed or removed explicitly, never
  /// silently overwritten.
  [[nodiscard]] static ShardJournal create(const std::string& dir, const JournalHeader& header);

  /// Reopens an existing journal: loads the session header and every
  /// decodable record consistent with it. Throws std::runtime_error when
  /// the directory or session record is missing, std::invalid_argument
  /// when the session record is corrupt. Records that fail to decode or
  /// disagree with the header are skipped and counted, not fatal.
  /// `keep_records == false` validates and indexes the records (has_record,
  /// skipped_corrupt) but discards the decoded payloads — recovered() stays
  /// empty and peak memory stays O(one shard); the streaming witness sink
  /// (svc/sink.hpp) re-reads records one at a time from disk instead.
  [[nodiscard]] static ShardJournal open(const std::string& dir, bool keep_records = true);

  /// Atomically appends one completed range (temp file + fsync +
  /// rename). No-op when the range already has a record. Throws
  /// std::runtime_error on I/O failure.
  void record(const ShardResult& shard);

  [[nodiscard]] const JournalHeader& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<ShardResult>& recovered() const noexcept { return recovered_; }
  [[nodiscard]] std::size_t skipped_corrupt() const noexcept { return skipped_corrupt_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Whether shard `index` already has a durable record.
  [[nodiscard]] bool has_record(std::uint32_t index) const {
    return index < has_record_.size() && has_record_[index];
  }
  /// Number of shards with durable records.
  [[nodiscard]] std::uint32_t records() const noexcept {
    std::uint32_t count = 0;
    for (const bool has : has_record_) count += has ? 1 : 0;
    return count;
  }
  /// Full path of the record file of shard `index`.
  [[nodiscard]] std::string record_path(std::uint32_t index) const {
    return dir_ + "/" + record_name(index);
  }

  /// Name of the record file of shard `index` ("range_000042.shard").
  [[nodiscard]] static std::string record_name(std::uint32_t index);

  /// Deterministic per-session directory name derived from the header's
  /// identity block ("session_<16-hex>"). Two submissions of the same
  /// instance + run configuration map to the SAME directory — which is
  /// exactly the idempotence the multi-session dispatcher wants — while
  /// any difference in fingerprint/n/m/model/flags/shard_count yields a
  /// different name, so sibling sessions can never share a journal.
  [[nodiscard]] static std::string session_dir_name(const JournalHeader& header);

  /// Subdirectories of `root` that look like session journals (name
  /// starts with "session_" and a session.bin exists inside), sorted by
  /// name for deterministic resume order. Missing root → empty list.
  [[nodiscard]] static std::vector<std::string> list_session_dirs(const std::string& root);

 private:
  ShardJournal() = default;

  std::string dir_;
  JournalHeader header_;
  std::vector<ShardResult> recovered_;
  std::vector<bool> has_record_;
  std::size_t skipped_corrupt_ = 0;
};

}  // namespace bncg::svc
