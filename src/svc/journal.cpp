#include "svc/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/certify_wire.hpp"
#include "util/error.hpp"

namespace bncg::svc {

namespace {

constexpr const char* kSessionFile = "session.bin";

/// The run identity of a session: the bytes session.bin carries after its
/// version word, and the key session_dir_name hashes.
[[nodiscard]] std::string identity_bytes(const JournalHeader& h) {
  std::string body;
  put_u64(body, h.fingerprint);
  put_u32(body, h.n);
  put_u64(body, h.m);
  put_model(body, h.model);
  put_bool(body, h.include_deletions);
  put_bool(body, h.stop_on_violation);
  put_u32(body, h.shard_count);
  return body;
}

[[nodiscard]] std::string encode_header(const JournalHeader& h) {
  std::string body;
  put_u32(body, kJournalVersion);
  body += identity_bytes(h);
  return seal(kJournalMagic, body);
}

[[nodiscard]] JournalHeader decode_header(std::string_view bytes) {
  PayloadReader in(unseal(kJournalMagic, bytes));
  BNCG_REQUIRE(in.u32() == kJournalVersion, "journal session: unsupported version");
  JournalHeader h;
  h.fingerprint = in.u64();
  h.n = in.u32();
  h.m = in.u64();
  h.model = read_model(in);
  h.include_deletions = in.boolean();
  h.stop_on_violation = in.boolean();
  h.shard_count = in.u32();
  BNCG_REQUIRE(h.shard_count >= 1, "journal session: zero shard count");
  in.expect_end();
  return h;
}

/// A recovered record must belong to this session AND sit exactly on the
/// canonical i·n/K split the dispatcher leases; anything else is treated
/// exactly like corruption (skip and recompute the range). The coordinate
/// clause is what lets the streaming sink fold records straight from disk:
/// every file the journal admits is, by construction, mergeable.
[[nodiscard]] bool record_matches(const JournalHeader& h, const ShardResult& r) {
  return same_run(h, r) && r.shard_index < h.shard_count &&
         r.agent_lo == static_cast<Vertex>(std::uint64_t{r.shard_index} * h.n / h.shard_count) &&
         r.agent_hi ==
             static_cast<Vertex>((std::uint64_t{r.shard_index} + 1) * h.n / h.shard_count);
}

}  // namespace

bool same_run(const JournalHeader& h, const ShardResult& r) {
  return r.fingerprint == h.fingerprint && r.n == h.n && r.m == h.m && r.model == h.model &&
         r.include_deletions == h.include_deletions &&
         r.stop_on_violation == h.stop_on_violation && r.shard_count == h.shard_count;
}

std::string ShardJournal::record_name(std::uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "range_%06u.shard", index);
  return buf;
}

ShardJournal ShardJournal::create(const std::string& dir, const JournalHeader& header) {
  BNCG_REQUIRE(header.shard_count >= 1, "journal: zero shard count");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw std::runtime_error("journal: cannot create " + dir + ": " + ec.message());
  BNCG_REQUIRE(!std::filesystem::exists(dir + "/" + kSessionFile),
               "journal: " + dir + " already holds a session — resume or remove it");
  ShardJournal j;
  j.dir_ = dir;
  j.header_ = header;
  j.has_record_.assign(header.shard_count, false);
  write_file_atomic(dir + "/" + kSessionFile, encode_header(header));
  return j;
}

ShardJournal ShardJournal::open(const std::string& dir, bool keep_records) {
  ShardJournal j;
  j.dir_ = dir;
  j.header_ = decode_header(read_file(dir + "/" + kSessionFile));
  j.has_record_.assign(j.header_.shard_count, false);
  for (std::uint32_t index = 0; index < j.header_.shard_count; ++index) {
    const std::string path = dir + "/" + record_name(index);
    if (!std::filesystem::exists(path)) continue;
    try {
      ShardResult r = read_shard_file(path);
      if (!record_matches(j.header_, r) || r.shard_index != index) {
        ++j.skipped_corrupt_;
        continue;
      }
      j.has_record_[index] = true;
      if (keep_records) j.recovered_.push_back(std::move(r));
    } catch (const std::invalid_argument&) {
      ++j.skipped_corrupt_;  // damaged record → recompute that range
    }
  }
  return j;
}

void ShardJournal::record(const ShardResult& shard) {
  BNCG_REQUIRE(record_matches(header_, shard), "journal: record does not match the session");
  if (has_record_[shard.shard_index]) return;  // append-only, first result wins
  write_file_atomic(dir_ + "/" + record_name(shard.shard_index), shard_to_binary(shard));
  has_record_[shard.shard_index] = true;
}

std::string ShardJournal::session_dir_name(const JournalHeader& h) {
  // The key hashes exactly the fields same_run compares, so "same
  // directory" and "mergeable records" coincide by construction.
  const std::string body = identity_bytes(h);
  char buf[32];
  std::snprintf(buf, sizeof buf, "session_%016llx",
                static_cast<unsigned long long>(fnv1a64(body.data(), body.size())));
  return buf;
}

std::vector<std::string> ShardJournal::list_session_dirs(const std::string& root) {
  std::vector<std::string> dirs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("session_", 0) != 0) continue;
    if (!std::filesystem::exists(entry.path() / kSessionFile)) continue;
    dirs.push_back(entry.path().string());
  }
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

}  // namespace bncg::svc
