// Crash-safe shard journal (svc/journal.hpp): create/record/open recovery,
// append-only idempotence, corruption degradation (damaged records are
// skipped and counted, never fatal), and the session guards — a journal
// can never be silently overwritten nor resumed against the wrong
// instance or run configuration.
#include "svc/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/certify_sharded.hpp"
#include "core/certify_wire.hpp"
#include "core/swap_engine.hpp"
#include "gen/random.hpp"
#include "graph/io.hpp"
#include "svc/sink.hpp"
#include "util/rng.hpp"

namespace bncg::svc {
namespace {

namespace fs = std::filesystem;

class SvcJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest -j runs each TEST_F as its own process, and
    // a shared directory makes SetUp's remove_all race a sibling's rename
    // into the same path. In-process tests run sequentially and TearDown
    // removes the directory, so the pid alone disambiguates.
    dir_ = (fs::temp_directory_path() /
            ("bncg_svc_journal_" + std::to_string(static_cast<long>(::getpid()))))
               .string();
    fs::remove_all(dir_);
    Xoshiro256ss rng(0x10DE);
    g_ = random_connected_gnm(24, 60, rng);
    header_.fingerprint = graph_fingerprint(g_);
    header_.n = g_.num_vertices();
    header_.m = g_.num_edges();
    header_.model = UsageCost::Sum;
    header_.shard_count = 4;
  }

  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] ShardResult make_shard(std::uint32_t index) const {
    const SwapEngine engine(g_);
    AgentRange range;
    range.shard_index = index;
    range.shard_count = header_.shard_count;
    range.lo = static_cast<Vertex>(index * header_.n / header_.shard_count);
    range.hi = static_cast<Vertex>((index + 1) * header_.n / header_.shard_count);
    return certify_agent_range(engine, range, header_.model, header_.include_deletions,
                               header_.stop_on_violation);
  }

  std::string dir_;
  Graph g_;
  JournalHeader header_;
};

TEST_F(SvcJournalTest, CreateRecordOpenRoundTrip) {
  {
    ShardJournal journal = ShardJournal::create(dir_, header_);
    journal.record(make_shard(1));
    journal.record(make_shard(3));
  }
  ShardJournal reopened = ShardJournal::open(dir_);
  EXPECT_EQ(reopened.header().fingerprint, header_.fingerprint);
  EXPECT_EQ(reopened.header().shard_count, header_.shard_count);
  ASSERT_EQ(reopened.recovered().size(), 2u);
  EXPECT_EQ(reopened.skipped_corrupt(), 0u);
  // Recovered records carry the full payload, not just coordinates.
  const ShardResult want = make_shard(1);
  const ShardResult& got = reopened.recovered().front();
  EXPECT_EQ(got.shard_index, 1u);
  EXPECT_EQ(got.scanned, want.scanned);
  EXPECT_EQ(got.moves, want.moves);
  EXPECT_EQ(shard_to_binary(got), shard_to_binary(want));
}

TEST_F(SvcJournalTest, RecordIsIdempotentPerIndex) {
  ShardJournal journal = ShardJournal::create(dir_, header_);
  journal.record(make_shard(2));
  const fs::path record = fs::path(dir_) / ShardJournal::record_name(2);
  const auto first_write = fs::last_write_time(record);
  journal.record(make_shard(2));  // duplicate: must not rewrite the file
  EXPECT_EQ(fs::last_write_time(record), first_write);
  EXPECT_EQ(ShardJournal::open(dir_).recovered().size(), 1u);
}

TEST_F(SvcJournalTest, CreateRefusesExistingSession) {
  { (void)ShardJournal::create(dir_, header_); }
  EXPECT_THROW((void)ShardJournal::create(dir_, header_), std::invalid_argument);
}

TEST_F(SvcJournalTest, OpenMissingDirectoryOrSessionThrowsRuntime) {
  EXPECT_THROW((void)ShardJournal::open(dir_ + "-nope"), std::runtime_error);
  fs::create_directories(dir_);  // directory without a session record
  EXPECT_THROW((void)ShardJournal::open(dir_), std::runtime_error);
}

TEST_F(SvcJournalTest, CorruptSessionRecordRefusedOnOpen) {
  { (void)ShardJournal::create(dir_, header_); }
  const fs::path session = fs::path(dir_) / "session.bin";
  std::string bytes;
  {
    std::ifstream in(session, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::string flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
  write_file_atomic(session.string(), flipped);
  EXPECT_THROW((void)ShardJournal::open(dir_), std::invalid_argument);

  // A non-canonical include_deletions byte (0x02) under a recomputed
  // checksum: only the strict boolean read can refuse it.
  std::string body(unseal(kJournalMagic, bytes));
  constexpr std::size_t kIncludeDeletions = 4 + 8 + 4 + 8 + 1;  // version fp n m model
  ASSERT_EQ(body.at(kIncludeDeletions), 0);
  body[kIncludeDeletions] = 2;
  write_file_atomic(session.string(), seal(kJournalMagic, body));
  EXPECT_THROW((void)ShardJournal::open(dir_), std::invalid_argument);
}

TEST_F(SvcJournalTest, DamagedRecordSkippedAndCounted) {
  {
    ShardJournal journal = ShardJournal::create(dir_, header_);
    journal.record(make_shard(0));
    journal.record(make_shard(1));
  }
  // Truncate one record (external damage — a crash cannot do this, the
  // rename is atomic).
  const fs::path victim = fs::path(dir_) / ShardJournal::record_name(0);
  fs::resize_file(victim, fs::file_size(victim) / 2);
  ShardJournal reopened = ShardJournal::open(dir_);
  ASSERT_EQ(reopened.recovered().size(), 1u);
  EXPECT_EQ(reopened.recovered().front().shard_index, 1u);
  EXPECT_EQ(reopened.skipped_corrupt(), 1u);
}

TEST_F(SvcJournalTest, NoTempFilesSurviveNormalOperation) {
  {
    ShardJournal journal = ShardJournal::create(dir_, header_);
    for (std::uint32_t i = 0; i < header_.shard_count; ++i) journal.record(make_shard(i));
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), entry.path().filename() == "session.bin"
                                            ? fs::path(".bin")
                                            : fs::path(".shard"))
        << entry.path();
  }
}

TEST_F(SvcJournalTest, NonCanonicalCoordinatesRefusedLikeCorruption) {
  // The journal admits ONLY records on the canonical i·n/K split — that
  // invariant is what lets the streaming sink fold files straight from
  // disk. A shard with shifted coordinates is refused at record() and, if
  // planted on disk, skipped on open like any other corruption.
  ShardJournal journal = ShardJournal::create(dir_, header_);
  const SwapEngine engine(g_);
  AgentRange shifted;
  shifted.shard_index = 1;
  shifted.shard_count = header_.shard_count;
  shifted.lo = 0;  // canonical lo of shard 1 is n/4 = 6
  shifted.hi = static_cast<Vertex>(2 * header_.n / header_.shard_count);
  const ShardResult bad = certify_agent_range(engine, shifted, header_.model, false, false);
  EXPECT_THROW(journal.record(bad), std::invalid_argument);

  write_file_atomic(dir_ + "/" + ShardJournal::record_name(1), shard_to_binary(bad));
  ShardJournal reopened = ShardJournal::open(dir_);
  EXPECT_EQ(reopened.recovered().size(), 0u);
  EXPECT_EQ(reopened.skipped_corrupt(), 1u);
}

TEST_F(SvcJournalTest, StreamingOpenTracksRecordsWithoutPayloads) {
  {
    ShardJournal journal = ShardJournal::create(dir_, header_);
    journal.record(make_shard(0));
    journal.record(make_shard(2));
  }
  ShardJournal streaming = ShardJournal::open(dir_, /*keep_records=*/false);
  EXPECT_TRUE(streaming.recovered().empty());  // payloads stay on disk
  EXPECT_EQ(streaming.records(), 2u);
  EXPECT_TRUE(streaming.has_record(0));
  EXPECT_FALSE(streaming.has_record(1));
  EXPECT_TRUE(streaming.has_record(2));
  const ShardResult reread = read_shard_file(streaming.record_path(2));
  EXPECT_EQ(shard_to_binary(reread), shard_to_binary(make_shard(2)));
}

TEST_F(SvcJournalTest, SessionDirNameKeysExactlyTheMergeIdentity) {
  const std::string base = ShardJournal::session_dir_name(header_);
  EXPECT_EQ(base.rfind("session_", 0), 0u);
  EXPECT_EQ(base, ShardJournal::session_dir_name(header_));  // deterministic
  for (const auto& mutate : std::vector<std::function<void(JournalHeader&)>>{
           [](JournalHeader& h) { h.fingerprint ^= 1; },
           [](JournalHeader& h) { h.n += 1; },
           [](JournalHeader& h) { h.m += 1; },
           [](JournalHeader& h) { h.model = UsageCost::Max; },
           [](JournalHeader& h) { h.include_deletions = true; },
           [](JournalHeader& h) { h.stop_on_violation = true; },
           [](JournalHeader& h) { h.shard_count += 1; }}) {
    JournalHeader other = header_;
    mutate(other);
    EXPECT_NE(ShardJournal::session_dir_name(other), base);
  }
}

TEST_F(SvcJournalTest, ListSessionDirsFindsOnlyRealSessions) {
  JournalHeader sibling = header_;
  sibling.model = UsageCost::Max;
  const std::string a = dir_ + "/" + ShardJournal::session_dir_name(header_);
  const std::string b = dir_ + "/" + ShardJournal::session_dir_name(sibling);
  { (void)ShardJournal::create(a, header_); }
  { (void)ShardJournal::create(b, sibling); }
  fs::create_directories(dir_ + "/session_notarealsession");  // no session.bin
  fs::create_directories(dir_ + "/unrelated");
  std::ofstream(dir_ + "/session_stray.txt") << "file, not a dir\n";

  std::vector<std::string> found = ShardJournal::list_session_dirs(dir_);
  std::vector<std::string> want = {a, b};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(found, want);
  EXPECT_TRUE(ShardJournal::list_session_dirs(dir_ + "/does-not-exist").empty());
}

// --- streaming witness sink -------------------------------------------------

TEST_F(SvcJournalTest, SpoolSinkCompactionMatchesBufferedMergeByteForByte) {
  const std::string spool_dir = dir_ + "/spool";
  std::vector<ShardResult> shards;
  {
    StreamingSink sink = StreamingSink::spool(spool_dir, header_);
    // Append out of order; compaction must still fold in shard-index order.
    for (const std::uint32_t idx : {2u, 0u, 3u, 1u}) {
      shards.push_back(make_shard(idx));
      sink.append(shards.back());
      EXPECT_TRUE(sink.has(idx));
    }
    EXPECT_EQ(sink.appended(), 4u);
    sink.append(make_shard(2));  // duplicate: first result wins, no rewrite
    EXPECT_EQ(sink.appended(), 4u);

    const ShardedCertificate streamed = sink.compact();
    const ShardedCertificate buffered = merge_shard_results(shards);
    EXPECT_EQ(streamed.certificate.is_equilibrium, buffered.certificate.is_equilibrium);
    EXPECT_EQ(streamed.certificate.moves_checked, buffered.certificate.moves_checked);
    EXPECT_EQ(streamed.certificate.witness.has_value(),
              buffered.certificate.witness.has_value());
    EXPECT_EQ(streamed.agents_scanned, buffered.agents_scanned);
    EXPECT_EQ(streamed.shards_used, buffered.shards_used);
    EXPECT_TRUE(fs::exists(spool_dir));
  }
  // Spool contract: the throwaway directory dies with the sink.
  EXPECT_FALSE(fs::exists(spool_dir));
}

TEST_F(SvcJournalTest, SinkCompactionRefusesMissingShards) {
  StreamingSink sink = StreamingSink::spool(dir_ + "/partial", header_);
  sink.append(make_shard(0));
  sink.append(make_shard(1));
  EXPECT_THROW((void)sink.compact(), std::invalid_argument);
}

TEST_F(SvcJournalTest, DurableSinkSurvivesReopenAndStillCompacts) {
  const std::string session_dir = dir_ + "/" + ShardJournal::session_dir_name(header_);
  {
    StreamingSink sink = StreamingSink::durable(ShardJournal::create(session_dir, header_));
    sink.append(make_shard(0));
    sink.append(make_shard(3));
  }
  ASSERT_TRUE(fs::exists(session_dir));  // durable: the journal outlives the sink
  StreamingSink resumed =
      StreamingSink::durable(ShardJournal::open(session_dir, /*keep_records=*/false));
  EXPECT_EQ(resumed.appended(), 2u);  // recovered records count as appended
  resumed.append(make_shard(1));
  resumed.append(make_shard(2));
  const ShardedCertificate streamed = resumed.compact();
  std::vector<ShardResult> all;
  for (std::uint32_t i = 0; i < header_.shard_count; ++i) all.push_back(make_shard(i));
  EXPECT_EQ(streamed.certificate.moves_checked, merge_shard_results(all).certificate.moves_checked);
  EXPECT_EQ(streamed.shards_used, header_.shard_count);
}

}  // namespace
}  // namespace bncg::svc
