// The write-ahead journal's framing and the storage durability model:
// CRC-framed record round-trips, torn-tail truncation at EVERY byte offset
// of the final record, and MemStorage's buffered-vs-durable crash split.

#include "core/recovery/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "core/recovery/storage.hpp"

namespace {

using tora::core::RecoveryCounters;
using tora::core::recovery::AppendHandle;
using tora::core::recovery::FileStorage;
using tora::core::recovery::JournalReadResult;
using tora::core::recovery::JournalRecord;
using tora::core::recovery::JournalWriter;
using tora::core::recovery::MemStorage;
using tora::core::recovery::read_journal;
using tora::core::recovery::RecordType;

// A representative record mix: empty payloads, text, and binary bytes
// (embedded NUL, 0xFF, newline) — the framing must be 8-bit clean.
const std::vector<JournalRecord>& sample_records() {
  static const std::vector<JournalRecord> records = {
      {RecordType::Started, ""},
      {RecordType::Tick, std::string("\x01\x00\x00\x00\x00\x00\x00\x00", 8)},
      {RecordType::Input, std::string("\x00\xffline with\nnewline", 19)},
      {RecordType::LivenessDone, ""},
      {RecordType::TaskCompleted, "payload of an audit record"},
  };
  return records;
}

std::string write_sample(MemStorage& storage, const std::string& name,
                         RecoveryCounters* counters = nullptr) {
  JournalWriter writer(storage.open_append(name), counters);
  for (const JournalRecord& r : sample_records()) {
    writer.append(r.type, r.payload);
  }
  writer.sync();
  return *storage.read_file(name);
}

TEST(Journal, RoundTripsRecords) {
  MemStorage storage;
  RecoveryCounters counters;
  const std::string bytes = write_sample(storage, "j", &counters);

  const JournalReadResult result = read_journal(bytes);
  EXPECT_FALSE(result.torn);
  EXPECT_EQ(result.bytes_consumed, bytes.size());
  EXPECT_EQ(result.records, sample_records());
  EXPECT_EQ(counters.journal_records, sample_records().size());
  EXPECT_EQ(counters.journal_bytes, bytes.size());
  EXPECT_EQ(counters.journal_syncs, 1u);
}

TEST(Journal, EmptyInputIsNotTorn) {
  const JournalReadResult result = read_journal("");
  EXPECT_TRUE(result.records.empty());
  EXPECT_FALSE(result.torn);
  EXPECT_EQ(result.bytes_consumed, 0u);
}

TEST(Journal, NullHandleThrows) {
  EXPECT_THROW(JournalWriter(nullptr), std::invalid_argument);
}

// The headline torn-tail guarantee: truncate the journal at EVERY byte
// offset within the final record. Each truncation must yield exactly the
// preceding records, never throw, and report torn for any partial bytes.
TEST(Journal, TornTailTruncationAtEveryByteOffset) {
  MemStorage storage;
  const std::string full = write_sample(storage, "j");

  // Locate the final record's frame start by re-reading all-but-one record.
  std::vector<JournalRecord> head(sample_records().begin(),
                                  sample_records().end() - 1);
  std::string head_bytes;
  {
    MemStorage scratch;
    JournalWriter writer(scratch.open_append("h"));
    for (const JournalRecord& r : head) writer.append(r.type, r.payload);
    writer.sync();
    head_bytes = *scratch.read_file("h");
  }
  ASSERT_LT(head_bytes.size(), full.size());
  ASSERT_EQ(full.compare(0, head_bytes.size(), head_bytes), 0);

  // Descending: MemStorage::tear only ever shrinks, so walking downward
  // lets one journal serve every offset.
  for (std::size_t keep = full.size() - 1; keep + 1 > head_bytes.size();
       --keep) {
    storage.tear("j", keep);
    const std::string bytes = *storage.read_file("j");
    ASSERT_EQ(bytes.size(), keep);
    const JournalReadResult result = read_journal(bytes);
    EXPECT_EQ(result.records, head) << "keep=" << keep;
    EXPECT_EQ(result.torn, keep > head_bytes.size()) << "keep=" << keep;
    EXPECT_EQ(result.bytes_consumed, head_bytes.size()) << "keep=" << keep;
  }
}

// Any single flipped byte invalidates the record it lands in; everything
// before it still reads.
TEST(Journal, CorruptionStopsAtTheMangledRecord) {
  MemStorage storage;
  const std::string full = write_sample(storage, "j");
  for (std::size_t flip = 0; flip < full.size(); ++flip) {
    std::string bytes = full;
    bytes[flip] = static_cast<char>(bytes[flip] ^ 0x5a);
    const JournalReadResult result = read_journal(bytes);
    // Never more records than written; the prefix that does decode must
    // match what was written.
    ASSERT_LE(result.records.size(), sample_records().size());
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      // A flip inside record i's frame can only hide records >= i, except
      // when it lands in a length field and resynchronizes by luck — the
      // CRC makes that astronomically unlikely, and for this fixed input it
      // does not happen.
      EXPECT_EQ(result.records[i], sample_records()[i]) << "flip=" << flip;
    }
    if (result.records.size() < sample_records().size()) {
      EXPECT_TRUE(result.torn) << "flip=" << flip;
    }
  }
}

// Frame-start offsets of the sample journal, for boundary-targeted fuzzing.
std::vector<std::size_t> sample_offsets() {
  std::vector<std::size_t> offsets;
  std::size_t pos = 0;
  for (const JournalRecord& r : sample_records()) {
    offsets.push_back(pos);
    pos += 4 + 1 + r.payload.size() + 4;  // len + type + payload + crc
  }
  return offsets;
}

// In-place damage vs a genuine tear: a flip in any NON-final record leaves
// CRC-valid records past the cut, which proves durable bytes existed beyond
// it — read_journal must flag mid_corruption so salvage refuses instead of
// silently truncating history. A flip in the FINAL record is
// indistinguishable from a torn tail and must NOT raise the flag.
TEST(Journal, ByteFlipAtEveryRecordBoundaryClassifiesTearVsCorruption) {
  MemStorage storage;
  const std::string full = write_sample(storage, "j");
  const std::vector<std::size_t> offsets = sample_offsets();
  const std::size_t last = offsets.back();
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    // Flip every byte of the frame header (len + type) plus the first
    // payload byte and the CRC bytes at each boundary.
    const std::size_t frame_end = i + 1 < offsets.size() ? offsets[i + 1]
                                                         : full.size();
    for (std::size_t off = offsets[i]; off < frame_end; ++off) {
      std::string bytes = full;
      bytes[off] = static_cast<char>(bytes[off] ^ 0x01);
      const JournalReadResult r = read_journal(bytes);
      ASSERT_TRUE(r.torn) << "record=" << i << " off=" << off;
      EXPECT_EQ(r.mid_corruption, offsets[i] < last)
          << "record=" << i << " off=" << off;
      EXPECT_EQ(r.bytes_consumed, offsets[i])
          << "record=" << i << " off=" << off;
    }
  }
}

// A pure truncation (what a crash really does) never looks like in-place
// corruption, at any cut point.
TEST(Journal, TruncationNeverFlagsMidCorruption) {
  MemStorage storage;
  const std::string full = write_sample(storage, "j");
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    const JournalReadResult r = read_journal(
        std::string_view(full).substr(0, keep));
    EXPECT_FALSE(r.mid_corruption) << "keep=" << keep;
  }
}

// A CRC-valid record whose type byte is not a RecordType is a crafted or
// buggy body, never a tear: reading stops at it and flags mid_corruption,
// in the middle of the journal and at its tail alike.
TEST(Journal, UnknownRecordTypeIsCorruptionAnywhere) {
  for (const std::size_t position : {std::size_t{1}, std::size_t{2}}) {
    std::vector<JournalRecord> records = {{RecordType::Started, ""},
                                          {RecordType::Tick, "t"}};
    records.insert(records.begin() + static_cast<std::ptrdiff_t>(position),
                   {static_cast<RecordType>(0x7f), "x"});
    MemStorage storage;
    JournalWriter writer(storage.open_append("j"));
    for (const JournalRecord& r : records) writer.append(r.type, r.payload);
    writer.sync();
    const JournalReadResult r = read_journal(*storage.read_file("j"));
    EXPECT_TRUE(r.mid_corruption) << "position=" << position;
    EXPECT_TRUE(r.torn) << "position=" << position;
    ASSERT_EQ(r.records.size(), position);
    EXPECT_EQ(r.records.front(), records.front());
  }
}

TEST(MemStorageModel, CrashDropsUnsyncedTail) {
  MemStorage storage;
  auto handle = storage.open_append("j");
  handle->append("durable");
  handle->sync();
  handle->append("lost");
  EXPECT_EQ(*storage.read_file("j"), "durablelost");  // visible pre-crash
  storage.crash();
  EXPECT_EQ(*storage.read_file("j"), "durable");
}

TEST(MemStorageModel, TearRejectsUnknownNames) {
  MemStorage storage;
  EXPECT_THROW(storage.tear("nope", 0), std::out_of_range);
}

TEST(MemStorageModel, RenameIsAtomicReplace) {
  MemStorage storage;
  storage.write_file_durable("a.tmp", "new");
  storage.write_file_durable("a", "old");
  storage.rename("a.tmp", "a");
  EXPECT_EQ(*storage.read_file("a"), "new");
  EXPECT_FALSE(storage.read_file("a.tmp").has_value());
  storage.remove("a");
  storage.remove("a");  // idempotent
  EXPECT_TRUE(storage.list().empty());
}

TEST(FileStorageModel, AppendRenameListRoundTrip) {
  const std::string root = testing::TempDir() + "tora_recovery_storage_test";
  FileStorage storage(root);
  {
    auto handle = storage.open_append("journal-0");
    handle->append("hello ");
    handle->append("world");
    handle->sync();
  }
  EXPECT_EQ(*storage.read_file("journal-0"), "hello world");
  storage.write_file_durable("snapshot-1.tmp", "body");
  storage.rename("snapshot-1.tmp", "snapshot-1");
  EXPECT_EQ(*storage.read_file("snapshot-1"), "body");
  const std::vector<std::string> names = storage.list();
  EXPECT_EQ(names, (std::vector<std::string>{"journal-0", "snapshot-1"}));
  EXPECT_FALSE(storage.read_file("missing").has_value());
  storage.remove("journal-0");
  storage.remove("snapshot-1");
  EXPECT_TRUE(storage.list().empty());
  EXPECT_THROW(storage.open_append("bad/name"), std::invalid_argument);
}

}  // namespace
