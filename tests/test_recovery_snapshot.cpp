// The binary recovery snapshot: sealed-container integrity, bit-exact
// allocator capture (history, revision, sampler state, master-Rng
// position), validation against the wrong destination, and the recovery
// log's fallback to the previous generation when a snapshot is torn.

#include "core/recovery/snapshot.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/recovery/storage.hpp"
#include "core/registry.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::RecoveryCounters;
using tora::core::TaskAllocator;
using tora::core::recovery::load_allocator;
using tora::core::recovery::MemStorage;
using tora::core::recovery::open_snapshot;
using tora::core::recovery::RecordType;
using tora::core::recovery::RecoveryLog;
using tora::core::recovery::save_allocator;
using tora::core::recovery::seal_snapshot;
using tora::util::ByteReader;
using tora::util::ByteWriter;

// ----------------------------------------------------------- sealed format

TEST(SnapshotContainer, SealOpenRoundTrip) {
  const std::string body("arbitrary \x00\xff bytes\n", 19);
  const std::string sealed = seal_snapshot(body);
  const std::optional<std::string> opened = open_snapshot(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, body);
}

TEST(SnapshotContainer, EveryTruncationIsRejected) {
  const std::string sealed = seal_snapshot("snapshot body");
  for (std::size_t keep = 0; keep < sealed.size(); ++keep) {
    EXPECT_FALSE(open_snapshot(sealed.substr(0, keep)).has_value())
        << "keep=" << keep;
  }
}

TEST(SnapshotContainer, EverySingleByteCorruptionIsRejected) {
  const std::string sealed = seal_snapshot("snapshot body");
  for (std::size_t flip = 0; flip < sealed.size(); ++flip) {
    std::string mangled = sealed;
    mangled[flip] = static_cast<char>(mangled[flip] ^ 0x01);
    EXPECT_FALSE(open_snapshot(mangled).has_value()) << "flip=" << flip;
  }
}

// ------------------------------------------------------- allocator capture

// Drives an allocator through the full lifecycle (exploration, retries,
// completions across categories) so policies get created and their sampler
// Rngs advance — the state history replay alone cannot rebuild.
void exercise(TaskAllocator& a, std::uint64_t seed) {
  tora::util::Rng values(seed);
  const char* cats[] = {"small", "big", "spiky"};
  for (int i = 0; i < 120; ++i) {
    const std::string cat = cats[i % 3];
    const auto alloc = a.allocate(cat);
    if (i % 7 == 0) {
      (void)a.allocate_retry(cat, alloc, 0x2);
    }
    a.record_completion(
        cat, {values.uniform(0.5, 4.0), values.uniform(100.0, 4000.0),
              values.uniform(10.0, 500.0)});
  }
}

// Every registered policy: the paper's seven plus hybrid, kmeans and the
// change-aware wrapper (which owns an extra Rng of its own).
const std::vector<std::string>& every_policy() {
  return tora::core::extended_policy_names();
}

std::string capture(const TaskAllocator& a) {
  ByteWriter w;
  save_allocator(a, w);
  return std::string(w.bytes());
}

TEST(AllocatorSnapshot, RestoreIsBitExact) {
  for (const std::string& name : every_policy()) {
    auto original = tora::core::make_allocator(name, 7);
    exercise(original, 3);
    const std::string saved = capture(original);

    auto restored = tora::core::make_allocator(name, 7);
    ByteReader r(saved);
    load_allocator(restored, r);
    EXPECT_TRUE(r.done()) << name;

    // Re-capturing must produce identical bytes: history, completed counts,
    // created-policy set, sampler states and the master-Rng position all
    // round-tripped.
    EXPECT_EQ(capture(restored), saved) << name;

    // And the two allocators behave identically afterwards — the real
    // contract behind the byte equality.
    for (int i = 0; i < 30; ++i) {
      const std::string cat = i % 2 == 0 ? "small" : "spiky";
      EXPECT_EQ(restored.allocate(cat), original.allocate(cat))
          << name << " draw " << i;
      original.record_completion(cat, {1.0, 300.0 + i, 30.0});
      restored.record_completion(cat, {1.0, 300.0 + i, 30.0});
    }
    EXPECT_EQ(original.revision(), restored.revision()) << name;
  }
}

TEST(AllocatorSnapshot, WrongPolicyNameThrows) {
  auto original = tora::core::make_allocator(tora::core::kGreedyBucketing, 7);
  exercise(original, 3);
  const std::string saved = capture(original);

  auto wrong = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  ByteReader r(saved);
  EXPECT_THROW(load_allocator(wrong, r), std::runtime_error);
}

TEST(AllocatorSnapshot, WrongConfigHashThrows) {
  auto original = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  exercise(original, 3);
  const std::string saved = capture(original);

  auto wrong = tora::core::make_allocator(tora::core::kMaxSeen, 7,
                                          {8.0, 1024.0, 1024.0, 0.0});
  ByteReader r(saved);
  EXPECT_THROW(load_allocator(wrong, r), std::runtime_error);
}

TEST(AllocatorSnapshot, HistorylessSourceIsRejected) {
  tora::core::AllocatorConfig cfg;
  cfg.record_history = false;
  TaskAllocator a("x", tora::core::make_policy_factory("max_seen", 1), cfg);
  ByteWriter w;
  EXPECT_THROW(save_allocator(a, w), std::logic_error);
}

// ------------------------------------------------------- log generations

TEST(RecoveryLogScan, GenesisIsEmpty) {
  MemStorage storage;
  RecoveryLog log(storage);
  const RecoveryLog::ScanResult scan = log.scan();
  EXPECT_EQ(scan.epoch, 0u);
  EXPECT_FALSE(scan.snapshot.has_value());
  EXPECT_TRUE(scan.tail.empty());
  EXPECT_FALSE(scan.torn_tail);
}

TEST(RecoveryLogScan, RotationKeepsTwoGenerations) {
  MemStorage storage;
  RecoveryCounters counters;
  RecoveryLog log(storage, &counters);
  log.open_fresh();
  log.append(RecordType::Started, "");
  log.sync();
  log.rotate("state at rotation", 5);
  EXPECT_EQ(log.epoch(), 1u);
  log.append(RecordType::Tick, "abc");
  log.sync();

  // The previous generation's journal survives the rotation: if the fresh
  // snapshot later turns out damaged, salvage replays journal-0 from
  // genesis. Only rotating AGAIN retires generation 0.
  EXPECT_EQ(storage.list(), (std::vector<std::string>{
                                "journal-0", "journal-1", "snapshot-1"}));
  EXPECT_EQ(counters.snapshots_written, 1u);

  RecoveryLog reader(storage);
  const RecoveryLog::ScanResult scan = reader.scan();
  EXPECT_EQ(scan.epoch, 1u);
  ASSERT_TRUE(scan.snapshot.has_value());
  EXPECT_EQ(*scan.snapshot, "state at rotation");
  ASSERT_EQ(scan.tail.size(), 2u);  // Epoch header + the Tick record
  EXPECT_EQ(scan.tail[0].type, RecordType::Epoch);
  EXPECT_EQ(scan.tail[1].type, RecordType::Tick);
  EXPECT_EQ(scan.tail[1].payload, "abc");

  log.rotate("state at second rotation", 9);
  EXPECT_EQ(log.epoch(), 2u);
  EXPECT_EQ(storage.list(),
            (std::vector<std::string>{"journal-1", "journal-2", "snapshot-1",
                                      "snapshot-2"}));
}

TEST(RecoveryLogScan, TornSnapshotFallsBackToPreviousGeneration) {
  MemStorage storage;
  // Hand-build the on-disk situation the rotation protocol can leave when
  // the NEXT generation's snapshot is damaged: generation 1 complete,
  // generation 2's snapshot corrupted mid-file.
  storage.write_file_durable(RecoveryLog::snapshot_name(1),
                             seal_snapshot("good old state"));
  std::string torn = seal_snapshot("new state");
  torn.resize(torn.size() / 2);
  storage.write_file_durable(RecoveryLog::snapshot_name(2), torn);

  RecoveryCounters counters;
  RecoveryLog log(storage, &counters);
  const RecoveryLog::ScanResult scan = log.scan();
  EXPECT_EQ(scan.epoch, 1u);
  ASSERT_TRUE(scan.snapshot.has_value());
  EXPECT_EQ(*scan.snapshot, "good old state");
  EXPECT_TRUE(scan.tail.empty());  // no journal-1: empty tail, not an error
  EXPECT_EQ(counters.torn_snapshots_discarded, 1u);
}

TEST(RecoveryLogScan, IgnoresTmpFilesAndTornJournalTails) {
  MemStorage storage;
  RecoveryCounters counters;
  RecoveryLog log(storage, &counters);
  log.open_fresh();
  log.append(RecordType::Started, "");
  log.sync();
  log.append(RecordType::Tick, "unsynced tail dies");
  storage.write_file_durable("snapshot-3.tmp", "half-written snapshot");
  storage.crash();

  RecoveryLog reader(storage, &counters);
  const RecoveryLog::ScanResult scan = reader.scan();
  EXPECT_EQ(scan.epoch, 0u);
  EXPECT_FALSE(scan.snapshot.has_value());
  ASSERT_EQ(scan.tail.size(), 2u);  // Epoch + Started; the Tick was unsynced
  EXPECT_EQ(scan.tail[1].type, RecordType::Started);
}

TEST(RecoveryLogScan, AppendWithoutOpenThrows) {
  MemStorage storage;
  RecoveryLog log(storage);
  EXPECT_THROW(log.append(RecordType::Started, ""), std::logic_error);
  EXPECT_THROW(log.sync(), std::logic_error);
}

// ---------------------------------------------------- salvage and refusal

using tora::core::recovery::StorageError;
using tora::core::recovery::StorageOp;

// Builds two live generations the way a run would: journal-0 from genesis,
// one rotation (snapshot-1 + journal-1), records on both sides.
void build_two_generations(MemStorage& storage) {
  RecoveryLog log(storage);
  log.open_fresh();
  log.append(RecordType::Started, "");
  log.append(RecordType::Tick, "old tick");
  log.sync();
  log.rotate("state at rotation", 5);
  log.append(RecordType::Tick, "new tick");
  log.sync();
  log.close();
}

TEST(RecoveryLogSalvage, DamagedNewestSnapshotReplaysTheJournalChain) {
  MemStorage storage;
  build_two_generations(storage);
  // Rot a byte inside snapshot-1's sealed body: scan must fall back to
  // genesis and replay journal-0 THEN journal-1 — an exact rebuild of the
  // same history, not a rollback.
  storage.corrupt(RecoveryLog::snapshot_name(1), 12, 0x10);

  RecoveryCounters counters;
  RecoveryLog log(storage, &counters);
  const RecoveryLog::ScanResult scan = log.scan();
  EXPECT_TRUE(scan.fell_back);
  EXPECT_EQ(scan.base_epoch, 0u);
  EXPECT_EQ(scan.epoch, 1u);
  EXPECT_FALSE(scan.snapshot.has_value());  // genesis base
  ASSERT_EQ(scan.tail.size(), 5u);  // Epoch,Started,Tick + Epoch,Tick
  EXPECT_EQ(scan.tail[2].payload, "old tick");
  EXPECT_EQ(scan.tail[4].payload, "new tick");
  EXPECT_EQ(counters.generation_fallbacks, 1u);
}

TEST(RecoveryLogSalvage, EveryBodyByteFlipOfTheNewestSnapshotIsSurvived) {
  MemStorage base;
  build_two_generations(base);
  const std::string sealed = *base.read_file(RecoveryLog::snapshot_name(1));
  for (std::size_t off = 0; off < sealed.size(); ++off) {
    MemStorage storage = base.durable_copy();
    storage.corrupt(RecoveryLog::snapshot_name(1), off, 0x01);
    RecoveryLog log(storage);
    const RecoveryLog::ScanResult scan = log.scan();
    // CRC32 catches every single-bit flip; salvage chains the journals.
    EXPECT_TRUE(scan.fell_back) << "off=" << off;
    EXPECT_EQ(scan.epoch, 1u) << "off=" << off;
    ASSERT_EQ(scan.tail.size(), 5u) << "off=" << off;
  }
}

TEST(RecoveryLogSalvage, BothGenerationsDamagedRefusesWithTypedError) {
  MemStorage storage;
  build_two_generations(storage);
  storage.corrupt(RecoveryLog::snapshot_name(1), 12, 0x10);
  // The fallback chain needs journal-0 intact from genesis; corrupt its
  // FIRST record while later ones survive — provably lost durable history.
  storage.corrupt(RecoveryLog::journal_name(0), 5, 0x10);
  RecoveryLog log(storage);
  try {
    log.scan();
    FAIL() << "scan accepted provably lost history";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.op(), StorageOp::Salvage);
    EXPECT_EQ(e.code(), EBADMSG);
    EXPECT_NE(std::string(e.what()).find("salvage"), std::string::npos);
  }
}

// A CRC-valid journal record whose type byte is not a RecordType cannot be
// a tear: scan refuses it with the typed salvage error, whether it sits in
// the middle of the journal or at its tail.
TEST(RecoveryLogSalvage, UnknownRecordTypeRefusesWithTypedError) {
  for (const bool at_tail : {false, true}) {
    MemStorage storage;
    RecoveryLog writer(storage);
    writer.open_fresh();
    writer.append(RecordType::Started, "");
    writer.append(static_cast<RecordType>(0x7f), "not a record type");
    if (!at_tail) writer.append(RecordType::Tick, "tick");
    writer.sync();
    writer.close();
    RecoveryLog log(storage);
    try {
      log.scan();
      ADD_FAILURE() << "scan accepted an unknown record type, at_tail="
                    << at_tail;
    } catch (const StorageError& e) {
      EXPECT_EQ(e.op(), StorageOp::Salvage) << "at_tail=" << at_tail;
      EXPECT_EQ(e.code(), EBADMSG) << "at_tail=" << at_tail;
    }
  }
}

TEST(RecoveryLogSalvage, MissingChainLinkRefuses) {
  MemStorage storage;
  build_two_generations(storage);
  storage.corrupt(RecoveryLog::snapshot_name(1), 12, 0x10);
  // Fallback wants journal-0 .. journal-1; deleting journal-0 leaves a gap
  // with a LATER journal present — refuse, never skip history.
  storage.remove(RecoveryLog::journal_name(0));
  RecoveryLog log(storage);
  EXPECT_THROW(log.scan(), StorageError);
}

TEST(RecoveryLogScan, StartupSweepsOrphanedTmpFiles) {
  MemStorage storage;
  storage.write_file_durable("snapshot-2.tmp", "crashed rotation leftover");
  storage.write_file_durable("snapshot-9.tmp", "another one");
  RecoveryCounters counters;
  RecoveryLog log(storage, &counters);
  log.open_fresh();
  const std::vector<std::string> names = storage.list();
  EXPECT_EQ(names, (std::vector<std::string>{"journal-0"}));
  EXPECT_EQ(counters.tmp_files_swept, 2u);
}

}  // namespace
