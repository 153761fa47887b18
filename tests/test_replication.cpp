// Journal shipping between a primary RecoveryLog and a hot-standby
// StandbyReplica: the codec's corruption envelope, byte-exact mirroring of
// the recovery directory across appends/syncs/rotations, commit-mode
// semantics at durability barriers, the standby-lost escape hatch, and the
// unseeded-standby refusal rules.

#include "core/replication/replication.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/recovery/journal.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/recovery/storage.hpp"
#include "util/bytes.hpp"

namespace {

using tora::core::ReplicationCounters;
using tora::core::recovery::JournalRecord;
using tora::core::recovery::MemStorage;
using tora::core::recovery::RecordType;
using tora::core::recovery::RecoveryLog;
using tora::core::replication::decode_frame;
using tora::core::replication::encode_ack;
using tora::core::replication::encode_barrier;
using tora::core::replication::encode_fence;
using tora::core::replication::encode_open_fresh;
using tora::core::replication::encode_record;
using tora::core::replication::encode_rotate;
using tora::core::replication::JournalShipper;
using tora::core::replication::ReplicationConfig;
using tora::core::replication::ReplicationFrame;
using tora::core::replication::StandbyApplier;
using tora::core::replication::StandbyReplica;

// In-process "wire": two ordered queues, adapters in the shape the
// replication classes want.
struct Wire {
  std::vector<std::string> to_standby;
  std::vector<std::string> to_primary;
  std::size_t standby_read = 0;
  std::size_t primary_read = 0;

  auto standby_send() {
    return [this](std::string f) { to_primary.push_back(std::move(f)); };
  }
  auto standby_recv() {
    return [this]() -> std::optional<std::string> {
      if (standby_read >= to_standby.size()) return std::nullopt;
      return to_standby[standby_read++];
    };
  }
  auto primary_send() {
    return [this](std::string f) { to_standby.push_back(std::move(f)); };
  }
  auto primary_recv() {
    return [this]() -> std::optional<std::string> {
      if (primary_read >= to_primary.size()) return std::nullopt;
      return to_primary[primary_read++];
    };
  }
};

/// Applier stub: records what it saw; warm body is settable.
struct RecordingApplier final : StandbyApplier {
  std::vector<JournalRecord> records;
  std::optional<std::string> body;
  std::size_t rebases = 0;

  void apply_record(const JournalRecord& rec) override {
    records.push_back(rec);
  }
  std::optional<std::string> warm_body() override { return body; }
  void rebase(const std::string& b) override {
    body = b;
    ++rebases;
  }
};

std::string payload_u64(std::uint64_t v) {
  tora::util::ByteWriter w;
  w.u64(v);
  return w.take();
}

bool storages_equal(const MemStorage& a, const MemStorage& b) {
  if (a.list() != b.list()) return false;
  for (const auto& name : a.list()) {
    if (a.read_file(name) != b.read_file(name)) return false;
  }
  return true;
}

// ------------------------------------------------------------------ codec

TEST(ReplicationCodec, RoundTripsEveryOp) {
  {
    const auto f = decode_frame(encode_open_fresh());
    ASSERT_TRUE(f);
    EXPECT_EQ(f->op, ReplicationFrame::Op::OpenFresh);
  }
  {
    const std::string payload = std::string("bin\0\n\xffpayload", 12);
    const auto f = decode_frame(encode_record(RecordType::Input, payload));
    ASSERT_TRUE(f);
    EXPECT_EQ(f->op, ReplicationFrame::Op::Record);
    EXPECT_EQ(f->rtype, RecordType::Input);
    EXPECT_EQ(f->body, payload);
  }
  {
    const auto f = decode_frame(encode_barrier(42));
    ASSERT_TRUE(f);
    EXPECT_EQ(f->op, ReplicationFrame::Op::Barrier);
    EXPECT_EQ(f->seq, 42u);
  }
  {
    const auto f = decode_frame(encode_rotate(7, "snapshot\0body", 99));
    ASSERT_TRUE(f);
    EXPECT_EQ(f->op, ReplicationFrame::Op::Rotate);
    EXPECT_EQ(f->epoch, 7u);
    EXPECT_EQ(f->tick, 99u);
  }
  {
    const auto f = decode_frame(encode_ack(11));
    ASSERT_TRUE(f);
    EXPECT_EQ(f->op, ReplicationFrame::Op::Ack);
    EXPECT_EQ(f->seq, 11u);
  }
  {
    const auto f = decode_frame(encode_fence(3));
    ASSERT_TRUE(f);
    EXPECT_EQ(f->op, ReplicationFrame::Op::Fence);
    EXPECT_EQ(f->seq, 3u);
  }
}

TEST(ReplicationCodec, EveryByteFlipIsDetected) {
  const std::string wire = encode_record(RecordType::Input, "hello world");
  for (std::size_t at = 0; at < wire.size(); ++at) {
    std::string bad = wire;
    bad[at] = static_cast<char>(bad[at] ^ 0x20);
    EXPECT_FALSE(decode_frame(bad)) << "flip at byte " << at << " parsed";
  }
}

TEST(ReplicationCodec, TruncationGarbageAndTrailingBytesRejected) {
  const std::string wire = encode_barrier(123456);
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    EXPECT_FALSE(decode_frame(wire.substr(0, keep)));
  }
  EXPECT_FALSE(decode_frame(""));
  EXPECT_FALSE(decode_frame("not a frame"));
  EXPECT_FALSE(decode_frame(wire + "x"));
}

TEST(ReplicationCodec, UnknownRecordTypeRejected) {
  EXPECT_FALSE(decode_frame(encode_record(static_cast<RecordType>(0x7f), "x")));
  EXPECT_FALSE(decode_frame(encode_record(static_cast<RecordType>(0x00), "x")));
  EXPECT_FALSE(decode_frame(encode_record(static_cast<RecordType>(0x09), "x")));
  for (RecordType t : {RecordType::Epoch, RecordType::TermBump,
                       RecordType::CategoryInterned, RecordType::TaskFatal}) {
    const auto f = decode_frame(encode_record(t, "x"));
    ASSERT_TRUE(f) << tora::core::recovery::to_string(t);
    EXPECT_EQ(f->rtype, t);
  }
}

// -------------------------------------------------------------- mirroring

TEST(Replication, MirrorsAppendsSyncsAndRotationsByteExact) {
  MemStorage primary_disk;
  MemStorage standby_disk;
  Wire wire;
  ReplicationCounters counters;
  RecordingApplier applier;
  StandbyReplica replica(standby_disk, wire.standby_send(),
                         wire.standby_recv(), &applier, &counters);
  JournalShipper shipper({}, wire.primary_send(), wire.primary_recv(),
                         &counters);
  shipper.set_service([&] { replica.pump(); });

  RecoveryLog log(primary_disk, nullptr, nullptr);
  log.set_observer(&shipper);

  log.open_fresh();
  log.append(RecordType::Tick, payload_u64(1));
  log.append(RecordType::Input, "link payload");
  log.sync();  // sync-mode barrier: blocks until the standby acked
  EXPECT_EQ(shipper.acked(), shipper.shipped());
  EXPECT_TRUE(storages_equal(primary_disk, standby_disk));

  log.rotate("snapshot body bytes", 2);
  log.append(RecordType::Tick, payload_u64(3));
  log.sync();
  EXPECT_TRUE(storages_equal(primary_disk, standby_disk))
      << "mirror diverged across a rotation";
  EXPECT_EQ(replica.log().epoch(), log.epoch());

  // The warm applier saw exactly the appended records, in order.
  ASSERT_EQ(applier.records.size(), 3u);
  EXPECT_EQ(applier.records[1].type, RecordType::Input);
  EXPECT_EQ(applier.records[1].payload, "link payload");
  EXPECT_EQ(counters.records_shipped, 3u);
  EXPECT_EQ(counters.records_applied, 3u);
  EXPECT_EQ(counters.rotations_shipped, 1u);
  EXPECT_EQ(counters.rotations_applied, 1u);
  EXPECT_EQ(counters.corrupt_frames, 0u);
  EXPECT_EQ(counters.standby_losses, 0u);
}

TEST(Replication, RotateVerifiesWarmBodyAndRepairsMismatch) {
  MemStorage primary_disk;
  MemStorage standby_disk;
  Wire wire;
  ReplicationCounters counters;
  RecordingApplier applier;
  StandbyReplica replica(standby_disk, wire.standby_send(),
                         wire.standby_recv(), &applier, &counters);
  JournalShipper shipper({}, wire.primary_send(), wire.primary_recv(),
                         &counters);
  shipper.set_service([&] { replica.pump(); });

  RecoveryLog log(primary_disk, nullptr, nullptr);
  log.set_observer(&shipper);
  log.open_fresh();

  applier.body = "the true body";
  log.rotate("the true body", 1);
  EXPECT_EQ(counters.rotate_mismatches, 0u);
  EXPECT_EQ(applier.rebases, 0u) << "matching warm image must not rebase";

  applier.body = "a DIVERGED warm image";
  log.rotate("the truer body", 2);
  EXPECT_EQ(counters.rotate_mismatches, 1u);
  EXPECT_EQ(applier.rebases, 1u);
  EXPECT_EQ(*applier.body, "the truer body");
  EXPECT_TRUE(storages_equal(primary_disk, standby_disk));
}

// ------------------------------------------------------------ commit modes

TEST(Replication, AsyncModeOnlyBlocksPastTheLagCap) {
  MemStorage primary_disk;
  Wire wire;
  ReplicationConfig cfg;
  cfg.mode = ReplicationConfig::CommitMode::Async;
  cfg.lag_cap = 8;
  cfg.wait_rounds_cap = 4;  // a blocked barrier gives up fast
  ReplicationCounters counters;
  // No replica at all: nothing ever acks.
  JournalShipper shipper(cfg, wire.primary_send(), wire.primary_recv(),
                         &counters);
  RecoveryLog log(primary_disk, nullptr, nullptr);
  log.set_observer(&shipper);
  log.open_fresh();
  for (std::uint64_t i = 0; i < cfg.lag_cap; ++i) {
    log.append(RecordType::Tick, payload_u64(i));
    log.sync();
  }
  // Under the cap with zero acks: no barrier ever blocked.
  EXPECT_EQ(counters.sync_waits, 0u);
  EXPECT_FALSE(shipper.standby_lost());
  // One more record pushes the lag past the cap; the barrier blocks, runs
  // out of wait rounds, and replication declares the standby lost.
  log.append(RecordType::Tick, payload_u64(99));
  log.sync();
  EXPECT_EQ(counters.sync_waits, 1u);
  EXPECT_TRUE(shipper.standby_lost());
  EXPECT_EQ(counters.standby_losses, 1u);
  // From then on the shipper is inert: the primary runs unreplicated.
  const std::uint64_t shipped_before = shipper.shipped();
  log.append(RecordType::Tick, payload_u64(100));
  log.sync();
  EXPECT_EQ(shipper.shipped(), shipped_before);
}

TEST(Replication, SyncModeBlocksEveryBarrierUntilAcked) {
  MemStorage primary_disk;
  MemStorage standby_disk;
  Wire wire;
  ReplicationCounters counters;
  RecordingApplier applier;
  StandbyReplica replica(standby_disk, wire.standby_send(),
                         wire.standby_recv(), &applier, &counters);
  ReplicationConfig cfg;  // Sync by default
  JournalShipper shipper(cfg, wire.primary_send(), wire.primary_recv(),
                         &counters);
  shipper.set_service([&] { replica.pump(); });
  RecoveryLog log(primary_disk, nullptr, nullptr);
  log.set_observer(&shipper);
  log.open_fresh();
  for (std::uint64_t i = 0; i < 5; ++i) {
    log.append(RecordType::Tick, payload_u64(i));
    log.sync();
    EXPECT_EQ(shipper.acked(), shipper.shipped())
        << "a sync barrier returned while the standby lagged";
  }
  EXPECT_EQ(counters.barriers_acked, counters.barriers_shipped);
}

// -------------------------------------------------------- unseeded standby

TEST(Replication, UnseededStandbyRefusesRecordsAndNeverAcks) {
  MemStorage standby_disk;
  Wire wire;
  ReplicationCounters counters;
  RecordingApplier applier;
  StandbyReplica replica(standby_disk, wire.standby_send(),
                         wire.standby_recv(), &applier, &counters);
  // A mid-stream attach: records and a barrier arrive with no OpenFresh or
  // seeding Rotate before them.
  wire.to_standby.push_back(encode_record(RecordType::Tick, payload_u64(1)));
  wire.to_standby.push_back(encode_barrier(1));
  replica.pump();
  EXPECT_EQ(replica.applied(), 0u);
  EXPECT_TRUE(applier.records.empty());
  EXPECT_TRUE(wire.to_primary.empty())
      << "an unseeded standby must never acknowledge a barrier";
  EXPECT_EQ(counters.corrupt_frames, 1u) << "the refused record is counted";
  EXPECT_TRUE(standby_disk.list().empty());

  // A seeding rotation arrives: from here the stream applies normally.
  wire.to_standby.push_back(encode_rotate(1, "seed body", 5));
  wire.to_standby.push_back(encode_record(RecordType::Tick, payload_u64(6)));
  wire.to_standby.push_back(encode_barrier(2));
  replica.pump();
  EXPECT_EQ(replica.applied(), 1u);
  EXPECT_EQ(applier.rebases, 1u);
  ASSERT_EQ(wire.to_primary.size(), 1u);
  const auto ack = decode_frame(wire.to_primary[0]);
  ASSERT_TRUE(ack);
  EXPECT_EQ(ack->op, ReplicationFrame::Op::Ack);
  EXPECT_EQ(ack->seq, 2u);
}

TEST(Replication, CorruptWireFramesAreCountedNotFatal) {
  MemStorage standby_disk;
  Wire wire;
  ReplicationCounters counters;
  StandbyReplica replica(standby_disk, wire.standby_send(),
                         wire.standby_recv(), nullptr, &counters);
  wire.to_standby.push_back(encode_open_fresh());
  wire.to_standby.push_back("garbage that is not a frame");
  wire.to_standby.push_back(encode_record(RecordType::Tick, payload_u64(1)));
  replica.pump();
  EXPECT_EQ(counters.corrupt_frames, 1u);
  EXPECT_EQ(replica.applied(), 1u) << "good frames after garbage still apply";
}

TEST(Replication, UnknownRecordTypeIsCountedAndNeverMirrored) {
  MemStorage standby_disk;
  Wire wire;
  ReplicationCounters counters;
  RecordingApplier applier;
  StandbyReplica replica(standby_disk, wire.standby_send(),
                         wire.standby_recv(), &applier, &counters);
  wire.to_standby.push_back(encode_open_fresh());
  wire.to_standby.push_back(
      encode_record(static_cast<RecordType>(0x7f), "audit?"));
  wire.to_standby.push_back(encode_record(RecordType::Tick, payload_u64(1)));
  replica.pump();
  EXPECT_EQ(counters.corrupt_frames, 1u);
  EXPECT_EQ(counters.records_applied, 1u);
  ASSERT_EQ(applier.records.size(), 1u);
  EXPECT_EQ(applier.records[0].type, RecordType::Tick);
  const auto journal = standby_disk.read_file("journal-0");
  ASSERT_TRUE(journal);
  for (const JournalRecord& rec :
       tora::core::recovery::read_journal(*journal).records) {
    EXPECT_NE(static_cast<int>(rec.type), 0x7f);
  }
}

// ----------------------------------------------------------------- fencing

TEST(Replication, FenceOnAckChannelFiresCallbackAndStopsShipping) {
  MemStorage primary_disk;
  Wire wire;
  ReplicationCounters counters;
  JournalShipper shipper({}, wire.primary_send(), wire.primary_recv(),
                         &counters);
  std::uint64_t fenced_term = 0;
  shipper.set_on_fenced([&](std::uint64_t term) { fenced_term = term; });
  wire.to_primary.push_back(encode_fence(7));
  shipper.poll_acks();
  EXPECT_TRUE(shipper.fenced());
  EXPECT_EQ(fenced_term, 7u);
  EXPECT_EQ(counters.fences_received, 1u);
}

TEST(ReplicationCounters, MergeSumsFieldsAndMaxesLag) {
  ReplicationCounters a;
  a.records_shipped = 3;
  a.max_observed_lag = 10;
  ReplicationCounters b;
  b.records_shipped = 4;
  b.max_observed_lag = 2;
  b.promotions = 1;
  a.merge(b);
  EXPECT_EQ(a.records_shipped, 7u);
  EXPECT_EQ(a.promotions, 1u);
  EXPECT_EQ(a.max_observed_lag, 10u);
}

}  // namespace
