// The boundary of this build's one integrity seal, CRC-32C: every
// single-bit flip and every truncation of a sealed wire line, journal frame
// and snapshot container is refused; a journal torn inside its first frame
// still recovers; and peers and stores written in the formats before
// CRC-32C (built here by tests/oracles/v1_formats.hpp) are refused with
// typed errors that name the format, never read as damage or as nothing.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/recovery/journal.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/recovery/storage.hpp"
#include "oracles/v1_formats.hpp"
#include "proto/message.hpp"
#include "proto/net/session.hpp"
#include "util/bytes.hpp"

namespace {

using tora::core::RecoveryCounters;
using tora::core::recovery::FormatError;
using tora::core::recovery::JournalWriter;
using tora::core::recovery::MemStorage;
using tora::core::recovery::RecordType;
using tora::core::recovery::RecoveryLog;
using tora::core::recovery::StorageError;
using tora::core::recovery::StorageOp;
using tora::proto::Message;
using tora::proto::MsgType;
namespace net = tora::proto::net;
namespace v1 = tora::oracles::v1;

/// A sealed line and the decoder that must accept it intact.
struct SealedLine {
  std::string line;
  bool (*accepts)(std::string_view);
};

std::vector<SealedLine> sealed_lines() {
  const auto app = [](std::string_view l) {
    return tora::proto::decode(l).has_value();
  };
  std::vector<SealedLine> out;
  Message m;
  m.worker_id = 3;
  m.task_id = 17;
  m.attempt = 2;
  m.category = "proc x=1";
  m.resources = tora::core::ResourceVector{1.5, 512, 64, 0};
  m.runtime_s = 12.25;
  m.exceeded_mask = 5;
  for (MsgType t : {MsgType::WorkerReady, MsgType::TaskDispatch,
                    MsgType::TaskResult, MsgType::Evict, MsgType::Shutdown,
                    MsgType::Heartbeat}) {
    m.type = t;
    out.push_back({tora::proto::encode(m), app});
  }
  out.push_back({net::encode_hello({net::kTransportVersion, 3, 12345, 6}),
                 [](std::string_view l) {
                   return net::decode_hello(l).has_value();
                 }});
  out.push_back({net::encode_welcome({net::kTransportVersion, 99, 17, true}),
                 [](std::string_view l) {
                   return net::decode_welcome(l).has_value();
                 }});
  out.push_back({net::encode_ack({42}), [](std::string_view l) {
                   return net::decode_ack(l).has_value();
                 }});
  return out;
}

TEST(FormatBoundary, EveryBitFlipAndTruncationOfASealedLineIsRefused) {
  for (const SealedLine& s : sealed_lines()) {
    ASSERT_TRUE(s.accepts(s.line)) << s.line;
    for (std::size_t at = 0; at < s.line.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string bad = s.line;
        bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
        EXPECT_FALSE(s.accepts(bad))
            << s.line << ": flip of bit " << bit << " at byte " << at;
      }
    }
    for (std::size_t len = 0; len < s.line.size(); ++len) {
      EXPECT_FALSE(s.accepts(s.line.substr(0, len)))
          << s.line << ": truncation to " << len << " bytes";
    }
  }
}

/// One journal frame of each shape: the epoch header, an empty payload and
/// a wire line.
std::vector<std::string> journal_frames() {
  std::vector<std::string> out;
  const auto frame = [&](RecordType type, std::string_view payload) {
    MemStorage storage;
    {
      JournalWriter w(storage.open_append("journal-0"));
      w.append(type, payload);
      w.sync();
    }
    out.push_back(*storage.read_file("journal-0"));
  };
  tora::util::ByteWriter epoch;
  epoch.u64(7);
  epoch.u64(40);
  frame(RecordType::Epoch, epoch.bytes());
  frame(RecordType::Started, "");
  frame(RecordType::Input, "\x03\x00\x00\x00ready crc=0 worker=3");
  return out;
}

TEST(FormatBoundary, EveryBitFlipAndTruncationOfAJournalFrameIsRefused) {
  for (const std::string& frame : journal_frames()) {
    ASSERT_EQ(tora::core::recovery::read_journal(frame).records.size(), 1u);
    for (std::size_t at = 0; at < frame.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string bad = frame;
        bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
        const auto r = tora::core::recovery::read_journal(bad);
        EXPECT_TRUE(r.records.empty())
            << "flip of bit " << bit << " at byte " << at;
        EXPECT_TRUE(r.torn);
      }
    }
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const auto r =
          tora::core::recovery::read_journal(frame.substr(0, len));
      EXPECT_TRUE(r.records.empty()) << "truncation to " << len << " bytes";
      EXPECT_EQ(r.torn, len > 0);
    }
  }
}

TEST(FormatBoundary, EveryBitFlipAndTruncationOfASnapshotContainerIsRefused) {
  const std::string sealed = tora::core::recovery::seal_snapshot(
      std::string("a manager body\0with \xff binary bytes", 34));
  ASSERT_TRUE(tora::core::recovery::open_snapshot(sealed));
  for (std::size_t at = 0; at < sealed.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = sealed;
      bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
      EXPECT_FALSE(tora::core::recovery::open_snapshot(bad))
          << "flip of bit " << bit << " at byte " << at;
      EXPECT_FALSE(tora::core::recovery::sealed_version(bad))
          << "flip of bit " << bit << " at byte " << at;
    }
  }
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    EXPECT_FALSE(tora::core::recovery::open_snapshot(sealed.substr(0, len)))
        << "truncation to " << len << " bytes";
  }
}

// --------------------------------------------------------- transport v1

TEST(FormatBoundary, VersionOneLinesAreRefusedAndItsHandshakesRecognised) {
  const std::string dispatch = v1::sealed_line(
      "dispatch",
      " worker=3 task=17 attempt=1 category=proc cores=1 memory=512 disk=64 "
      "time=0");
  EXPECT_FALSE(tora::proto::decode(dispatch));
  EXPECT_FALSE(net::sealed_by_v1(dispatch));  // not a control frame

  const std::string hello =
      v1::sealed_line("tora!hello", " v=1 worker=0 token=0 rx=0");
  EXPECT_FALSE(net::decode_hello(hello));
  EXPECT_TRUE(net::sealed_by_v1(hello));
  const std::string welcome =
      v1::sealed_line("tora!welcome", " v=1 token=5 rx=0 resume=0");
  EXPECT_FALSE(net::decode_welcome(welcome));
  EXPECT_TRUE(net::sealed_by_v1(welcome));

  EXPECT_FALSE(net::sealed_by_v1(net::encode_hello({})));
  EXPECT_FALSE(net::sealed_by_v1(net::encode_welcome({})));
  // 15 or 17 digits, or an uppercase one, is not a v1 seal either.
  EXPECT_FALSE(net::sealed_by_v1("tora!hello crc=0123456789abcde v=1"));
  EXPECT_FALSE(net::sealed_by_v1("tora!hello crc=0123456789abcdef0 v=1"));
  EXPECT_FALSE(net::sealed_by_v1("tora!hello crc=0123456789ABCDEF v=1"));
}

// ------------------------------------------------------------ stores

/// journal-<epoch> as a build before CRC-32C framing wrote it.
std::string v1_journal(std::uint64_t epoch, std::uint64_t tick) {
  std::string tick_payload;
  v1::put_le(tick_payload, tick + 1, 8);
  return v1::epoch_frame(epoch, tick) +
         v1::journal_frame(static_cast<std::uint8_t>(RecordType::Started),
                           "") +
         v1::journal_frame(static_cast<std::uint8_t>(RecordType::Tick),
                           tick_payload);
}

/// Scans `storage` and returns the FormatError it must raise.
std::optional<FormatError> scan_refusal(MemStorage& storage,
                                        RecoveryCounters& counters) {
  RecoveryLog log(storage, &counters);
  try {
    log.scan();
  } catch (const FormatError& e) {
    return e;
  } catch (const StorageError& e) {
    ADD_FAILURE() << "refused, but not by format: " << e.what();
  }
  return std::nullopt;
}

TEST(FormatBoundary, VersionOneGenesisJournalIsRefusedByFormat) {
  // A bare CRC swap read this as a tear at byte 0: recovery from nothing.
  MemStorage storage;
  storage.write_file_durable("journal-0", v1_journal(0, 0));
  RecoveryCounters counters;
  const auto e = scan_refusal(storage, counters);
  ASSERT_TRUE(e);
  EXPECT_EQ(e->object(), "journal-0");
  EXPECT_EQ(e->format(), "journal with CRC-32 frames");
  EXPECT_EQ(e->op(), StorageOp::Salvage);
  EXPECT_EQ(e->code(), EBADMSG);
  EXPECT_NE(std::string(e->what()).find("older format"), std::string::npos);
  EXPECT_EQ(counters.salvage_refusals, 1u);
  EXPECT_EQ(counters.torn_records_truncated, 0u);
}

TEST(FormatBoundary, VersionTwoContainerStoreIsRefusedByFormat) {
  // Two retained generations; journal-0 long purged. A bare CRC swap counted
  // both snapshots as torn.
  MemStorage storage;
  for (std::uint64_t e : {5, 6}) {
    storage.write_file_durable(RecoveryLog::snapshot_name(e),
                               v1::snapshot_container("state " +
                                                      std::to_string(e)));
    storage.write_file_durable(RecoveryLog::journal_name(e),
                               v1_journal(e, 10 * e));
  }
  RecoveryCounters counters;
  const auto e = scan_refusal(storage, counters);
  ASSERT_TRUE(e);
  EXPECT_EQ(e->object(), "snapshot-6");
  EXPECT_EQ(e->format(), "snapshot container version 2 (CRC-32 seal)");
  EXPECT_EQ(counters.salvage_refusals, 1u);
}

TEST(FormatBoundary, VersionTwoContainerWithGenesisJournalIsRefusedThere) {
  // One rotation in: snapshot-1 plus journals 0 and 1. The genesis replay
  // meets the older journal first.
  MemStorage storage;
  storage.write_file_durable(RecoveryLog::snapshot_name(1),
                             v1::snapshot_container("state 1"));
  storage.write_file_durable(RecoveryLog::journal_name(0), v1_journal(0, 0));
  storage.write_file_durable(RecoveryLog::journal_name(1), v1_journal(1, 4));
  RecoveryCounters counters;
  const auto e = scan_refusal(storage, counters);
  ASSERT_TRUE(e);
  EXPECT_EQ(e->object(), "journal-0");
}

TEST(FormatBoundary, OurSnapshotWithAFlippedVersionFieldStillFallsBack) {
  // Version 3 -> 2 is one bit: with journal-0 at hand the scan falls back
  // to genesis exactly as for any other damaged snapshot.
  MemStorage storage;
  {
    RecoveryLog log(storage);
    log.open_fresh();
    log.append(RecordType::Started, "");
    log.sync();
    log.rotate("state at rotation", 5);
    log.append(RecordType::Tick, "new tick");
    log.sync();
  }
  storage.corrupt(RecoveryLog::snapshot_name(1), 8, 0x01);
  const auto file = storage.read_file(RecoveryLog::snapshot_name(1));
  ASSERT_EQ(tora::core::recovery::older_container_version(*file), 2u);
  RecoveryLog log(storage);
  const RecoveryLog::ScanResult scan = log.scan();
  EXPECT_TRUE(scan.fell_back);
  EXPECT_EQ(scan.epoch, 1u);
  EXPECT_EQ(scan.tail.size(), 4u);  // Epoch, Started + Epoch, Tick

  // Without journal-0 it is our generation with its own journal: refused as
  // damage, not as an older format.
  storage.remove(RecoveryLog::journal_name(0));
  RecoveryLog again(storage);
  try {
    again.scan();
    ADD_FAILURE() << "scan accepted a store with no usable snapshot";
  } catch (const FormatError& e) {
    ADD_FAILURE() << "damage named as a format: " << e.what();
  } catch (const StorageError& e) {
    EXPECT_EQ(e.op(), StorageOp::Salvage);
  }
}

// ------------------------------------------------------- torn first frame

TEST(FormatBoundary, JournalTornInsideItsFirstFrameStillRecovers) {
  // A crash before the opening sync leaves any prefix of the epoch frame.
  MemStorage pristine;
  {
    RecoveryLog log(pristine);
    log.open_fresh();
    log.append(RecordType::Started, "");
    log.sync();
    log.rotate("state at rotation", 5);
  }
  const std::string genesis_head =
      pristine.read_file(RecoveryLog::journal_name(0))->substr(0, 25);
  const std::string head = *pristine.read_file(RecoveryLog::journal_name(1));
  ASSERT_EQ(head.size(), 25u);  // exactly the epoch frame
  for (std::size_t cut = 0; cut < head.size(); ++cut) {
    for (const bool genesis : {true, false}) {
      MemStorage storage;
      if (genesis) {
        storage.write_file_durable(RecoveryLog::journal_name(0),
                                   genesis_head.substr(0, cut));
      } else {
        storage.write_file_durable(
            RecoveryLog::snapshot_name(1),
            *pristine.read_file(RecoveryLog::snapshot_name(1)));
        storage.write_file_durable(RecoveryLog::journal_name(1),
                                   head.substr(0, cut));
      }
      RecoveryLog log(storage);
      const RecoveryLog::ScanResult scan = log.scan();
      EXPECT_TRUE(scan.tail.empty()) << "cut " << cut;
      EXPECT_EQ(scan.torn_tail, cut > 0) << "cut " << cut;
      EXPECT_EQ(scan.snapshot.has_value(), !genesis) << "cut " << cut;
      EXPECT_EQ(scan.epoch, genesis ? 0u : 1u) << "cut " << cut;
    }
  }
  // A whole epoch frame with a damaged CRC and nothing after it is the one
  // shape both formats share; it stays a torn tail, as before.
  MemStorage storage;
  storage.write_file_durable(RecoveryLog::journal_name(0), genesis_head);
  storage.corrupt(RecoveryLog::journal_name(0), 24, 0x80);
  RecoveryLog log(storage);
  const RecoveryLog::ScanResult scan = log.scan();
  EXPECT_TRUE(scan.tail.empty());
  EXPECT_TRUE(scan.torn_tail);
}

}  // namespace
