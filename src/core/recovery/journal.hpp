#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "core/recovery/storage.hpp"

namespace tora::core::recovery {

/// Journal record types. Two families:
///
///  - MANAGER-INPUT records (< 0x10): the write-ahead log proper. They
///    capture every nondeterministic input the manager consumes (the tick
///    boundary, each polled wire line, and the phase-completion markers),
///    which is sufficient to reconstruct the manager bit-for-bit by
///    replaying the real handlers with sends suppressed.
///
///  - LIFECYCLE records (>= 0x10): the task-lifecycle audit trail
///    (completions, failures, evictions, allocations, interned categories)
///    emitted through DispatchCore's RuntimeHooks. Replay SKIPS them — the
///    same state change re-derives from the input replay — but they make
///    the journal a self-describing account of what the workflow did,
///    readable without the message transcript.
enum class RecordType : std::uint8_t {
  // Manager inputs, replayed through the real handlers.
  Epoch = 0x01,         ///< u64 epoch, u64 tick — first record of a journal
  Started = 0x02,       ///< (empty) manager start(): submit + first dispatch
  Tick = 0x03,          ///< u64 tick — a pump round began
  Input = 0x04,         ///< u32 link, str line — one polled wire line
  LivenessDone = 0x05,  ///< (empty) the liveness phase of this tick ran
  DispatchDone = 0x06,  ///< (empty) the dispatch phase of this tick ran
  Backpressure = 0x07,  ///< u32 count, count × u32 links — transport
                        ///< backpressure observed before the dispatch phase
                        ///< (omitted when no link pushed back)
  TermBump = 0x08,      ///< u64 term — failover promotion: the manager took
                        ///< a new leadership term (replication fencing)

  // Lifecycle audit trail, skipped on replay.
  CategoryInterned = 0x10,    ///< u32 id, str name
  TaskSubmitted = 0x11,       ///< u64 task
  AllocationCommitted = 0x12, ///< u64 task, 4×f64 alloc, u8 is_retry
  TaskDispatched = 0x13,      ///< u64 task, u64 worker, u64 attempt
  TaskCompleted = 0x14,       ///< u64 task, 4×f64 peak, f64 runtime_s
  TaskAttemptFailed = 0x15,   ///< u64 task, f64 runtime_s, u32 mask, u8 requeued
  TaskRequeued = 0x16,        ///< u64 task
  TaskEvicted = 0x17,         ///< u64 task, f64 scale
  TaskFatal = 0x18,           ///< u64 task
};

/// True for the manager-input family (replayed); false for audit records.
constexpr bool is_input_record(RecordType t) noexcept {
  return static_cast<std::uint8_t>(t) < 0x10;
}

const char* to_string(RecordType t) noexcept;

/// True when `byte` is one of the RecordType values above. Decoders that
/// take a type byte from outside the process refuse anything else.
bool is_record_type(std::uint8_t byte) noexcept;

struct JournalRecord {
  RecordType type{};
  std::string payload;

  bool operator==(const JournalRecord&) const = default;
};

/// Appends CRC-framed records to an AppendHandle. Framing per record:
///
///   [u32 payload_len][u8 type][payload][u32 crc32c(type + payload)]
///
/// all little-endian. The CRC-32C (util::crc32c) covers the type byte and
/// payload, so a record whose frame arrived intact but whose bytes were
/// mangled is rejected, and a record cut anywhere — inside the frame or the
/// payload — fails either the length check or the CRC. append() builds each
/// frame in one reused buffer with one CRC call; it is buffered, and sync()
/// is the durability barrier (the storage contract loses unsynced bytes on
/// crash). Builds before snapshot container version 3 sealed the same
/// frames with CRC-32; see older_format_journal().
class JournalWriter {
 public:
  explicit JournalWriter(std::unique_ptr<AppendHandle> out,
                         RecoveryCounters* counters = nullptr);

  void append(RecordType type, std::string_view payload);
  void sync();

  /// Framed bytes appended so far (journal length, for the latency bench).
  std::size_t bytes_written() const noexcept { return bytes_written_; }

 private:
  std::unique_ptr<AppendHandle> out_;
  RecoveryCounters* counters_;
  std::size_t bytes_written_ = 0;
  std::string frame_;  ///< the frame being appended, reused across records
};

/// Result of scanning a journal byte string.
struct JournalReadResult {
  std::vector<JournalRecord> records;  ///< every intact record, in order
  bool torn = false;          ///< trailing bytes did not form a valid record
  std::size_t bytes_consumed = 0;  ///< offset of the first non-intact byte
  /// A CRC-valid record decodes at some offset AFTER the cut. A genuine
  /// torn tail ends the file at the cut (a crash loses the whole unsynced
  /// suffix), so intact records beyond it prove the damage is IN-PLACE
  /// corruption of once-durable bytes — recovery must refuse instead of
  /// silently truncating, because data provably existed past the cut.
  /// Also set, and reading stops there, when a CRC-valid record carries a
  /// type byte outside RecordType, at any position.
  bool mid_corruption = false;
};

/// Decodes a journal, stopping at the first record that is incomplete or
/// fails its CRC — the torn-tail contract: a crash between append and sync
/// may leave a partial final record, and recovery simply drops it (the
/// corresponding input was never acted on durably). Never throws on bad
/// bytes; `torn` reports whether anything was dropped.
JournalReadResult read_journal(std::string_view bytes);

/// True when `bytes` have the shape of journal-<epoch> as builds before
/// CRC-32C framing wrote it: a complete epoch frame for `epoch`, then a
/// complete frame of a known record type, neither carrying the CRC-32C of
/// its bytes. read_journal() sees such a journal as torn at byte 0;
/// recovery refuses it as an older format instead. A journal of this build
/// takes this shape only when two frames are damaged (a tear truncates and
/// never leaves a complete frame behind), and one holding only its epoch
/// record never does: that case stays a torn tail in either format.
bool older_format_journal(std::string_view bytes, std::uint64_t epoch);

}  // namespace tora::core::recovery
