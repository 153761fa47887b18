#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "core/recovery/crash.hpp"
#include "core/recovery/journal.hpp"
#include "core/recovery/storage.hpp"

namespace tora::core::recovery {

/// Durability knobs for a recoverable manager.
struct RecoveryConfig {
  /// Compact the journal into a fresh snapshot every N ticks (0 = never;
  /// the journal then grows for the whole run, which is always correct but
  /// makes recovery replay the run from its start).
  std::size_t snapshot_every_ticks = 0;

  /// Storage-degradation backoff (ProtocolManager): once the journal goes
  /// read-only on ENOSPC/EIO, retry the disk after `base` ticks, doubling
  /// the wait on each failed retry up to `cap`.
  std::uint64_t storage_retry_base_ticks = 4;
  std::uint64_t storage_retry_cap_ticks = 64;
};

/// A parsed recovery-directory object name: `snapshot-<N>`,
/// `snapshot-<N>.tmp`, or `journal-<N>`. Exposed for offline inspection
/// (`tora fsck`) and the torture harness.
struct ObjectName {
  enum class Kind { Snapshot, Journal, SnapshotTmp };
  Kind kind;
  std::uint64_t epoch;
};

/// Parses an object name; nullopt for anything that is not one of ours.
std::optional<ObjectName> parse_object_name(std::string_view name);

/// Observer over a RecoveryLog's WRITE traffic — the replication tier's tap
/// (core/replication/). Every hook fires strictly AFTER the local storage
/// operation succeeded, so an observer only ever sees durable-bound bytes:
/// a primary whose disk refuses a write ships nothing for it. Hooks must
/// not throw into the log (replication failures degrade replication, never
/// the primary's own durability).
class JournalObserver {
 public:
  virtual ~JournalObserver() = default;
  /// open_fresh() succeeded: journal-0 exists with its Epoch header.
  virtual void on_open_fresh() = 0;
  /// append() succeeded (buffered; durable at the next on_sync()).
  virtual void on_record(RecordType type, std::string_view payload) = 0;
  /// sync() succeeded: everything appended so far is durable.
  virtual void on_sync() = 0;
  /// rotate() fully succeeded: `body` is the sealed snapshot for `epoch`,
  /// and journal-<epoch> is open. Also covers degraded-mode retry rotations,
  /// so `epoch` may jump by more than one.
  virtual void on_rotate(std::uint64_t epoch, std::string_view body,
                         std::uint64_t tick) = 0;
};

/// The write-ahead log's file layout and rotation protocol, over a Storage.
///
/// Layout: TWO retained generations of `snapshot-<epoch>` + `journal-<epoch>`
/// pairs (plus a transient `snapshot-<epoch>.tmp`). `snapshot-<E>` is the
/// sealed full state at the instant epoch E began; `journal-<E>` holds every
/// record appended since, starting with an Epoch record. Epoch 0 is genesis:
/// no snapshot file, and `journal-0` carries the whole history. Keeping the
/// previous generation's pair means a bit-rotted `snapshot-<E>` is
/// survivable: recovery falls back to `snapshot-<E-1>` and replays
/// `journal-<E-1>` THEN `journal-<E>` — an exact rebuild, not a rollback.
///
/// Rotation (rotate()) is crash-safe by construction:
///   1. sweep orphaned `.tmp` files from older crashed rotations
///   2. write `snapshot-<E+1>.tmp` fully, synced           (crash: ignored)
///   3. rename to `snapshot-<E+1>`                          (commit point)
///   4. open `journal-<E+1>`, append Epoch record, sync
///   5. delete every generation older than E (keeping E and E+1)
/// A crash between 3 and 4 leaves a committed snapshot with no journal —
/// scan() treats the missing journal as an empty tail. A crash before 3
/// leaves only a .tmp, which scan() ignores and startup sweeps.
///
/// scan() picks the LARGEST epoch whose snapshot seals correctly (CRC,
/// magic, version), falling back generation by generation, then replays the
/// journal CHAIN from that base forward. Sealed (non-final) journals in the
/// chain must be fully intact; only the final journal may end in a torn
/// tail (truncated, as before). Damage that makes durable history
/// unreachable — both generations bad, a sealed journal torn or corrupted
/// mid-file, a gap in the chain — raises a typed
/// StorageError{EBADMSG, Salvage} instead of a silent wrong rebuild. A
/// directory an older build wrote (CRC-32 seals: snapshot container
/// versions 1–2 and their journals) raises the FormatError subtype naming
/// the object and its format, never a fallback or a genesis restart.
class RecoveryLog {
 public:
  /// `crashes` (optional) arms the two snapshot-rotation crash points.
  RecoveryLog(Storage& storage, RecoveryCounters* counters = nullptr,
              CrashMonitor* crashes = nullptr);

  struct ScanResult {
    /// LAST epoch of the replayed journal chain (the journal that was being
    /// written when the process died) — the epoch to adopt_epoch().
    std::uint64_t epoch = 0;
    /// Epoch whose snapshot seeded the rebuild (== epoch unless salvage
    /// fell back; 0 at genesis).
    std::uint64_t base_epoch = 0;
    /// Sealed-and-validated snapshot BODY for `base_epoch`; nullopt at
    /// genesis.
    std::optional<std::string> snapshot;
    /// Intact journal records of the chain journal-<base_epoch> ..
    /// journal-<epoch>, in order (Epoch header records included — they
    /// replay as no-ops).
    std::vector<JournalRecord> tail;
    bool torn_tail = false;
    /// The newest snapshot was damaged and an older generation seeded the
    /// rebuild (still exact, thanks to journal chaining).
    bool fell_back = false;
  };

  /// Read-only: find the newest recoverable state. Does not open anything
  /// for writing. Throws StorageError (op Salvage, EBADMSG) when durable
  /// history exists that cannot be reached or verified.
  ScanResult scan();

  /// Start writing at genesis: sweeps orphaned `.tmp` files, then opens
  /// `journal-0` (truncating), appends the Epoch record and syncs.
  void open_fresh();

  /// Adopt `epoch` as current WITHOUT touching storage — used on recovery,
  /// where the caller scans, rebuilds state, then immediately rotate()s to
  /// epoch+1 (writing a fresh post-recovery snapshot).
  void adopt_epoch(std::uint64_t epoch) noexcept;

  /// Append one record to the current journal (open_fresh or rotate first).
  void append(RecordType type, std::string_view payload);

  /// Durability barrier on the current journal.
  void sync();

  /// Drops the journal handle WITHOUT syncing — the crashed-manager path
  /// (the runtime closes, tells the storage the process died, then scans).
  void close() noexcept { journal_.reset(); }

  /// Compact: seal `body` as the snapshot for epoch()+1, commit it, open
  /// the new journal and purge older generations. `tick` feeds the crash
  /// monitor's snapshot crash points.
  void rotate(std::string_view body, std::uint64_t tick);

  bool writable() const noexcept { return journal_ != nullptr; }
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Framed bytes appended to the CURRENT journal (recovery-latency bench).
  std::size_t journal_bytes() const noexcept {
    return journal_ ? journal_->bytes_written() : 0;
  }

  static std::string snapshot_name(std::uint64_t epoch);
  static std::string journal_name(std::uint64_t epoch);

  /// Installs (or clears, with nullptr) the replication tap. The observer
  /// sees only operations performed after this call.
  void set_observer(JournalObserver* observer) noexcept {
    observer_ = observer;
  }

 private:
  void open_journal(std::uint64_t epoch, std::uint64_t tick);
  void purge_older_than(std::uint64_t epoch);
  /// Removes every orphaned `snapshot-*.tmp` (counted in tmp_files_swept).
  void sweep_tmp();
  [[noreturn]] void refuse(const std::string& object, const std::string& why);
  [[noreturn]] void refuse_format(const std::string& object,
                                  const std::string& format);
  /// journal-<epoch> exists and holds at least one record this build reads.
  bool journal_is_ours(std::uint64_t epoch) const;

  Storage& storage_;
  RecoveryCounters* counters_;
  CrashMonitor* crashes_;
  JournalObserver* observer_ = nullptr;
  std::unique_ptr<JournalWriter> journal_;
  std::uint64_t epoch_ = 0;
};

}  // namespace tora::core::recovery
