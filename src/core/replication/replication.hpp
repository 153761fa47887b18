#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/metrics.hpp"
#include "core/recovery/recovery_log.hpp"

namespace tora::core::replication {

/// Commit-mode knobs for the primary's journal shipper.
struct ReplicationConfig {
  enum class CommitMode {
    /// Every durability barrier blocks until the standby acknowledged the
    /// whole shipped stream — a promoted standby has EVERYTHING the primary
    /// ever considered durable (RPO 0 against single-node loss).
    Sync,
    /// Barriers only block while the standby lags more than `lag_cap`
    /// records behind — bounded staleness, no per-barrier round trip.
    Async,
  };

  CommitMode mode = CommitMode::Sync;
  /// Async: max shipped-but-unacknowledged records before a barrier blocks.
  std::size_t lag_cap = 64;
  /// Service rounds a blocked barrier waits before declaring the standby
  /// lost and disabling replication (the primary must outlive its replica).
  std::size_t wait_rounds_cap = 100000;
};

const char* to_string(ReplicationConfig::CommitMode m) noexcept;

/// One decoded replication stream frame. The stream is a logical replay of
/// the primary's RecoveryLog write traffic: the standby re-performs each
/// operation against its own Storage, which reproduces the primary's
/// recovery directory byte-for-byte (journal framing and snapshot sealing
/// are deterministic), while a warm ProtocolManager image replays the same
/// records in memory.
struct ReplicationFrame {
  enum class Op : std::uint8_t {
    OpenFresh = 1,  ///< primary opened journal-0 (genesis)
    Record = 2,     ///< rtype + payload: one appended journal record
    Barrier = 3,    ///< seq: durability barrier covering `seq` records
    Rotate = 4,     ///< epoch + body + tick: snapshot rotation committed
    Ack = 5,        ///< standby→primary: `seq` records are durable here
    Fence = 6,      ///< standby→primary: term — you are deposed, stop
  };

  Op op{};
  recovery::RecordType rtype{};  ///< Record only
  std::string body;              ///< Record payload / Rotate snapshot body
  std::uint64_t seq = 0;         ///< Barrier/Ack: record count; Fence: term
  std::uint64_t epoch = 0;       ///< Rotate
  std::uint64_t tick = 0;        ///< Rotate
};

/// CRC-framed codec, binary-safe through Channel lines and TCP frames.
/// Layout: 'R' [u8 op] [fields...] [u32 crc32c(op + fields)], little-endian;
/// the leading 'R' cannot collide with the session layer's "tora!" control
/// prefix or the text protocol's message names.
std::string encode_open_fresh();
std::string encode_record(recovery::RecordType type, std::string_view payload);
std::string encode_barrier(std::uint64_t seq);
std::string encode_rotate(std::uint64_t epoch, std::string_view snapshot_body,
                          std::uint64_t tick);
std::string encode_ack(std::uint64_t seq);
std::string encode_fence(std::uint64_t term);

/// Decodes one frame; nullopt on truncation, bad magic or CRC mismatch.
std::optional<ReplicationFrame> decode_frame(std::string_view bytes);

/// Transport adapters: the replication tier moves opaque byte strings, so
/// core stays independent of the transport (proto Channels in-process, the
/// socket layer for real deployments).
using ReplicationSend = std::function<void(std::string)>;
using ReplicationRecv = std::function<std::optional<std::string>()>;

/// The primary side: a JournalObserver tap on the primary's RecoveryLog
/// that streams every successful write operation to the standby and
/// enforces the commit mode at durability barriers. Hooks fire only after
/// the local operation succeeded, so a primary whose own disk refused a
/// write ships nothing for it.
///
/// While a barrier blocks, the injected `service` callback runs once per
/// wait round (the in-process runtime pumps the standby replica; a socket
/// deployment polls the connection). A barrier that exhausts
/// `wait_rounds_cap` declares the standby lost: replication disables
/// itself and the primary continues alone — availability of the primary
/// always wins over replica freshness.
class JournalShipper final : public recovery::JournalObserver {
 public:
  using Service = std::function<void()>;

  JournalShipper(ReplicationConfig cfg, ReplicationSend send,
                 ReplicationRecv recv,
                 ReplicationCounters* counters = nullptr);

  void set_service(Service service) { service_ = std::move(service); }
  /// Invoked (with the fencing term) when the ack channel delivers a Fence:
  /// this primary has been deposed by a promoted standby.
  void set_on_fenced(std::function<void(std::uint64_t)> on_fenced) {
    on_fenced_ = std::move(on_fenced);
  }

  // JournalObserver.
  void on_open_fresh() override;
  void on_record(recovery::RecordType type, std::string_view payload) override;
  void on_sync() override;
  void on_rotate(std::uint64_t epoch, std::string_view body,
                 std::uint64_t tick) override;

  /// Drains the ack channel (also runs inside blocked barriers). Safe to
  /// call any time — a socket runtime calls it per poll round.
  void poll_acks();

  /// Stream position: Record AND Rotate frames shipped (both are work the
  /// standby must make durable, so both push a barrier's seq forward — a
  /// rotation barrier would otherwise compare equal to the previous one and
  /// never block).
  std::uint64_t shipped() const noexcept { return shipped_; }
  std::uint64_t acked() const noexcept { return acked_; }
  /// Replication gave up (standby lost); all hooks are no-ops from then on.
  bool standby_lost() const noexcept { return lost_; }
  /// A Fence arrived: this process is a deposed zombie.
  bool fenced() const noexcept { return fenced_; }

 private:
  void ship(std::string frame);
  void wait_at_barrier();

  ReplicationConfig cfg_;
  ReplicationSend send_;
  ReplicationRecv recv_;
  ReplicationCounters* counters_;
  Service service_;
  std::function<void(std::uint64_t)> on_fenced_;
  std::uint64_t shipped_ = 0;  ///< stream position (Record + Rotate frames)
  std::uint64_t acked_ = 0;    ///< stream position the standby made durable
  bool lost_ = false;
  bool fenced_ = false;
};

/// What the standby does with the record stream besides mirroring it to
/// disk: maintain a warm in-memory image (the failover runtime implements
/// this over a ProtocolManager in replay mode; core stays proto-agnostic).
class StandbyApplier {
 public:
  virtual ~StandbyApplier() = default;
  /// Apply one journal record to the warm image.
  virtual void apply_record(const recovery::JournalRecord& rec) = 0;
  /// The warm image's snapshot body, or nullopt before it was ever seeded.
  virtual std::optional<std::string> warm_body() = 0;
  /// Rebuild the warm image from a shipped snapshot body (a standby that
  /// attached mid-run, or a primary that skipped journaling while its disk
  /// was degraded).
  virtual void rebase(const std::string& body) = 0;
};

/// The standby side: drains inbound frames, re-performs each journal
/// operation on its own RecoveryLog (the mirror disk), feeds records to the
/// warm applier, and acknowledges barriers once they are locally durable.
/// At a Rotate it VERIFIES the shipped snapshot body against the warm
/// image — a mismatch is counted (rotate_mismatches; the correctness tests
/// assert zero) and repaired by rebasing the warm image from the shipped
/// body, so the standby converges on the primary's durable truth either
/// way.
class StandbyReplica {
 public:
  StandbyReplica(recovery::Storage& storage, ReplicationSend send_to_primary,
                 ReplicationRecv recv, StandbyApplier* applier,
                 ReplicationCounters* counters = nullptr);

  /// Drains and applies every pending inbound frame. Returns frames
  /// applied. Never throws on wire garbage (counted corrupt_frames);
  /// StorageErrors from the mirror disk propagate — a standby whose own
  /// disk died is no standby.
  std::size_t pump();

  /// Promotion support: the mirror log (the promoted runtime adopts it) and
  /// the applied-record count (RTO bookkeeping).
  recovery::RecoveryLog& log() noexcept { return log_; }
  std::uint64_t applied() const noexcept { return applied_; }
  /// Stream position mirrored so far (Record + Rotate frames — the unit the
  /// shipper's shipped()/acked() count in).
  std::uint64_t position() const noexcept { return position_; }
  std::uint64_t last_acked() const noexcept { return last_acked_; }

  /// Post-promotion fencing notice to the old primary (term = the promoted
  /// manager's new leadership term).
  void send_fence(std::uint64_t term);

 private:
  void apply(const ReplicationFrame& frame);

  recovery::RecoveryLog log_;
  ReplicationSend send_;
  ReplicationRecv recv_;
  StandbyApplier* applier_;
  ReplicationCounters* counters_;
  std::uint64_t applied_ = 0;     ///< Record frames applied
  std::uint64_t position_ = 0;    ///< Record + Rotate frames mirrored
  std::uint64_t last_acked_ = 0;  ///< last Ack seq sent
};

}  // namespace tora::core::replication
