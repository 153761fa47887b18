#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/replication/replication.hpp"
#include "proto/net/frame.hpp"
#include "proto/net/socket.hpp"

namespace tora::proto::net {

/// Journal shipping over the PR 4 newline-framed TCP wire. Replication
/// frames are binary (journal payloads and snapshot bodies carry arbitrary
/// bytes), so each sealed frame rides the line protocol hex-encoded — the
/// line framing stays byte-clean and a corrupted line simply fails the
/// sealed frame's CRC-32C on decode.

/// Lowercase hex of `bytes` (binary-safe line payload).
std::string hex_encode(std::string_view bytes);
/// Inverse; nullopt on odd length or a non-hex digit.
std::optional<std::string> hex_decode(std::string_view line);

/// Frame ceiling for replication connections: a Rotate line carries a full
/// snapshot body at 2x hex expansion, far past the worker wire's 64 KiB.
inline constexpr std::size_t kReplicationMaxFrameBytes = std::size_t{1} << 26;

/// One connected replication socket: owns the fd, hex line codec on top of
/// FrameReader/SendBuffer, nonblocking flush with partial-write resumption.
/// Both ends of the stream are symmetric at this layer; the roles live in
/// JournalShipper/StandbyReplica, which plug in via send_adapter()/
/// recv_adapter().
class ReplicationConnection {
 public:
  ReplicationConnection() = default;
  explicit ReplicationConnection(Fd fd) : fd_(std::move(fd)) {}

  bool connected() const noexcept { return fd_.valid() && !dead_; }
  /// The peer is gone (EOF, socket error, or a poisoned/undecodable line —
  /// a replication stream that frames wrong is not worth resynchronizing).
  bool dead() const noexcept { return dead_; }

  /// Queues one sealed replication frame and flushes what the kernel takes.
  void send(std::string frame);
  /// Progress I/O (flush + read); returns the next decoded sealed frame.
  std::optional<std::string> recv();
  /// Flush + read without popping (e.g. while blocked in a barrier wait).
  void pump();

  /// Adapters in the shape core::replication wants.
  core::replication::ReplicationSend send_adapter();
  core::replication::ReplicationRecv recv_adapter();

  std::size_t frames_sent() const noexcept { return frames_sent_; }
  std::size_t frames_received() const noexcept { return frames_received_; }

 private:
  void flush();
  void read_ready();

  Fd fd_;
  FrameReader reader_{kReplicationMaxFrameBytes};
  SendBuffer out_;
  bool dead_ = false;
  std::size_t frames_sent_ = 0;
  std::size_t frames_received_ = 0;
};

/// Standby side: bind, accept ONE primary (a journal stream has exactly one
/// writer; later connects supersede the current one — the fenced old
/// primary's dead socket must not wedge a reconnecting successor).
class ReplicationListener {
 public:
  ReplicationListener(const std::string& host, std::uint16_t port);

  std::uint16_t port() const noexcept { return listener_.port(); }
  /// Accepts a pending primary if any. Returns true when a NEW connection
  /// was adopted (the replica should expect a seeding rotation).
  bool poll_accept();
  bool connected() const noexcept { return conn_.connected(); }
  ReplicationConnection& connection() noexcept { return conn_; }

 private:
  TcpListener listener_;
  ReplicationConnection conn_;
};

/// Primary side: one nonblocking connect attempt to the standby.
/// Reconnect pacing (ReconnectBackoff) belongs to the caller's clock; a
/// primary whose standby stays unreachable simply runs unreplicated (the
/// shipper's standby-lost cap bounds how long it waits for acks).
class ReplicationDialer {
 public:
  ReplicationDialer(std::string host, std::uint16_t port);

  /// Drives the pending connect; true once established (idempotent).
  bool poll_connected();
  bool failed() const noexcept { return failed_; }
  ReplicationConnection& connection() noexcept { return conn_; }

 private:
  std::string host_;
  std::uint16_t port_;
  Fd pending_;
  bool failed_ = false;
  ReplicationConnection conn_;
};

}  // namespace tora::proto::net
