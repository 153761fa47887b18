#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "core/metrics.hpp"

namespace tora::proto::net {

/// The session layer on top of the framed byte stream: a versioned
/// handshake binds a TCP connection to a (worker, session token) pair, and
/// per-direction frame sequence numbers + a bounded replay buffer let a
/// reconnecting worker RESUME its session — frames that were on the wire
/// when the connection died are re-delivered, and the application's
/// attempt-id dedup absorbs any overlap. See docs/transport.md for the
/// state machine.
///
/// Control frames share the line framing with application messages but use
/// a reserved `tora!` verb prefix (the application codec can never emit or
/// accept it) and the same spliced-in CRC-32C checksum discipline
/// (proto/checksum.hpp):
///
///   tora!hello crc=<8hex> v=2 worker=3 token=0 rx=0
///   tora!welcome crc=<8hex> v=2 token=9f..2 rx=17 resume=1
///   tora!ack crc=<8hex> rx=42
///
/// hello.token = 0 requests a fresh session; a nonzero token asks to resume
/// the session it names. `rx` advertises how many application frames the
/// sender has received in the session so far, which is exactly what the
/// peer needs to rewind its replay buffer to the first unreceived frame.
///
/// Transport version 2 is the first sealed with CRC-32C. Version 1 sealed
/// every line with a 16-digit FNV-1a token, which no version 2 decoder
/// accepts; sealed_by_v1() recognises such a handshake by its token, and
/// both endpoints refuse it as a version mismatch (counted in
/// TransportCounters::version_mismatches), as they do a v= other than
/// their own.

inline constexpr std::uint32_t kTransportVersion = 2;

/// Session-layer tuning. All windows counted in frames or in the caller's
/// monotone `now` unit (the lockstep harness passes pump rounds, the CLI
/// passes seconds) — the transport itself never reads a clock.
struct SessionConfig {
  std::uint32_t version = kTransportVersion;
  /// Hard ceiling on one frame; longer peers are protocol violators.
  std::size_t max_frame_bytes = 1 << 16;
  /// Ceiling on the FIRST frame of a connection (the hello) — a handshake
  /// has no business being long, so the fuzz surface stays small.
  std::size_t max_hello_bytes = 256;
  /// Send-queue watermarks, in frames: backpressure asserts at `high`,
  /// releases at `low`, and the queue hard-caps at `cap` (heartbeats are
  /// shed there — see SessionSendQueue::push).
  std::size_t queue_high = 64;
  std::size_t queue_low = 16;
  std::size_t queue_cap = 256;
  /// Close a connection with no inbound bytes for this long (in `now`
  /// units); 0 disables. App-level heartbeats normally keep it quiet.
  double keepalive_window = 0.0;

  void validate() const;  ///< throws std::invalid_argument on nonsense
};

// ---------------------------------------------------------------- control

struct HelloFrame {
  std::uint32_t version = kTransportVersion;
  std::uint64_t worker_id = 0;
  std::uint64_t token = 0;   ///< 0 = fresh session, else resume this one
  std::uint64_t rx_seq = 0;  ///< app frames received so far in the session
};

struct WelcomeFrame {
  std::uint32_t version = kTransportVersion;
  std::uint64_t token = 0;
  std::uint64_t rx_seq = 0;
  bool resumed = false;
};

struct AckFrame {
  std::uint64_t rx_seq = 0;
};

/// True when `frame` is session-layer traffic (the reserved verb prefix).
bool is_control_frame(std::string_view frame) noexcept;

std::string encode_hello(const HelloFrame& h);
std::string encode_welcome(const WelcomeFrame& w);
std::string encode_ack(const AckFrame& a);

/// Strict decoders: nullopt on anything malformed — wrong verb, missing
/// field, bad number, a version above 2^32 - 1, failed checksum.
/// Truncation anywhere breaks the checksum, so fuzzed prefixes can never
/// parse.
std::optional<HelloFrame> decode_hello(std::string_view frame);
std::optional<WelcomeFrame> decode_welcome(std::string_view frame);
std::optional<AckFrame> decode_ack(std::string_view frame);

/// True when `frame` is a control frame sealed by a transport version 1
/// peer: its verb, then ` crc=` and 16 lowercase hex digits (the FNV-1a
/// token), then a field or the end. Recognised by shape alone; nothing is
/// decoded from it.
bool sealed_by_v1(std::string_view frame) noexcept;

// ------------------------------------------------------------- send queue

/// Bounded per-peer send queue with sequence numbers and a replay window.
/// Frames stay queued after being put on the wire until the peer acks
/// them; a session resume rewinds to the peer's reported rx count and
/// re-sends the tail.
///
/// Overload policy, in escalation order ("shed heartbeats last"):
///  1. past `queue_high` the queue reports backpressure — the manager
///     stops dispatching to this peer, which starves the queue organically;
///  2. heartbeats coalesce whenever one is already waiting unsent (a newer
///     beacon supersedes an older one losslessly);
///  3. only at the hard `queue_cap` are heartbeats dropped outright —
///     application payloads (dispatches, results) are NEVER shed; they ride
///     the bounded-by-construction app-level in-flight window.
class SessionSendQueue {
 public:
  SessionSendQueue(const SessionConfig& cfg,
                   core::TransportCounters* counters) noexcept
      : cfg_(&cfg), counters_(counters) {}

  /// Enqueues one application frame (heartbeat coalescing/shedding above).
  void push(std::string frame);

  /// Next unsent frame, marking it sent; nullopt when drained.
  std::optional<std::string_view> next_to_send();

  /// Peer acknowledged `rx_seq` frames: drop the replay prefix.
  void acked(std::uint64_t rx_seq) noexcept;

  /// Session resume: the peer received `rx_seq` frames; everything after
  /// replays. Counts the rewound tail as frames_replayed.
  void rewind(std::uint64_t rx_seq) noexcept;

  /// Fresh session: renumber the surviving (never delivered) frames from
  /// sequence 0 and forget all delivery state.
  void reset_fresh() noexcept;

  bool backpressured() const noexcept { return backpressured_; }
  std::size_t depth() const noexcept { return frames_.size(); }
  std::size_t unsent() const noexcept { return frames_.size() - sent_; }
  /// Sequence number of the first queued frame.
  std::uint64_t base_seq() const noexcept { return base_seq_; }
  /// Total frames ever accepted (= sequence number of the next push).
  std::uint64_t accepted() const noexcept {
    return base_seq_ + frames_.size();
  }
  bool fully_sent() const noexcept { return sent_ == frames_.size(); }

 private:
  void update_backpressure() noexcept;

  const SessionConfig* cfg_;
  core::TransportCounters* counters_;
  struct Entry {
    std::string frame;
    bool heartbeat = false;
  };
  std::deque<Entry> frames_;
  std::uint64_t base_seq_ = 0;  ///< seq of frames_.front()
  std::size_t sent_ = 0;        ///< leading frames already on the wire
  bool backpressured_ = false;
};

/// Deterministic reconnect pacing: capped exponential backoff with seeded
/// jitter. attempt 1 waits ~base, attempt k waits ~min(cap, base * 2^(k-1)),
/// each scaled by a jitter factor in [1-jitter, 1+jitter] drawn from the
/// worker's own stream — synchronized reconnect stampedes after a manager
/// restart are exactly the storm the jitter breaks up.
class ReconnectBackoff {
 public:
  ReconnectBackoff(double base, double cap, double jitter,
                   std::uint64_t seed) noexcept;

  /// Delay before reconnect attempt `attempt` (1-based).
  double delay(std::size_t attempt) noexcept;

 private:
  double base_;
  double cap_;
  double jitter_;
  std::uint64_t state_;  ///< splitmix64 walk; cheap and reproducible
};

}  // namespace tora::proto::net
