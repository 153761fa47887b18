#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "proto/net/socket.hpp"
#include "util/rng.hpp"

namespace tora::proto::net {

/// Wire-level fault plan for one proxied connection. Unlike FaultyChannel
/// (which mutates whole decoded lines), these faults hit the BYTE STREAM:
/// bytes are delayed, flipped, or cut mid-frame — the failure modes only a
/// real socket has.
struct WireFaultPlan {
  /// Hold every forwarded chunk for this many pump steps (per direction).
  std::size_t latency_steps = 0;
  /// Probability a forwarded chunk gets one byte flipped.
  double corrupt_chunk_prob = 0.0;
  /// Probability a forwarded chunk is truncated mid-way, after which the
  /// connection is torn down (FIN): the classic mid-frame cut.
  double truncate_prob = 0.0;
  /// Probability, evaluated once per pump step per connection, of slamming
  /// the connection shut with an RST.
  double rst_prob = 0.0;

  bool active() const noexcept {
    return latency_steps > 0 || corrupt_chunk_prob > 0.0 ||
           truncate_prob > 0.0 || rst_prob > 0.0;
  }
};

/// Deterministic in-process TCP fault injector: listens on its own port,
/// dials the real manager for every inbound connection, and forwards bytes
/// both ways through a seeded WireFaultPlan. Workers connect to
/// `proxy.port()` instead of the manager and experience latency, byte
/// corruption, mid-frame truncation and RSTs — while the manager sees
/// ordinary (if hostile) TCP.
///
/// Single-threaded and pump-driven like the endpoints: each pump_io() is
/// one "step" of the latency clock. All randomness comes from the seed, so
/// a failing run replays exactly.
class FaultProxy {
 public:
  FaultProxy(const std::string& host, std::uint16_t upstream_port,
             WireFaultPlan plan, std::uint64_t seed);

  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Forwards pending bytes both ways through the fault plan. Returns true
  /// on any byte moved.
  bool pump_io(int timeout_ms = 0);

  std::size_t faults_injected() const noexcept { return faults_; }

 private:
  /// One direction of a proxied pair: bytes read from `src` queue here and
  /// drain into `dst` after the latency gate.
  struct Leg {
    struct Chunk {
      std::string bytes;
      std::size_t release_step = 0;
    };
    std::deque<Chunk> queue;
    std::string wire;  ///< released bytes not yet written to dst
  };

  struct Pair {
    Fd downstream;  ///< worker side
    Fd upstream;    ///< manager side
    bool upstream_connected = false;
    Leg to_upstream;
    Leg to_downstream;
    util::Rng rng;
    bool doomed_fin = false;  ///< truncation fired: close after flushing
    Pair(Fd down, Fd up, util::Rng r)
        : downstream(std::move(down)), upstream(std::move(up)),
          rng(std::move(r)) {}
  };

  bool pump_pair(Pair& p);
  /// Read src, apply per-chunk faults, enqueue into leg. False = leg dead.
  bool ingest(Pair& p, int src_fd, Leg& leg);
  /// Write released bytes into dst. False = leg dead.
  bool drain(Pair& p, Leg& leg, int dst_fd);
  void close_pair(std::size_t index, bool rst);

  std::string host_;
  std::uint16_t upstream_port_;
  WireFaultPlan plan_;
  TcpListener listener_;
  Poller poller_;
  util::Rng rng_;
  std::vector<std::unique_ptr<Pair>> pairs_;
  std::size_t step_ = 0;
  std::size_t accepted_ = 0;  ///< connections proxied so far
  std::size_t faults_ = 0;
};

}  // namespace tora::proto::net
