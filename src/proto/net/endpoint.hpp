#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "proto/channel.hpp"
#include "proto/net/frame.hpp"
#include "proto/net/session.hpp"
#include "proto/net/socket.hpp"

namespace tora::proto::net {

/// Transport-level knobs shared by both ends. `now` below is always the
/// caller's monotone clock in arbitrary units — the lockstep test harness
/// passes pump rounds, the CLI passes seconds — so every window here
/// (backoff, keepalive, handshake timeout) is in those units.
struct TcpTransportConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< manager listen port; 0 picks ephemeral
  SessionConfig session;
  double backoff_base = 1.0;     ///< first reconnect delay
  double backoff_cap = 16.0;     ///< backoff ceiling
  double backoff_jitter = 0.25;  ///< +- fraction applied per attempt
  double handshake_timeout = 64.0;  ///< connect/hello-to-welcome deadline
  std::uint64_t seed = 0x746f7261;  ///< session tokens + backoff jitter

  void validate() const;  ///< throws std::invalid_argument on nonsense
};

/// Channel whose send() feeds a session send queue instead of an in-memory
/// peer: the write half of a DuplexLink when the peer lives across a
/// socket. poll() on this channel always drains empty (the real receive
/// path is the endpoint delivering into the link's OTHER channel).
class OutboundSocketChannel final : public Channel {
 public:
  explicit OutboundSocketChannel(SessionSendQueue& tx) noexcept : tx_(&tx) {}

  void send(std::string line) override { tx_->push(std::move(line)); }
  bool backpressured() const noexcept override {
    return tx_->backpressured();
  }

 private:
  SessionSendQueue* tx_;
};

/// The manager's end of the socket transport. Owns the listening socket,
/// every worker connection, the per-worker sessions (send queue + receive
/// count + token), and the DuplexLinks handed to ProtocolManager: the
/// link's `to_worker` is an OutboundSocketChannel into the session's send
/// queue, and inbound application frames are delivered into `to_manager`
/// by pump_io(). The endpoint deliberately models the network substrate,
/// not the manager: like in-process links, it SURVIVES a manager crash and
/// rebuild (RecoverableTcpRuntime hands the same links to the reborn
/// manager), which is why none of its state enters snapshot_body().
///
/// Single-threaded: construct, pump_io and destroy on one thread. Several
/// endpoints on one thread interleave fine (the lockstep harness does).
class ManagerEndpoint {
 public:
  ManagerEndpoint(std::size_t num_workers, TcpTransportConfig cfg);
  ~ManagerEndpoint();
  ManagerEndpoint(const ManagerEndpoint&) = delete;
  ManagerEndpoint& operator=(const ManagerEndpoint&) = delete;

  /// The actual listening port (useful with cfg.port = 0).
  std::uint16_t port() const noexcept { return listener_.port(); }

  /// The per-worker links for ProtocolManager. The endpoint must outlive
  /// every user of these links.
  const std::vector<DuplexLinkPtr>& links() const noexcept { return links_; }

  /// One IO pump: accept pending connections, read every readable socket,
  /// run handshakes, deliver inbound application frames into the links,
  /// flush send queues, close keepalive violators. Returns true if any
  /// byte or frame moved (a progress signal for settle loops).
  /// `timeout_ms` 0 polls; > 0 blocks in epoll up to that long.
  bool pump_io(double now, int timeout_ms = 0);

  /// Every session attached + handshaken, all send queues drained AND
  /// acked, no partially received or partially sent bytes anywhere: the
  /// network holds no state. The lockstep parity harness barriers on this.
  bool quiesced() const noexcept;

  bool worker_connected(std::uint64_t worker_id) const noexcept;
  std::size_t connections() const noexcept { return conns_.size(); }

  /// Application frames received from `worker_id` this session.
  std::uint64_t rx_count(std::uint64_t worker_id) const;

  /// Hard-drops every worker connection with an RST and detaches the
  /// sessions (they resume on reconnect). Crash tests use this to model
  /// the manager host's network stack dying with the manager.
  void drop_all_connections();

  /// When true, pending connections are accepted and immediately closed —
  /// models a listener whose accept queue the manager cannot serve.
  void refuse_accepts(bool refuse) noexcept { refuse_accepts_ = refuse; }

  const core::TransportCounters& counters() const noexcept {
    return counters_;
  }

 private:
  struct Conn {
    Fd fd;
    FrameReader reader;
    SendBuffer out;
    bool established = false;
    std::uint64_t worker = 0;  ///< valid once established
    double opened_at = 0.0;
    double last_rx = 0.0;
    Conn(Fd f, std::size_t max_frame, double now)
        : fd(std::move(f)), reader(max_frame), opened_at(now), last_rx(now) {}
  };

  struct Session {
    std::uint64_t token = 0;       ///< 0 until first hello
    std::uint64_t generation = 0;  ///< fresh handshakes served
    std::uint64_t rx = 0;          ///< app frames received this session
    SessionSendQueue tx;
    int conn_fd = -1;  ///< attached connection, -1 while detached
    bool ack_due = false;
    Session(const SessionConfig& cfg, core::TransportCounters* counters)
        : tx(cfg, counters) {}
  };

  bool accept_pending(double now);
  bool read_conn(Conn& conn, double now);
  /// Handles one complete frame; returns false when the connection must die.
  bool handle_frame(Conn& conn, std::string frame, double now);
  bool handle_hello(Conn& conn, const std::string& frame, double now);
  bool flush();
  void close_conn(int fd, bool rst = false);
  void enforce_deadlines(double now);

  TcpTransportConfig cfg_;
  TcpListener listener_;
  Poller poller_;
  std::vector<std::unique_ptr<Session>> sessions_;  ///< index = worker id
  std::vector<DuplexLinkPtr> links_;
  std::map<int, Conn> conns_;
  core::TransportCounters counters_;
  std::uint64_t token_state_;  ///< splitmix walk for session tokens
  bool refuse_accepts_ = false;
};

/// One worker's end: a self-healing connector running the session state
/// machine Idle -> Connecting -> HelloSent -> Established -> Backoff ->
/// Connecting -> ... with capped exponential backoff + seeded jitter
/// between attempts. Reconnects RESUME the session: the first hello sent a
/// zero token, every later one replays the token the manager minted, and
/// both sides rewind their send queues to the peer's reported receive
/// count — so a result that was in flight when the connection died is
/// re-delivered, and the manager's attempt-id dedup absorbs any overlap.
///
/// The WorkerAgent plugs in unchanged: it talks to link() exactly as it
/// would to an in-process link.
class WorkerEndpoint {
 public:
  WorkerEndpoint(std::uint64_t worker_id, TcpTransportConfig cfg);
  ~WorkerEndpoint();
  WorkerEndpoint(const WorkerEndpoint&) = delete;
  WorkerEndpoint& operator=(const WorkerEndpoint&) = delete;

  const DuplexLinkPtr& link() const noexcept { return link_; }

  /// One IO pump: drive the connector state machine (respecting backoff
  /// deadlines against `now`), flush the send queue, read inbound frames
  /// and deliver dispatches into the link. Returns true on any progress.
  bool pump_io(double now, int timeout_ms = 0);

  /// The connector's state machine.
  enum class State { Idle, Connecting, HelloSent, Established, Backoff };
  State state() const noexcept { return state_; }
  bool established() const noexcept { return state_ == State::Established; }
  /// Consecutive failed connect attempts (0 once a handshake completes).
  std::size_t failed_connects() const noexcept { return attempt_; }
  /// No connection-level work outstanding (see ManagerEndpoint::quiesced).
  bool quiesced() const noexcept;

  /// Application frames received this session.
  std::uint64_t rx_count() const noexcept { return rx_; }
  std::uint64_t session_token() const noexcept { return token_; }

  /// Test hook: drop the TCP connection (RST) without telling the agent —
  /// the next pump_io starts the reconnect dance.
  void kill_connection();

  const core::TransportCounters& counters() const noexcept {
    return counters_;
  }

 private:
  void start_connect(double now);
  void enter_backoff(double now);
  bool read_socket(double now);
  bool handle_frame(std::string frame);
  bool handle_welcome(const std::string& frame);
  bool flush();

  std::uint64_t worker_id_;
  TcpTransportConfig cfg_;
  Poller poller_;
  SessionSendQueue tx_;
  DuplexLinkPtr link_;
  Channel* inbound_;  ///< the link's to_worker half (delivery target)

  State state_ = State::Idle;
  Fd fd_;
  FrameReader reader_;
  SendBuffer out_;
  std::uint64_t token_ = 0;  ///< 0 = never handshaken (fresh hello)
  std::uint64_t rx_ = 0;
  bool ack_due_ = false;
  double state_since_ = 0.0;
  double retry_at_ = 0.0;
  std::size_t attempt_ = 0;  ///< consecutive failed connect attempts
  bool ever_established_ = false;
  ReconnectBackoff backoff_;
  core::TransportCounters counters_;
};

}  // namespace tora::proto::net
