#include "proto/net/endpoint.hpp"

#include <stdexcept>
#include <utility>

#include "util/io.hpp"
#include "util/rng.hpp"

namespace tora::proto::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

/// Drains a nonblocking socket into a FrameReader. Returns false when the
/// connection is dead (EOF, error, or an oversized frame poisoning the
/// reader); `moved` reports whether any byte arrived.
bool drain_socket(int fd, FrameReader& reader, std::string& scratch,
                  std::size_t& total_bytes, bool& moved) {
  for (;;) {
    scratch.clear();
    const auto r = util::io::recv_some(fd, scratch, kReadChunk);
    if (r.status == util::io::IoStatus::WouldBlock) return true;
    if (r.status != util::io::IoStatus::Ok) return false;  // Eof or Error
    total_bytes += r.bytes;
    moved = true;
    if (!reader.feed(scratch)) return false;  // poisoned: oversized frame
  }
}

}  // namespace

void TcpTransportConfig::validate() const {
  session.validate();
  if (backoff_base <= 0.0 || backoff_cap < backoff_base) {
    throw std::invalid_argument(
        "TcpTransportConfig: need 0 < backoff_base <= backoff_cap");
  }
  if (backoff_jitter < 0.0 || backoff_jitter >= 1.0) {
    throw std::invalid_argument(
        "TcpTransportConfig: backoff_jitter must be in [0, 1)");
  }
  if (handshake_timeout <= 0.0) {
    throw std::invalid_argument(
        "TcpTransportConfig: handshake_timeout must be > 0");
  }
}

// ========================================================= ManagerEndpoint

ManagerEndpoint::ManagerEndpoint(std::size_t num_workers,
                                 TcpTransportConfig cfg)
    : cfg_(std::move(cfg)),
      listener_(cfg_.host, cfg_.port),
      token_state_(util::hash64("manager-endpoint") ^ cfg_.seed) {
  cfg_.validate();
  if (num_workers == 0) {
    throw std::invalid_argument("ManagerEndpoint: need at least one worker");
  }
  poller_.add(listener_.fd());
  sessions_.reserve(num_workers);
  links_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    sessions_.push_back(std::make_unique<Session>(cfg_.session, &counters_));
    links_.push_back(std::make_shared<DuplexLink>(
        std::make_unique<OutboundSocketChannel>(sessions_[w]->tx),
        std::make_unique<Channel>()));
  }
}

ManagerEndpoint::~ManagerEndpoint() = default;

bool ManagerEndpoint::pump_io(double now, int timeout_ms) {
  bool progress = accept_pending(now);
  const auto events = poller_.wait(timeout_ms);
  for (const auto& ev : events) {
    if (ev.fd == listener_.fd()) {
      progress |= accept_pending(now);
      continue;
    }
    auto it = conns_.find(ev.fd);
    if (it == conns_.end()) continue;  // closed earlier this pump
    if (ev.readable || ev.hangup) {
      progress |= read_conn(it->second, now);
    }
  }
  // Acks ride at most once per pump, after the read phase, so a burst of
  // inbound frames costs one control frame, not one per frame.
  for (std::size_t w = 0; w < sessions_.size(); ++w) {
    Session& s = *sessions_[w];
    if (!s.ack_due || s.conn_fd < 0) continue;
    auto it = conns_.find(s.conn_fd);
    if (it == conns_.end()) continue;
    it->second.out.push_frame(encode_ack(AckFrame{s.rx}));
    ++counters_.frames_sent;
    s.ack_due = false;
    progress = true;
  }
  progress |= flush();
  enforce_deadlines(now);
  return progress;
}

bool ManagerEndpoint::accept_pending(double now) {
  bool progress = false;
  while (auto fd = listener_.accept()) {
    progress = true;
    if (refuse_accepts_) {
      // Served only to be slammed shut: the "manager cannot serve its
      // accept queue" fault. Workers see an immediate close and back off.
      ++counters_.connect_failures;
      continue;  // Fd destructor closes
    }
    ++counters_.connections_accepted;
    const int raw = fd->get();
    poller_.add(raw);
    conns_.emplace(raw,
                   Conn(std::move(*fd), cfg_.session.max_frame_bytes, now));
  }
  return progress;
}

bool ManagerEndpoint::read_conn(Conn& conn, double now) {
  bool moved = false;
  std::string scratch;
  const bool alive = drain_socket(conn.fd.get(), conn.reader, scratch,
                                  counters_.bytes_received, moved);
  if (moved) conn.last_rx = now;
  bool keep = alive;
  if (conn.reader.poisoned()) ++counters_.oversized_frames;
  // A pre-handshake peer gets a much smaller byte budget than the frame
  // limit: a hello is tiny, so anything longer — even without a newline
  // yet — is garbage.
  if (keep && !conn.established &&
      conn.reader.partial_bytes() > cfg_.session.max_hello_bytes) {
    ++counters_.handshakes_rejected;
    keep = false;
  }
  while (keep) {
    auto frame = conn.reader.pop();
    if (!frame) break;
    moved = true;
    keep = handle_frame(conn, std::move(*frame), now);
  }
  if (!keep) close_conn(conn.fd.get());
  return moved;
}

bool ManagerEndpoint::handle_frame(Conn& conn, std::string frame,
                                   double now) {
  if (!conn.established) return handle_hello(conn, frame, now);
  if (is_control_frame(frame)) {
    if (const auto ack = decode_ack(frame)) {
      sessions_[conn.worker]->tx.acked(ack->rx_seq);
      return true;
    }
    // Any other control frame on an established connection — second
    // hello, corrupt ack, unknown verb — is a protocol violation.
    ++counters_.corrupt_control_frames;
    return false;
  }
  Session& s = *sessions_[conn.worker];
  ++s.rx;
  s.ack_due = true;
  ++counters_.frames_received;
  links_[conn.worker]->to_manager.send(std::move(frame));
  return true;
}

bool ManagerEndpoint::handle_hello(Conn& conn, const std::string& frame,
                                   double now) {
  const auto reject = [this] {
    ++counters_.handshakes_rejected;
    return false;
  };
  if (frame.size() > cfg_.session.max_hello_bytes) return reject();
  const auto hello = decode_hello(frame);
  if (!hello || hello->version != cfg_.session.version) {
    if (hello || sealed_by_v1(frame)) ++counters_.version_mismatches;
    return reject();
  }
  if (hello->worker_id >= sessions_.size()) return reject();
  Session& s = *sessions_[hello->worker_id];

  bool resumed = false;
  if (hello->token != 0 && hello->token == s.token &&
      hello->rx_seq <= s.tx.accepted()) {
    // Resume: the peer tells us how much it received; replay the rest.
    s.tx.rewind(hello->rx_seq);
    resumed = true;
    ++counters_.sessions_resumed;
  } else {
    // Fresh session — requested (token 0) or forced (stale token from an
    // earlier generation, or an rx claim beyond anything we ever sent).
    // Forcing fresh instead of rejecting matters: a worker holding a
    // token we no longer recognize would otherwise loop
    // reconnect -> reject forever. Mint a token, renumber whatever is
    // still queued from sequence zero (undelivered work stays
    // deliverable), forget receive state.
    ++s.generation;
    s.token = util::splitmix64(token_state_);
    if (s.token == 0) s.token = 1;  // 0 is the "no session" sentinel
    s.tx.reset_fresh();
    s.rx = 0;
    s.ack_due = false;
  }

  // Newest connection wins: a half-open predecessor would otherwise pin
  // the session until keepalive notices it.
  if (s.conn_fd >= 0 && s.conn_fd != conn.fd.get()) {
    close_conn(s.conn_fd);
  }
  conn.established = true;
  conn.worker = hello->worker_id;
  s.conn_fd = conn.fd.get();
  (void)now;

  WelcomeFrame w;
  w.version = cfg_.session.version;
  w.token = s.token;
  w.rx_seq = s.rx;
  w.resumed = resumed;
  conn.out.push_frame(encode_welcome(w));
  ++counters_.frames_sent;
  ++counters_.handshakes_ok;
  return true;
}

bool ManagerEndpoint::flush() {
  bool progress = false;
  std::vector<int> dead;
  for (auto& [fd, conn] : conns_) {
    if (conn.established) {
      Session& s = *sessions_[conn.worker];
      while (auto frame = s.tx.next_to_send()) {
        conn.out.push_frame(*frame);
        ++counters_.frames_sent;
        progress = true;
      }
    }
    while (!conn.out.empty()) {
      const std::size_t want = conn.out.chunk().size();
      const auto r = util::io::send_some(conn.fd.get(), conn.out.chunk());
      if (r.status == util::io::IoStatus::WouldBlock) break;
      if (r.status != util::io::IoStatus::Ok) {
        dead.push_back(fd);
        break;
      }
      counters_.bytes_sent += r.bytes;
      conn.out.consume(r.bytes);
      progress = true;
      if (r.bytes < want) {
        // Kernel took part of the chunk; the rest resumes next pump.
        ++counters_.partial_writes;
        break;
      }
    }
    poller_.set_want_write(fd, !conn.out.empty());
  }
  for (int fd : dead) close_conn(fd);
  return progress;
}

void ManagerEndpoint::close_conn(int fd, bool rst) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second.established) {
    Session& s = *sessions_[it->second.worker];
    if (s.conn_fd == fd) s.conn_fd = -1;  // detached; resumes on reconnect
  }
  poller_.remove(fd);
  if (rst) reset_close(it->second.fd);
  conns_.erase(it);
  ++counters_.connections_closed;
}

void ManagerEndpoint::enforce_deadlines(double now) {
  std::vector<int> expired;
  for (auto& [fd, conn] : conns_) {
    if (!conn.established) {
      if (now - conn.opened_at > cfg_.handshake_timeout) expired.push_back(fd);
    } else if (cfg_.session.keepalive_window > 0.0 &&
               now - conn.last_rx > cfg_.session.keepalive_window) {
      // The liveness layer above will declare the worker silent in its own
      // time; this merely stops a dead connection from pinning the session
      // (and the fd) forever.
      ++counters_.keepalive_closes;
      expired.push_back(fd);
    }
  }
  for (int fd : expired) close_conn(fd);
}

bool ManagerEndpoint::quiesced() const noexcept {
  for (const auto& s : sessions_) {
    if (s->conn_fd < 0) return false;
    if (s->tx.depth() != 0 || s->ack_due) return false;
  }
  for (const auto& [fd, conn] : conns_) {
    if (!conn.established) return false;
    if (!conn.out.empty() || conn.reader.partial_bytes() != 0) return false;
  }
  return true;
}

bool ManagerEndpoint::worker_connected(std::uint64_t worker_id) const noexcept {
  return worker_id < sessions_.size() && sessions_[worker_id]->conn_fd >= 0;
}

std::uint64_t ManagerEndpoint::rx_count(std::uint64_t worker_id) const {
  return sessions_.at(worker_id)->rx;
}

void ManagerEndpoint::drop_all_connections() {
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) close_conn(fd, /*rst=*/true);
}

// ========================================================== WorkerEndpoint

WorkerEndpoint::WorkerEndpoint(std::uint64_t worker_id, TcpTransportConfig cfg)
    : worker_id_(worker_id),
      cfg_(std::move(cfg)),
      tx_(cfg_.session, &counters_),
      reader_(cfg_.session.max_frame_bytes),
      backoff_(cfg_.backoff_base, cfg_.backoff_cap, cfg_.backoff_jitter,
               util::hash64("worker-backoff") ^ cfg_.seed ^
                   (worker_id * 0x9e3779b97f4a7c15ULL)) {
  cfg_.validate();
  // to_worker carries inbound dispatches (the endpoint delivers into it);
  // to_manager is the session send queue in Channel clothing.
  link_ = std::make_shared<DuplexLink>(
      std::make_unique<Channel>(), std::make_unique<OutboundSocketChannel>(tx_));
  inbound_ = &link_->to_worker;
}

WorkerEndpoint::~WorkerEndpoint() = default;

void WorkerEndpoint::start_connect(double now) {
  fd_ = connect_start(cfg_.host, cfg_.port);
  if (!fd_.valid()) {
    ++counters_.connect_failures;
    enter_backoff(now);
    return;
  }
  poller_.add(fd_.get(), /*want_write=*/true);
  reader_ = FrameReader(cfg_.session.max_frame_bytes);
  out_ = SendBuffer();
  state_ = State::Connecting;
  state_since_ = now;
}

void WorkerEndpoint::enter_backoff(double now) {
  if (fd_.valid()) {
    poller_.remove(fd_.get());
    fd_.reset();
    ++counters_.connections_closed;
  }
  state_ = State::Backoff;
  state_since_ = now;
  retry_at_ = now + backoff_.delay(++attempt_);
}

bool WorkerEndpoint::pump_io(double now, int timeout_ms) {
  bool progress = false;
  switch (state_) {
    case State::Idle:
      start_connect(now);
      progress = true;
      break;
    case State::Backoff:
      if (now >= retry_at_) {
        start_connect(now);
        progress = true;
      }
      break;
    default:
      break;
  }
  if (!fd_.valid()) return progress;

  const auto events = poller_.wait(timeout_ms);
  bool readable = false;
  bool writable = false;
  bool hangup = false;
  for (const auto& ev : events) {
    if (ev.fd != fd_.get()) continue;
    readable |= ev.readable;
    writable |= ev.writable;
    hangup |= ev.hangup;
  }

  if (state_ == State::Connecting) {
    if (writable || hangup) {
      if (connect_result(fd_.get())) {
        ++counters_.connections_opened;
        HelloFrame h;
        h.version = cfg_.session.version;
        h.worker_id = worker_id_;
        h.token = token_;
        h.rx_seq = rx_;
        out_.push_frame(encode_hello(h));
        ++counters_.frames_sent;
        state_ = State::HelloSent;
        state_since_ = now;
        progress = true;
      } else {
        ++counters_.connect_failures;
        enter_backoff(now);
        return true;
      }
    } else if (now - state_since_ > cfg_.handshake_timeout) {
      ++counters_.connect_failures;
      enter_backoff(now);
      return progress;
    }
  }

  if (state_ == State::HelloSent &&
      now - state_since_ > cfg_.handshake_timeout) {
    // Hello answered with silence: connection is probably half-dead.
    ++counters_.connect_failures;
    enter_backoff(now);
    return progress;
  }

  if (state_ == State::HelloSent || state_ == State::Established) {
    if (readable || hangup) {
      if (!read_socket(now)) {
        enter_backoff(now);
        return true;
      }
      progress = true;
    }
    if (ack_due_ && state_ == State::Established) {
      out_.push_frame(encode_ack(AckFrame{rx_}));
      ++counters_.frames_sent;
      ack_due_ = false;
      progress = true;
    }
    if (!flush()) {
      enter_backoff(now);
      return true;
    }
  }
  return progress;
}

bool WorkerEndpoint::read_socket(double now) {
  (void)now;
  bool moved = false;
  std::string scratch;
  const bool alive = drain_socket(fd_.get(), reader_, scratch,
                                  counters_.bytes_received, moved);
  if (reader_.poisoned()) ++counters_.oversized_frames;
  bool keep = alive;
  while (keep) {
    auto frame = reader_.pop();
    if (!frame) break;
    keep = handle_frame(std::move(*frame));
  }
  return keep;
}

bool WorkerEndpoint::handle_frame(std::string frame) {
  if (state_ == State::HelloSent) return handle_welcome(frame);
  if (is_control_frame(frame)) {
    if (const auto ack = decode_ack(frame)) {
      tx_.acked(ack->rx_seq);
      return true;
    }
    ++counters_.corrupt_control_frames;
    return false;
  }
  ++rx_;
  ++counters_.frames_received;
  ack_due_ = true;
  inbound_->send(std::move(frame));
  return true;
}

bool WorkerEndpoint::handle_welcome(const std::string& frame) {
  const auto welcome = decode_welcome(frame);
  if (welcome ? welcome->version != cfg_.session.version
              : sealed_by_v1(frame)) {
    ++counters_.version_mismatches;
    return false;
  }
  if (!welcome || welcome->token == 0) {
    ++counters_.corrupt_control_frames;
    return false;
  }
  if (welcome->resumed) {
    if (welcome->token != token_) {
      // A resume we never asked for, or for a different session.
      ++counters_.corrupt_control_frames;
      return false;
    }
    tx_.rewind(welcome->rx_seq);
    ++counters_.sessions_resumed;
  } else {
    // Fresh session: adopt the minted token, renumber the queue (its
    // contents — announce, cached results — are still worth delivering),
    // restart receive counting.
    token_ = welcome->token;
    tx_.reset_fresh();
    rx_ = 0;
    ack_due_ = false;
  }
  ++counters_.handshakes_ok;
  if (ever_established_) ++counters_.reconnects;
  ever_established_ = true;
  attempt_ = 0;
  state_ = State::Established;
  return true;
}

bool WorkerEndpoint::flush() {
  if (state_ == State::Established) {
    while (auto frame = tx_.next_to_send()) {
      out_.push_frame(*frame);
      ++counters_.frames_sent;
    }
  }
  while (!out_.empty()) {
    const std::size_t want = out_.chunk().size();
    const auto r = util::io::send_some(fd_.get(), out_.chunk());
    if (r.status == util::io::IoStatus::WouldBlock) break;
    if (r.status != util::io::IoStatus::Ok) return false;
    counters_.bytes_sent += r.bytes;
    out_.consume(r.bytes);
    if (r.bytes < want) {
      ++counters_.partial_writes;
      break;
    }
  }
  poller_.set_want_write(fd_.get(), !out_.empty());
  return true;
}

bool WorkerEndpoint::quiesced() const noexcept {
  return state_ == State::Established && out_.empty() && tx_.depth() == 0 &&
         reader_.partial_bytes() == 0 && !ack_due_;
}

void WorkerEndpoint::kill_connection() {
  if (!fd_.valid()) return;
  poller_.remove(fd_.get());
  reset_close(fd_);
  ++counters_.connections_closed;
  // Backoff starts from the next pump's `now`; mark a retry immediately due.
  state_ = State::Backoff;
  retry_at_ = 0.0;
  ++attempt_;
}

}  // namespace tora::proto::net
