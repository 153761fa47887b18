#include "proto/net/fault_proxy.hpp"

#include <netinet/in.h>
#include <sys/socket.h>

#include <utility>

#include "util/io.hpp"

namespace tora::proto::net {

namespace {

constexpr std::size_t kReadChunk = 16 * 1024;

/// True once a nonblocking connect has fully established (getpeername
/// succeeds). SO_ERROR alone cannot distinguish "still connecting" from
/// "connected" — both read as 0.
bool peer_bound(int fd) noexcept {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  return ::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
}

}  // namespace

FaultProxy::FaultProxy(const std::string& host, std::uint16_t upstream_port,
                       WireFaultPlan plan, std::uint64_t seed)
    : host_(host),
      upstream_port_(upstream_port),
      plan_(plan),
      listener_(host, 0),
      rng_(seed) {
  poller_.add(listener_.fd());
}

bool FaultProxy::pump_io(int timeout_ms) {
  ++step_;
  bool progress = false;
  // Accept new downstream connections and dial the upstream for each.
  while (auto down = listener_.accept()) {
    progress = true;
    Fd up = connect_start(host_, upstream_port_);
    if (!up.valid()) continue;  // upstream gone; downstream just closes
    poller_.add(down->get());
    poller_.add(up.get(), /*want_write=*/true);
    // Each connection's fault stream is keyed by its accept order, so a
    // reconnect draws fresh faults instead of replaying its predecessor's.
    pairs_.push_back(std::make_unique<Pair>(
        std::move(*down), std::move(up),
        rng_.split("conn/" + std::to_string(accepted_++))));
  }
  // epoll wakes the blocking CLI/soak callers; the lockstep harness calls
  // with timeout 0 and we simply sweep every pair (level-triggered reads
  // below poll the sockets directly).
  (void)poller_.wait(timeout_ms);
  for (std::size_t i = 0; i < pairs_.size();) {
    Pair& p = *pairs_[i];
    if (plan_.rst_prob > 0.0 && p.rng.bernoulli(plan_.rst_prob)) {
      ++faults_;
      close_pair(i, /*rst=*/true);
      continue;
    }
    if (pump_pair(p)) {
      progress = true;
    }
    if (!p.downstream.valid() || !p.upstream.valid()) {
      close_pair(i, /*rst=*/false);
      continue;
    }
    ++i;
  }
  return progress;
}

bool FaultProxy::pump_pair(Pair& p) {
  if (!p.upstream_connected) {
    if (peer_bound(p.upstream.get())) {
      p.upstream_connected = true;
    } else if (!connect_result(p.upstream.get())) {
      // SO_ERROR set: the dial failed (refused, unreachable). Kill the
      // pair; the worker sees its connection die and backs off.
      p.upstream.reset();
      return false;
    } else {
      return false;  // still connecting; try again next pump
    }
  }
  bool moved = false;
  if (!ingest(p, p.downstream.get(), p.to_upstream)) p.downstream.reset();
  if (p.upstream.valid() &&
      !ingest(p, p.upstream.get(), p.to_downstream)) {
    p.upstream.reset();
  }
  if (p.downstream.valid() && p.upstream.valid()) {
    if (!drain(p, p.to_upstream, p.upstream.get())) p.upstream.reset();
    if (p.upstream.valid() && p.downstream.valid() &&
        !drain(p, p.to_downstream, p.downstream.get())) {
      p.downstream.reset();
    }
  }
  moved = !p.to_upstream.queue.empty() || !p.to_downstream.queue.empty() ||
          !p.to_upstream.wire.empty() || !p.to_downstream.wire.empty();
  if (p.doomed_fin && p.to_upstream.wire.empty() &&
      p.to_downstream.wire.empty()) {
    // Truncation already delivered its partial bytes; now the cut.
    p.downstream.reset();
    p.upstream.reset();
  }
  return moved;
}

bool FaultProxy::ingest(Pair& p, int src_fd, Leg& leg) {
  if (src_fd < 0 || p.doomed_fin) return src_fd >= 0;
  for (;;) {
    std::string chunk;
    const auto r = util::io::recv_some(src_fd, chunk, kReadChunk);
    if (r.status == util::io::IoStatus::WouldBlock) return true;
    if (r.status != util::io::IoStatus::Ok) return false;
    if (plan_.corrupt_chunk_prob > 0.0 &&
        p.rng.bernoulli(plan_.corrupt_chunk_prob)) {
      const std::size_t at = static_cast<std::size_t>(
          p.rng.uniform_int(0, chunk.size() - 1));
      chunk[at] = static_cast<char>(chunk[at] ^ 0x20);
      ++faults_;
    }
    if (plan_.truncate_prob > 0.0 && p.rng.bernoulli(plan_.truncate_prob)) {
      // Keep a strict prefix (possibly cutting mid-frame), then doom the
      // connection once the prefix is flushed.
      const std::size_t keep = static_cast<std::size_t>(
          p.rng.uniform_int(0, chunk.size() - 1));
      chunk.resize(keep);
      p.doomed_fin = true;
      ++faults_;
    }
    if (!chunk.empty()) {
      leg.queue.push_back(Leg::Chunk{std::move(chunk),
                                     step_ + plan_.latency_steps});
    }
    if (p.doomed_fin) return true;
  }
}

bool FaultProxy::drain(Pair& p, Leg& leg, int dst_fd) {
  (void)p;
  while (!leg.queue.empty() && leg.queue.front().release_step <= step_) {
    leg.wire.append(leg.queue.front().bytes);
    leg.queue.pop_front();
  }
  while (!leg.wire.empty()) {
    const auto r = util::io::send_some(dst_fd, leg.wire);
    if (r.status == util::io::IoStatus::WouldBlock) break;
    if (r.status != util::io::IoStatus::Ok) return false;
    leg.wire.erase(0, r.bytes);
  }
  return true;
}

void FaultProxy::close_pair(std::size_t index, bool rst) {
  Pair& p = *pairs_[index];
  if (p.downstream.valid()) {
    poller_.remove(p.downstream.get());
    if (rst) reset_close(p.downstream);
  }
  if (p.upstream.valid()) {
    poller_.remove(p.upstream.get());
    if (rst) reset_close(p.upstream);
  }
  pairs_.erase(pairs_.begin() + static_cast<std::ptrdiff_t>(index));
}

}  // namespace tora::proto::net
