#include "proto/net/tcp_runtime.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tora::proto::net {

namespace {

/// Settle iterations before declaring the network wedged. Generous: a
/// calm loopback round drains in a handful; reconnect backoff after a
/// deliberate kill can stretch to backoff_cap / kSettleDt iterations.
constexpr std::size_t kSettleLimit = 200000;
/// Sub-round clock advance per settle iteration (round units): lets
/// backoff deadlines and proxy latency gates expire inside a barrier
/// without meaningfully advancing keepalive windows on calm runs.
constexpr double kSettleDt = 0.01;

}  // namespace

SocketTransport::SocketTransport(std::size_t num_workers,
                                 TcpTransportConfig tcp,
                                 std::optional<WireFaultPlan> proxy_plan,
                                 bool drop_connections_on_crash)
    : tcp_(std::move(tcp)),
      paced_(proxy_plan && proxy_plan->active()),
      drop_on_crash_(drop_connections_on_crash),
      mgr_ep_(std::make_unique<ManagerEndpoint>(num_workers, tcp_)) {
  std::uint16_t connect_port = mgr_ep_->port();
  if (proxy_plan) {
    proxy_ = std::make_unique<FaultProxy>(tcp_.host, connect_port,
                                          *proxy_plan, tcp_.seed ^ 0x70727879);
    connect_port = proxy_->port();
  }
  worker_eps_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    TcpTransportConfig wcfg = tcp_;
    wcfg.port = connect_port;
    worker_eps_.push_back(std::make_unique<WorkerEndpoint>(i, wcfg));
  }
}

bool SocketTransport::pump_network(int timeout_ms) {
  bool progress = mgr_ep_->pump_io(now_, timeout_ms);
  if (proxy_) progress |= proxy_->pump_io(0);
  for (auto& ep : worker_eps_) progress |= ep->pump_io(now_, 0);
  return progress;
}

void SocketTransport::advance(std::size_t paced_pumps) {
  if (paced_) {
    for (std::size_t i = 0; i < paced_pumps; ++i) pump_network(0);
  } else {
    settle();
  }
}

void SocketTransport::settle() {
  const auto quiesced = [this] {
    return mgr_ep_->quiesced() &&
           std::all_of(worker_eps_.begin(), worker_eps_.end(),
                       [](const auto& ep) { return ep->quiesced(); });
  };
  for (std::size_t i = 0; i < kSettleLimit; ++i) {
    const bool progress = pump_network(0);
    if (quiesced()) return;
    now_ += kSettleDt;
    if (!progress) {
      // Give the kernel a moment to move loopback bytes between fds.
      pump_network(1);
    }
  }
  throw std::runtime_error(
      "SocketTransport: network failed to settle (frames stuck in flight, "
      "or a worker cannot reconnect)");
}

void SocketTransport::manager_crashed() {
  // The manager host died: its TCP stack RSTs every connection. Sessions
  // stay (they live in the endpoint, which models the substrate), so the
  // reconnecting workers resume and replay their unacked frames.
  if (drop_on_crash_) mgr_ep_->drop_all_connections();
}

core::TransportCounters SocketTransport::counters() const {
  core::TransportCounters merged = mgr_ep_->counters();
  for (const auto& ep : worker_eps_) merged.merge(ep->counters());
  return merged;
}

void SocketTransport::harvest(ProtocolRunResult& result) const {
  // On sockets, "messages/bytes" are what actually crossed the wire —
  // application frames plus handshake and ack traffic.
  const core::TransportCounters t = counters();
  result.messages = t.frames_sent;
  result.bytes = t.bytes_sent;
}

void SocketTransport::describe(StallReport& report) const {
  report.sockets = true;
  for (const auto& ep : worker_eps_) {
    switch (ep->state()) {
      case WorkerEndpoint::State::Idle:
        ++report.endpoints_idle;
        break;
      case WorkerEndpoint::State::Connecting:
        ++report.endpoints_connecting;
        break;
      case WorkerEndpoint::State::HelloSent:
        ++report.endpoints_hello_sent;
        break;
      case WorkerEndpoint::State::Established:
        ++report.endpoints_established;
        break;
      case WorkerEndpoint::State::Backoff:
        report.backoff_failed_connects.push_back(ep->failed_connects());
        break;
    }
  }
}

// ======================================================= TcpProtocolRuntime

TcpProtocolRuntime::TcpProtocolRuntime(
    std::span<const core::TaskSpec> tasks, core::TaskAllocator& allocator,
    std::size_t num_workers, core::ResourceVector worker_capacity,
    TcpTransportConfig tcp, ChaosConfig chaos,
    std::optional<WireFaultPlan> proxy_plan)
    : transport_(num_workers, std::move(tcp), proxy_plan,
                 /*drop_connections_on_crash=*/false),
      drive_(transport_, nullptr,
             {nullptr,
              std::make_unique<ProtocolManager>(
                  tasks, allocator, transport_.links(), chaos.liveness)},
             worker_capacity, chaos) {}

TcpRunResult TcpProtocolRuntime::run(std::size_t max_rounds) {
  TcpRunResult result;
  drive_.run(max_rounds, result);
  result.transport = transport_.counters();
  result.state_fingerprint = drive_.manager().snapshot_body();
  return result;
}

// ==================================================== RecoverableTcpRuntime

RecoverableTcpRuntime::RecoverableTcpRuntime(
    std::span<const core::TaskSpec> tasks, AllocatorFactory make_allocator,
    std::size_t num_workers, core::ResourceVector worker_capacity,
    TcpTransportConfig tcp, ChaosConfig chaos,
    core::recovery::Storage& storage, core::recovery::RecoveryConfig recovery,
    core::recovery::CrashSchedule crashes, bool drop_connections_on_crash)
    : transport_(num_workers, std::move(tcp), std::nullopt,
                 drop_connections_on_crash),
      rebuild_(tasks, std::move(make_allocator), chaos.liveness, storage,
               recovery, std::move(crashes)),
      drive_(transport_, &rebuild_, rebuild_.first_manager(transport_.links()),
             worker_capacity, chaos) {}

RecoverableTcpRuntime::Result RecoverableTcpRuntime::run(
    std::size_t max_rounds) {
  Result result;
  drive_.run(max_rounds, result);
  result.transport = transport_.counters();
  rebuild_.harvest(drive_.manager(), result);
  return result;
}

}  // namespace tora::proto::net
