#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/metrics.hpp"
#include "core/recovery/crash.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/recovery/storage.hpp"
#include "core/task.hpp"
#include "core/task_allocator.hpp"
#include "proto/drive.hpp"
#include "proto/manager.hpp"
#include "proto/net/endpoint.hpp"
#include "proto/net/fault_proxy.hpp"
#include "proto/recovery_runtime.hpp"

namespace tora::proto::net {

/// Outcome of a TCP protocol run: the in-process result plus transport
/// counters and the manager's bit-exact state fingerprint (the three-way
/// parity oracle compares this byte string against the in-process run's).
struct TcpRunResult : ProtocolRunResult {
  core::TransportCounters transport;  ///< manager + every worker, merged
  std::string state_fingerprint;      ///< ProtocolManager::snapshot_body()
};

/// The socket transport: a ManagerEndpoint, one WorkerEndpoint per worker
/// and, given a WireFaultPlan, a FaultProxy between them that injects
/// byte-level faults (latency, corruption, mid-frame truncation, RST). The
/// endpoints model the network substrate, so they outlive a manager crash:
/// the reborn manager receives the same links.
///
/// The pacing follows from the plan. LOCKSTEP (no active plan): every
/// transport step settles the network to empty — every send queue drained
/// and acked, every byte delivered, a count-based barrier rather than a
/// timed one — so message arrival ORDER is identical to the in-process
/// runtime and the final snapshot_body() matches it byte for byte. PACED
/// (an active plan): every step is a bounded burst of IO pumps, the network
/// may be mid-flight, late, or on fire, and assertions target completion
/// and exactly-once accounting, not fingerprints.
class SocketTransport final : public Transport {
 public:
  /// `drop_connections_on_crash`: see RecoverableTcpRuntime.
  SocketTransport(std::size_t num_workers, TcpTransportConfig tcp,
                  std::optional<WireFaultPlan> proxy_plan,
                  bool drop_connections_on_crash);

  const std::vector<DuplexLinkPtr>& links() const override {
    return mgr_ep_->links();
  }
  const DuplexLinkPtr& worker_link(std::size_t i) const override {
    return worker_eps_[i]->link();
  }
  void flush() override { advance(4 * kPacedPumps); }
  void begin_round(std::size_t round) override {
    now_ = static_cast<double>(round + 1);
  }
  void step() override { advance(kPacedPumps); }
  void manager_crashed() override;
  void harvest(ProtocolRunResult& result) const override;
  void describe(StallReport& report) const override;
  std::size_t reconnect_backoff_cap() const override {
    return static_cast<std::size_t>(tcp_.backoff_cap);
  }

  /// The manager's and every worker's transport counters, merged.
  core::TransportCounters counters() const;
  /// Non-null when a proxy plan was given.
  FaultProxy* proxy() noexcept { return proxy_.get(); }

 private:
  /// IO pumps per paced transport step.
  static constexpr std::size_t kPacedPumps = 8;

  bool pump_network(int timeout_ms = 0);
  /// `paced_pumps` IO pumps when paced, else settle().
  void advance(std::size_t paced_pumps);
  /// Pumps IO until the whole network is empty (lockstep barrier); the
  /// sub-round clock advances a fraction per iteration so backoff and
  /// latency gates keep moving. Throws if the network never drains.
  void settle();

  TcpTransportConfig tcp_;
  bool paced_;
  bool drop_on_crash_;
  std::unique_ptr<ManagerEndpoint> mgr_ep_;
  std::unique_ptr<FaultProxy> proxy_;
  std::vector<std::unique_ptr<WorkerEndpoint>> worker_eps_;
  double now_ = 0.0;
};

/// ProtocolRuntime's socket sibling: the same manager and WorkerAgents,
/// but every message crosses a real loopback TCP connection through the
/// session layer (handshake, sequence numbers, acks, reconnect, resume) —
/// a SocketTransport, optionally through a FaultProxy.
class TcpProtocolRuntime {
 public:
  TcpProtocolRuntime(std::span<const core::TaskSpec> tasks,
                     core::TaskAllocator& allocator, std::size_t num_workers,
                     core::ResourceVector worker_capacity,
                     TcpTransportConfig tcp = {}, ChaosConfig chaos = {},
                     std::optional<WireFaultPlan> proxy_plan = std::nullopt);

  TcpRunResult run(std::size_t max_rounds = 100000);

  /// Non-null when a proxy plan was given.
  FaultProxy* proxy() noexcept { return transport_.proxy(); }

 private:
  SocketTransport transport_;
  ProtocolDrive drive_;
};

/// RecoverableProtocolRuntime's socket sibling: the manager journals and
/// crashes exactly as in the in-process harness (the RebuildFromLog crash
/// policy), but the transport is a lockstep SocketTransport, which — like
/// the network it models — SURVIVES the manager process dying: in-flight
/// frames are still in the endpoint's channels and send queues. With
/// `drop_connections_on_crash` the crash also RSTs every worker connection;
/// workers then reconnect with backoff and RESUME their sessions,
/// replaying unacked results into the recovered manager's idempotency gate.
class RecoverableTcpRuntime {
 public:
  using AllocatorFactory = proto::AllocatorFactory;

  RecoverableTcpRuntime(std::span<const core::TaskSpec> tasks,
                        AllocatorFactory make_allocator,
                        std::size_t num_workers,
                        core::ResourceVector worker_capacity,
                        TcpTransportConfig tcp, ChaosConfig chaos,
                        core::recovery::Storage& storage,
                        core::recovery::RecoveryConfig recovery = {},
                        core::recovery::CrashSchedule crashes = {},
                        bool drop_connections_on_crash = true);

  struct Result : TcpRunResult {  ///< journaled fields as RecoveryRunResult
    core::RecoveryCounters recovery;
    core::StorageHealth storage;
    core::StorageFaultCounters storage_faults;
  };

  Result run(std::size_t max_rounds = 100000);

 private:
  SocketTransport transport_;
  RebuildFromLog rebuild_;
  ProtocolDrive drive_;
};

}  // namespace tora::proto::net
