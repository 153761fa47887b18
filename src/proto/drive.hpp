#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/resources.hpp"
#include "core/task_allocator.hpp"
#include "proto/channel.hpp"
#include "proto/fault.hpp"
#include "proto/worker_agent.hpp"

namespace tora::proto {

class ProtocolManager;

/// Aggregate outcome of a full protocol run.
struct ProtocolRunResult {
  core::WasteAccounting accounting;
  std::size_t tasks_completed = 0;
  std::size_t tasks_fatal = 0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t rounds = 0;
  /// Aggregated anomaly counters from channels, manager and agents.
  core::ChaosCounters chaos;
  /// Protocol-level eviction cost (see ProtocolManager::evicted_alloc).
  core::ResourceVector evicted_alloc;
  /// Resilience-layer activity (see ProtocolManager::resilience).
  core::ResilienceCounters resilience;
};

/// Builds the allocator a crash-safe runtime rebuilds its manager around.
/// Every call must return a freshly constructed allocator with the same
/// policy, seed and config (recovery validates the policy name and config
/// hash).
using AllocatorFactory =
    std::function<std::unique_ptr<core::TaskAllocator>()>;

/// A manager and the allocator it owns (null when the caller owns it).
struct ManagerSlot {
  std::unique_ptr<core::TaskAllocator> allocator;
  std::unique_ptr<ProtocolManager> manager;
};

/// A stalled run's state when the drive loop gave up on it. Counts only.
struct StallReport {
  std::size_t rounds = 0;  ///< rounds run, the stalled ones included
  // Unfinished tasks by phase.
  std::size_t pending = 0;
  std::size_t queued = 0;
  std::size_t running = 0;
  // The manager's worker registry.
  std::size_t workers_registered = 0;
  std::size_t workers_quarantined = 0;
  std::size_t workers_backpressured = 0;  ///< in the last tick's sample
  std::size_t agents_crashed = 0;
  // Socket transports only: worker endpoints by connector state. A worker
  // reconnecting after a lost connection is connecting, has sent its hello
  // or waits out a backoff.
  bool sockets = false;
  std::size_t endpoints_idle = 0;
  std::size_t endpoints_connecting = 0;
  std::size_t endpoints_hello_sent = 0;
  std::size_t endpoints_established = 0;
  /// Consecutive failed connects of each worker endpoint in backoff, in
  /// worker order (its size is the number of endpoints in backoff).
  std::vector<std::size_t> backoff_failed_connects;
  bool storage_degraded = false;

  /// The report on one line.
  std::string to_string() const;
};

/// Thrown when a run makes no progress for longer than the stall limit.
class StallError : public std::runtime_error {
 public:
  explicit StallError(StallReport report);
  const StallReport& report() const noexcept { return report_; }

 private:
  StallReport report_;
};

/// The wire between the manager and its agents, as the drive loop steps
/// it: in-process links, or sockets (settled in lockstep, or paced through
/// a fault proxy). It outlives every manager a crash policy installs.
class Transport {
 public:
  virtual ~Transport() = default;
  /// The manager's end of every worker's link, in worker order.
  virtual const std::vector<DuplexLinkPtr>& links() const = 0;
  /// Worker `i`'s end of its link.
  virtual const DuplexLinkPtr& worker_link(std::size_t i) const = 0;
  /// Delivers everything sent so far: the announcements before start(),
  /// the Shutdown broadcast at the end.
  virtual void flush() {}
  /// Runs at the top of round `round` (0-based).
  virtual void begin_round(std::size_t round) { (void)round; }
  /// Runs after the manager pump and again after the agent pumps.
  virtual void step() {}
  /// The manager process died; the transport lives on.
  virtual void manager_crashed() {}
  /// Adds messages, bytes and the transport's own fault counters.
  virtual void harvest(ProtocolRunResult& result) const = 0;
  /// Adds the transport's state to a stall report.
  virtual void describe(StallReport& report) const { (void)report; }
  /// The reconnect backoff ceiling in rounds (0 without sockets).
  virtual std::size_t reconnect_backoff_cap() const { return 0; }
};

/// In-process links, optionally wrapped in seeded FaultyChannels.
class LinkTransport final : public Transport {
 public:
  LinkTransport(std::size_t num_workers, const ChaosConfig& chaos);

  const std::vector<DuplexLinkPtr>& links() const override { return links_; }
  const DuplexLinkPtr& worker_link(std::size_t i) const override {
    return links_[i];
  }
  void harvest(ProtocolRunResult& result) const override;

 private:
  std::vector<DuplexLinkPtr> links_;
};

/// Builds the in-process duplex links for `num_workers`, wrapping each in
/// seeded FaultyChannels when `chaos` enables faults (labeled RNG splits per
/// direction × worker; severed links capped at n-1 so a run stays
/// completable).
std::vector<DuplexLinkPtr> build_chaos_links(std::size_t num_workers,
                                             const ChaosConfig& chaos);

class CrashPolicy;  // proto/recovery_runtime.hpp

/// The one protocol drive loop. Owns the agents and the live manager; a
/// Transport carries their messages and an optional CrashPolicy replaces a
/// manager that dies. run() announces, connects and starts, then runs
/// rounds of
///   1. the manager pump (a crash goes to the policy),
///   2. the policy's after_pump (the standby's replication step),
///   3. a transport step,
///   4. the agent pumps, in id order,
///   5. a transport step,
///   6. the done() check,
/// then shuts the workers down and harvests the result. More than 64 ×
/// (silence + attempt timeout + backoff cap + disk retry cap + reconnect
/// backoff cap + 4) quiet rounds in a row throw StallError; the disk term
/// counts only under a crash policy, the reconnect term only on sockets.
class ProtocolDrive {
 public:
  /// Builds one WorkerAgent of `capacity` per transport link, executing
  /// against the manager's task table; worker i runs
  /// chaos.worker_faults[i].
  ProtocolDrive(Transport& transport, CrashPolicy* crash, ManagerSlot live,
                core::ResourceVector capacity, const ChaosConfig& chaos);
  ~ProtocolDrive();

  /// The live manager (a crash policy replaces it).
  ProtocolManager& manager() noexcept { return *live_.manager; }
  const ProtocolManager& manager() const noexcept { return *live_.manager; }
  /// The manager-side links a successor manager is built over.
  const std::vector<DuplexLinkPtr>& links() const { return transport_.links(); }

  /// Installs a successor manager.
  void replace(ManagerSlot next);

  /// Runs to completion and fills `result`. Throws StallError on a stall
  /// and std::runtime_error past `max_rounds`.
  void run(std::size_t max_rounds, ProtocolRunResult& result);

 private:
  /// The manager pump; a ManagerCrash goes to the crash policy.
  std::size_t pump_manager();
  StallReport stall_report(std::size_t rounds) const;

  Transport& transport_;
  CrashPolicy* crash_;
  ManagerSlot live_;
  std::vector<WorkerAgent> agents_;
  std::size_t stall_limit_;
};

}  // namespace tora::proto
