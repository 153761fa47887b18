#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/recovery/crash.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/recovery/storage.hpp"
#include "core/replication/replication.hpp"
#include "core/task.hpp"
#include "core/task_allocator.hpp"
#include "proto/drive.hpp"
#include "proto/manager.hpp"
#include "proto/recovery_runtime.hpp"

namespace tora::proto {

/// Outcome of a hot-standby replicated protocol run. The journaled fields
/// describe the final (possibly promoted) manager.
struct FailoverRunResult : RecoveryRunResult {
  core::ReplicationCounters replication;
  /// Primary deaths survived by promoting the standby.
  std::size_t failovers = 0;
  /// The final manager's leadership term (== failovers when every promotion
  /// chained cleanly).
  std::uint64_t final_term = 0;
  /// Per-failover recovery-time-objective: wall microseconds from the
  /// primary's death to the promoted standby serving (term bumped, fresh
  /// snapshot rotated, ready to pump).
  std::vector<double> rto_us;
  /// Per-failover wall microseconds a cold recover-from-disk of the same
  /// state took (the contrast figure the hot standby is buying down).
  std::vector<double> cold_rebuild_us;
};

/// RecoverableProtocolRuntime's replicated sibling: the primary manager
/// journals to its own storage AND ships the journal stream to a hot
/// standby (core/replication/) holding a warm ProtocolManager image plus a
/// byte-exact mirror of the recovery directory. A scheduled ManagerCrash is
/// treated as primary NODE death — storage and all: instead of rebuilding
/// from the dead primary's disk, failover() promotes the standby
/// (finish_replay, term bump journaled, fresh snapshot rotated), fences the
/// zombie primary through the replication ack channel, re-homes the
/// surviving workers' links to the promoted manager, and seeds a brand-new
/// standby from a snapshot rotation — so crash schedules chain across
/// multiple failovers.
///
/// Correctness oracles enforced on EVERY failover (throwing on violation):
///  - three-way fingerprint: promoted standby's snapshot_body() must be
///    byte-identical to a cold crash-recovery rebuild from the mirror disk
///    at the same journal offset; at full-tick crash barriers it must also
///    equal the crashed primary's final body.
///  - zero lost acknowledged results: every task that was Completed at the
///    last fully-acknowledged durability barrier is still Completed on the
///    promoted manager.
///  - the fenced zombie must report fenced() (its pump() is a no-op).
///
/// The runtime is the ProtocolDrive's crash policy: promote the standby.
class FailoverProtocolRuntime : private CrashPolicy {
 public:
  using AllocatorFactory = proto::AllocatorFactory;

  /// `primary_storage` backs the FIRST primary's journal (fault-decorated
  /// in the chaos harness; it dies with the primary). Standby mirrors are
  /// owned internally (clean MemStorage — the standby is a different node).
  FailoverProtocolRuntime(std::span<const core::TaskSpec> tasks,
                          AllocatorFactory make_allocator,
                          std::size_t num_workers,
                          core::ResourceVector worker_capacity,
                          const ChaosConfig& chaos,
                          core::recovery::Storage& primary_storage,
                          core::replication::ReplicationConfig replication,
                          core::recovery::RecoveryConfig recovery = {},
                          core::recovery::CrashSchedule crashes = {});
  ~FailoverProtocolRuntime();  ///< out-of-line: StandbyGeneration is opaque

  /// Runs to completion (see ProtocolDrive for the stall rule).
  FailoverRunResult run(std::size_t max_rounds = 1000000);

  const core::ReplicationCounters& replication_counters() const noexcept {
    return rep_counters_;
  }

 private:
  struct StandbyGeneration;

  // CrashPolicy: fail over, and keep the standby current after each pump.
  std::size_t recover(core::recovery::ManagerCrashPoint point,
                      ProtocolDrive& drive) override;
  void after_pump(ProtocolManager& live) override;

  /// Wires a fresh standby generation (mirror storage, replication link,
  /// warm applier, replica, shipper) to the CURRENT primary log. `genesis`
  /// standbys trust the stream from its first record; later generations
  /// wait for a seeding rotation.
  void spawn_standby(bool genesis);

  /// The failover sequence (see class comment). Returns the promoted
  /// manager's finish_replay() — the pump() result of the tick the primary
  /// died in.
  std::size_t failover(core::recovery::ManagerCrashPoint point);

  /// Rebuild-from-mirror comparator: cold-recovers a throwaway manager from
  /// the standby's mirror storage and returns its snapshot_body().
  std::string cold_rebuild_body(core::recovery::Storage& mirror);

  /// Remember which tasks were Completed while the standby was fully
  /// caught up (acked == shipped): the zero-lost-acks oracle's watermark.
  void note_acknowledged_completions(const ProtocolManager& live);

  // The primary's storage and log (CrashPolicy) change at each failover.
  core::replication::ReplicationConfig rep_cfg_;
  LinkTransport transport_;
  ProtocolDrive drive_;  ///< the agents and the live manager

  // Standby generation (replaced on failover; old mirror becomes the new
  // primary's storage).
  std::unique_ptr<StandbyGeneration> standby_;
  std::vector<std::unique_ptr<core::recovery::MemStorage>> mirrors_;

  core::ReplicationCounters rep_counters_;
  std::vector<char> acked_completed_;
  std::size_t failovers_ = 0;
  std::vector<double> rto_us_;
  std::vector<double> cold_rebuild_us_;
};

}  // namespace tora::proto
