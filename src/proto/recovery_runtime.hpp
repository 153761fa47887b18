#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/recovery/crash.hpp"
#include "core/recovery/faulty_storage.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/recovery/storage.hpp"
#include "core/task.hpp"
#include "proto/drive.hpp"
#include "proto/manager.hpp"

namespace tora::proto {

/// Outcome of a crash-recoverable protocol run.
struct RecoveryRunResult : ProtocolRunResult {
  core::RecoveryCounters recovery;
  /// The final manager's ProtocolManager::snapshot_body(): a bit-exact
  /// serialization of allocator (with sampler state), lifecycle core,
  /// worker registry, per-task protocol state and chaos counters. Two runs
  /// with equal fingerprints finished in EXACTLY the same state — the
  /// crash/no-crash equality harness compares these byte strings.
  std::string state_fingerprint;
  /// The final manager's storage-degradation status (ENOSPC/EIO handling).
  core::StorageHealth storage;
  /// Injected-fault counters when the storage is a FaultyStorage decorator
  /// (all zero otherwise).
  core::StorageFaultCounters storage_faults;
};

/// What the drive loop does when the manager process dies mid-pump:
/// rebuild it from its log (RebuildFromLog) or promote a standby
/// (FailoverProtocolRuntime). Either way the manager journals to a
/// RecoveryLog over a Storage and snapshots on the configured cadence, and
/// an armed CrashMonitor kills it at scheduled crash points.
class CrashPolicy {
 public:
  CrashPolicy(std::span<const core::TaskSpec> tasks,
              AllocatorFactory make_allocator, LivenessConfig liveness,
              core::recovery::Storage& storage,
              core::recovery::RecoveryConfig recovery,
              core::recovery::CrashSchedule crashes);
  virtual ~CrashPolicy() = default;

  /// The run's first manager: a fresh allocator and a manager over `links`,
  /// journaling to the log.
  ManagerSlot first_manager(const std::vector<DuplexLinkPtr>& links);
  /// Opens the journal before the announcements. A disk that fails here
  /// starts the run storage-degraded instead of killing it.
  void open(ProtocolManager& live);
  /// Rotates a successor's state in as the next generation, so a re-crash
  /// recovers from here. A disk that still fails brings it up
  /// storage-degraded (admissions held, capped-backoff retries) instead.
  void seal(ProtocolManager& live);
  /// The live manager died at `point`: install its successor with
  /// ProtocolDrive::replace and return the pump() result of the tick it
  /// died in.
  virtual std::size_t recover(core::recovery::ManagerCrashPoint point,
                              ProtocolDrive& drive) = 0;
  /// Runs after every manager pump, before the first transport step.
  virtual void after_pump(ProtocolManager& live) { (void)live; }
  std::size_t storage_retry_cap_ticks() const noexcept {
    return static_cast<std::size_t>(recovery_cfg_.storage_retry_cap_ticks);
  }

  /// Fills the journaled fields of a run result from the final manager.
  template <typename Result>
  void harvest(const ProtocolManager& live, Result& result) const {
    result.recovery = counters_;
    result.state_fingerprint = live.snapshot_body();
    result.storage = live.storage_health();
    if (const auto* faulty =
            dynamic_cast<const core::recovery::FaultyStorage*>(storage_)) {
      result.storage_faults = faulty->counters();
    }
  }

  const core::RecoveryCounters& counters() const noexcept { return counters_; }
  core::recovery::RecoveryLog& log() noexcept { return *log_; }

 protected:
  std::span<const core::TaskSpec> tasks_;
  AllocatorFactory make_allocator_;
  LivenessConfig liveness_;
  core::recovery::RecoveryConfig recovery_cfg_;
  core::recovery::Storage* storage_;  ///< the current primary's storage
  core::RecoveryCounters counters_;
  core::recovery::CrashMonitor monitor_;
  std::unique_ptr<core::recovery::RecoveryLog> log_;
};

/// The crash policy of the journaled runtimes. Each ManagerCrash discards
/// the dead manager and its allocator (both die with the process they
/// model), rebuilds a fresh pair from storage (rebuild_from_log), rotates a
/// post-recovery snapshot in (coming back degraded if the disk still
/// fails), restarts a manager recovered to before its start, and re-arms.
class RebuildFromLog final : public CrashPolicy {
 public:
  using CrashPolicy::CrashPolicy;

  std::size_t recover(core::recovery::ManagerCrashPoint point,
                      ProtocolDrive& drive) override;
};

/// ProtocolRuntime's crash-safe sibling: the same in-process deployment (N
/// WorkerAgents over optionally faulty links) under RebuildFromLog.
/// Workers, links and in-flight messages survive a manager crash, exactly
/// like real workers outliving a manager node: re-dispatched
/// attempts are deduplicated by attempt id, results sent before the crash
/// are accepted exactly once, and workers that died while the manager was
/// down fall into the normal silence/backoff/quarantine machinery.
///
/// With a loss-free crash schedule (kLossFreeCrashPoints) the run is
/// bit-for-bit identical to the same configuration with an empty schedule —
/// state_fingerprint equality is the headline assertion of
/// bench/recovery_chaos and tests/test_recovery_manager.
class RecoverableProtocolRuntime {
 public:
  using AllocatorFactory = proto::AllocatorFactory;

  RecoverableProtocolRuntime(std::span<const core::TaskSpec> tasks,
                             AllocatorFactory make_allocator,
                             std::size_t num_workers,
                             core::ResourceVector worker_capacity,
                             const ChaosConfig& chaos,
                             core::recovery::Storage& storage,
                             core::recovery::RecoveryConfig recovery = {},
                             core::recovery::CrashSchedule crashes = {});

  /// Runs to completion (see ProtocolDrive for the stall rule). Scheduled
  /// crashes that never fire (points not reached before the run finished)
  /// are simply left pending.
  RecoveryRunResult run(std::size_t max_rounds = 1000000);

  const core::RecoveryCounters& recovery_counters() const noexcept {
    return rebuild_.counters();
  }

  /// The primary's journal. Replication taps (core/replication's
  /// JournalShipper) attach their JournalObserver here before run().
  core::recovery::RecoveryLog& log() noexcept { return rebuild_.log(); }

 private:
  LinkTransport transport_;
  RebuildFromLog rebuild_;
  ProtocolDrive drive_;
};

}  // namespace tora::proto
