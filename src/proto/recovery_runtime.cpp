#include "proto/recovery_runtime.hpp"

#include <stdexcept>
#include <utility>

namespace tora::proto {

CrashPolicy::CrashPolicy(std::span<const core::TaskSpec> tasks,
                         AllocatorFactory make_allocator,
                         LivenessConfig liveness,
                         core::recovery::Storage& storage,
                         core::recovery::RecoveryConfig recovery,
                         core::recovery::CrashSchedule crashes)
    : tasks_(tasks),
      make_allocator_(std::move(make_allocator)),
      liveness_(liveness),
      recovery_cfg_(recovery),
      storage_(&storage),
      monitor_(std::move(crashes), &counters_),
      log_(std::make_unique<core::recovery::RecoveryLog>(*storage_, &counters_,
                                                         &monitor_)) {}

ManagerSlot CrashPolicy::first_manager(
    const std::vector<DuplexLinkPtr>& links) {
  ManagerSlot slot;
  if (make_allocator_) slot.allocator = make_allocator_();
  if (!slot.allocator) {
    throw std::invalid_argument("CrashPolicy: the allocator factory is null");
  }
  slot.manager = std::make_unique<ProtocolManager>(tasks_, *slot.allocator,
                                                   links, liveness_);
  slot.manager->attach_recovery(log_.get(), &monitor_, recovery_cfg_,
                                &counters_);
  return slot;
}

void CrashPolicy::open(ProtocolManager& live) {
  try {
    log_->open_fresh();
  } catch (const core::recovery::StorageError&) {
    live.note_storage_failure();
  }
}

void CrashPolicy::seal(ProtocolManager& live) {
  try {
    log_->rotate(live.snapshot_body(), live.ticks());
  } catch (const core::recovery::StorageError&) {
    live.note_storage_failure();
  }
}

std::size_t RebuildFromLog::recover(core::recovery::ManagerCrashPoint,
                                    ProtocolDrive& drive) {
  monitor_.disarm();
  log_->close();
  storage_->on_crash();
  RebuiltManager rebuilt =
      rebuild_from_log(*log_, tasks_, make_allocator_, drive.links(),
                       liveness_, &monitor_, recovery_cfg_, &counters_);
  ProtocolManager& live = *rebuilt.manager;
  const std::size_t handled = rebuilt.handled;
  drive.replace(std::move(rebuilt));

  // Compact immediately: the old journal cannot be appended to (and the
  // interrupted tick's finish above was not journaled).
  seal(live);
  // A lying fsync can durably lose even the Started record; a manager
  // recovered to its pre-start state would otherwise idle forever (the
  // drive loop starts the manager only once).
  if (!live.started()) live.start();
  monitor_.arm();
  ++counters_.recoveries;
  return handled;
}

RecoverableProtocolRuntime::RecoverableProtocolRuntime(
    std::span<const core::TaskSpec> tasks, AllocatorFactory make_allocator,
    std::size_t num_workers, core::ResourceVector worker_capacity,
    const ChaosConfig& chaos, core::recovery::Storage& storage,
    core::recovery::RecoveryConfig recovery,
    core::recovery::CrashSchedule crashes)
    : transport_(num_workers, chaos),
      rebuild_(tasks, std::move(make_allocator), chaos.liveness, storage,
               recovery, std::move(crashes)),
      drive_(transport_, &rebuild_, rebuild_.first_manager(transport_.links()),
             worker_capacity, chaos) {}

RecoveryRunResult RecoverableProtocolRuntime::run(std::size_t max_rounds) {
  RecoveryRunResult result;
  drive_.run(max_rounds, result);
  rebuild_.harvest(drive_.manager(), result);
  return result;
}

}  // namespace tora::proto
