#include "proto/failover_runtime.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/lifecycle/dispatch_core.hpp"

namespace tora::proto {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// The warm in-memory image behind the standby's mirror disk: a real
/// ProtocolManager held in replay mode, fed every shipped record through
/// the real handlers (sends suppressed). Promotion calls finish_replay() on
/// it and takes ownership — the standby IS the next primary, no rebuild.
class ManagerApplier final : public core::replication::StandbyApplier {
 public:
  ManagerApplier(std::span<const core::TaskSpec> tasks,
                 const FailoverProtocolRuntime::AllocatorFactory& factory,
                 const std::vector<DuplexLinkPtr>& links,
                 LivenessConfig liveness, bool genesis)
      : tasks_(tasks), factory_(factory), links_(links), liveness_(liveness) {
    // A genesis standby pairs with a primary that has not journaled yet: it
    // can follow the stream from the very first record. A standby spawned
    // mid-run stays unseeded until the first shipped rotation rebases it.
    if (genesis) rebuild(std::nullopt);
  }

  void apply_record(const core::recovery::JournalRecord& rec) override {
    if (warm_.manager) warm_.manager->replay_record(rec);
  }

  std::optional<std::string> warm_body() override {
    if (!warm_.manager) return std::nullopt;
    return warm_.manager->snapshot_body();
  }

  void rebase(const std::string& body) override { rebuild(body); }

  bool seeded() const noexcept { return warm_.manager != nullptr; }
  ProtocolManager& manager() { return *warm_.manager; }

  /// Promotion handoff: the warm pair leaves the applier (which is about to
  /// die with its generation) and becomes the runtime's live manager.
  ManagerSlot take() { return std::move(warm_); }

 private:
  void rebuild(const std::optional<std::string>& snapshot) {
    warm_.allocator = factory_();
    warm_.manager = std::make_unique<ProtocolManager>(
        tasks_, *warm_.allocator, links_, liveness_);
    warm_.manager->begin_replay(snapshot);
  }

  std::span<const core::TaskSpec> tasks_;
  const FailoverProtocolRuntime::AllocatorFactory& factory_;
  const std::vector<DuplexLinkPtr>& links_;
  LivenessConfig liveness_;
  ManagerSlot warm_;
};

}  // namespace

/// One standby pairing: mirror disk, replication link (to_worker carries
/// the primary->standby stream, to_manager the acks and fences), warm
/// applier, replica, and the primary-side shipper tapping the live log.
/// Destroyed wholesale at failover; the mirror storage outlives it (owned
/// by the runtime) and becomes the promoted primary's disk.
struct FailoverProtocolRuntime::StandbyGeneration {
  core::recovery::MemStorage* mirror = nullptr;
  DuplexLinkPtr link;
  std::unique_ptr<ManagerApplier> applier;
  std::unique_ptr<core::replication::StandbyReplica> replica;
  std::unique_ptr<core::replication::JournalShipper> shipper;
};

FailoverProtocolRuntime::~FailoverProtocolRuntime() = default;

FailoverProtocolRuntime::FailoverProtocolRuntime(
    std::span<const core::TaskSpec> tasks, AllocatorFactory make_allocator,
    std::size_t num_workers, core::ResourceVector worker_capacity,
    const ChaosConfig& chaos, core::recovery::Storage& primary_storage,
    core::replication::ReplicationConfig replication,
    core::recovery::RecoveryConfig recovery,
    core::recovery::CrashSchedule crashes)
    : CrashPolicy(tasks, std::move(make_allocator), chaos.liveness,
                  primary_storage, recovery, std::move(crashes)),
      rep_cfg_(replication),
      transport_(num_workers, chaos),
      drive_(transport_, this, first_manager(transport_.links()),
             worker_capacity, chaos) {
  acked_completed_.assign(tasks_.size(), 0);
  spawn_standby(/*genesis=*/true);
}

void FailoverProtocolRuntime::spawn_standby(bool genesis) {
  auto gen = std::make_unique<StandbyGeneration>();
  mirrors_.push_back(std::make_unique<core::recovery::MemStorage>());
  gen->mirror = mirrors_.back().get();
  gen->link = std::make_shared<DuplexLink>();
  gen->applier = std::make_unique<ManagerApplier>(
      tasks_, make_allocator_, transport_.links(), liveness_, genesis);
  DuplexLink* link = gen->link.get();
  gen->replica = std::make_unique<core::replication::StandbyReplica>(
      *gen->mirror,
      [link](std::string f) { link->to_manager.send(std::move(f)); },
      [link] { return link->to_worker.poll(); }, gen->applier.get(),
      &rep_counters_);
  gen->shipper = std::make_unique<core::replication::JournalShipper>(
      rep_cfg_, [link](std::string f) { link->to_worker.send(std::move(f)); },
      [link] { return link->to_manager.poll(); }, &rep_counters_);
  // In-process deployment: the "network service" while a barrier blocks is
  // simply pumping the standby so it can durably apply and answer.
  core::replication::StandbyReplica* replica = gen->replica.get();
  gen->shipper->set_service([replica] { replica->pump(); });
  // A Fence on the ack channel deposes the manager that owns this shipper —
  // the manager current at spawn time, which IS the zombie by the time the
  // promoted standby sends one.
  ProtocolManager* owner = &drive_.manager();
  gen->shipper->set_on_fenced([owner](std::uint64_t) { owner->fence(); });
  standby_ = std::move(gen);
  log_->set_observer(standby_->shipper.get());
}

std::string FailoverProtocolRuntime::cold_rebuild_body(
    core::recovery::Storage& mirror) {
  // A throwaway crash-recovery over the mirror disk, exactly what a cold
  // restart on the standby node would run. Empty plain links: recover()'s
  // finishing phases may emit sends, which must not leak into the live
  // deployment's channels.
  core::recovery::RecoveryLog log(mirror, nullptr, nullptr);
  return rebuild_from_log(log, tasks_, make_allocator_,
                          build_chaos_links(transport_.links().size(), {}),
                          liveness_)
      .manager->snapshot_body();
}

void FailoverProtocolRuntime::note_acknowledged_completions(
    const ProtocolManager& live) {
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    if (live.tenants().entry(t).phase ==
        core::lifecycle::TaskPhase::Done) {
      acked_completed_[t] = 1;
    }
  }
}

std::size_t FailoverProtocolRuntime::failover(
    core::recovery::ManagerCrashPoint point) {
  const auto t0 = std::chrono::steady_clock::now();
  monitor_.disarm();

  // The dying primary's last words, for the full-tick leg of the oracle.
  const ProtocolManager& zombie = drive_.manager();
  const std::string crashed_body = zombie.snapshot_body();
  const bool crashed_degraded = zombie.storage_health().degraded_entries > 0;
  const bool shipper_lost = standby_->shipper->standby_lost();

  // Final drain: everything the primary shipped before dying is sitting in
  // the replication channel — the standby applies it all (commit mode only
  // governs how far BEHIND the primary could run, not what survives).
  const std::uint64_t shipped = standby_->shipper->shipped();
  const std::uint64_t pos_before = standby_->replica->position();
  standby_->replica->pump();
  if (!standby_->applier->seeded()) {
    throw std::runtime_error(
        "FailoverProtocolRuntime: primary died before its standby was ever "
        "seeded");
  }
  // The promoted node makes its inheritance durable before serving.
  if (standby_->replica->log().writable()) standby_->replica->log().sync();
  rep_counters_.records_behind_at_promotion +=
      static_cast<std::size_t>(shipped - pos_before);

  // Promote the warm image: run the interrupted tick's missing phases with
  // sends enabled (the dead primary never executed them — exactly-once).
  const std::size_t handled = standby_->applier->manager().finish_replay();
  ProtocolManager& promoted = standby_->applier->manager();
  const std::string promoted_body = promoted.snapshot_body();

  // Three-way fingerprint, leg 1 (always on): the warm image must equal a
  // cold crash-recovery from the mirror disk at the same journal offset.
  const auto cold_t0 = std::chrono::steady_clock::now();
  const std::string rebuilt_body = cold_rebuild_body(*standby_->mirror);
  const double cold_us = elapsed_us(cold_t0);
  cold_rebuild_us_.push_back(cold_us);
  if (promoted_body != rebuilt_body) {
    throw std::runtime_error(
        "FailoverProtocolRuntime: promoted standby diverged from "
        "crash-recovery rebuild of its own mirror disk");
  }
  // Leg 2 (full-tick barriers only): the promoted image must equal the
  // crashed primary's final state. Mid-tick points (AfterDrain,
  // AfterLiveness, BeforeJournalSync) legitimately differ — finish_replay
  // ran phases the primary never reached; a storage-degraded primary ran
  // unjournaled (hence unshipped) ticks; a lost standby stopped following.
  using P = core::recovery::ManagerCrashPoint;
  const bool full_tick = point == P::PumpBegin || point == P::PumpEnd ||
                         point == P::BeforeSnapshotRename ||
                         point == P::AfterSnapshotRename;
  if (full_tick && !crashed_degraded && !shipper_lost &&
      promoted_body != crashed_body) {
    throw std::runtime_error(
        "FailoverProtocolRuntime: promoted standby diverged from the "
        "crashed primary at a full-tick barrier");
  }

  // Split-brain fencing: the new term is claimed BEFORE the old primary
  // could ever be heard from again. The fence travels the replication ack
  // channel; the zombie learns it is deposed the moment it polls.
  const std::uint64_t new_term = promoted.term() + 1;
  standby_->replica->send_fence(new_term);
  standby_->shipper->poll_acks();
  if (!zombie.fenced()) {
    throw std::runtime_error(
        "FailoverProtocolRuntime: fence did not depose the old primary");
  }

  // Zero lost acknowledged results: every completion the old primary could
  // have externalized (standby fully caught up at the time) must survive.
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    if (acked_completed_[t] && promoted.tenants().entry(t).phase !=
                                   core::lifecycle::TaskPhase::Done) {
      throw std::runtime_error(
          "FailoverProtocolRuntime: promotion lost an acknowledged result");
    }
  }

  // Takeover: the mirror becomes the primary disk, the warm pair becomes
  // the live pair, the old generation (and the zombie) are discarded.
  const std::uint64_t epoch = standby_->replica->log().epoch();
  core::recovery::MemStorage* mirror = standby_->mirror;
  ManagerSlot warm = standby_->applier->take();
  standby_.reset();
  drive_.replace(std::move(warm));
  ProtocolManager& live = drive_.manager();
  storage_ = mirror;
  log_ = std::make_unique<core::recovery::RecoveryLog>(*storage_, &counters_,
                                                       &monitor_);
  log_->adopt_epoch(epoch);
  live.attach_recovery(log_.get(), &monitor_, recovery_cfg_, &counters_);

  // Spawn the next standby BEFORE the takeover rotation: the rotation then
  // both compacts the new primary's disk and ships the seeding snapshot.
  spawn_standby(/*genesis=*/false);
  seal(live);
  // The term bump is journaled AFTER the rotation sealed the promoted body:
  // the fresh journal replays TermBump, so a crash-recovery of the new
  // primary lands on the same term (and the new standby follows along).
  live.bump_term();
  if (live.term() != new_term) {
    throw std::runtime_error(
        "FailoverProtocolRuntime: promoted term does not match the fence");
  }
  if (!live.started()) live.start();
  monitor_.arm();

  ++failovers_;
  ++rep_counters_.promotions;
  // RTO excludes the cold-rebuild comparator — that run is the oracle (and
  // the contrast figure), not part of the promotion path.
  rto_us_.push_back(elapsed_us(t0) - cold_us);
  return handled;
}

std::size_t FailoverProtocolRuntime::recover(
    core::recovery::ManagerCrashPoint point, ProtocolDrive&) {
  return failover(point);
}

void FailoverProtocolRuntime::after_pump(ProtocolManager& live) {
  // Keep the standby current even between durability barriers (async
  // mode never blocks inside them while under the lag cap).
  standby_->replica->pump();
  standby_->shipper->poll_acks();
  if (standby_->shipper->acked() == standby_->shipper->shipped() &&
      !standby_->shipper->standby_lost()) {
    note_acknowledged_completions(live);
  }
}

FailoverRunResult FailoverProtocolRuntime::run(std::size_t max_rounds) {
  FailoverRunResult result;
  drive_.run(max_rounds, result);
  harvest(drive_.manager(), result);
  result.replication = rep_counters_;
  result.failovers = failovers_;
  result.final_term = drive_.manager().term();
  result.rto_us = rto_us_;
  result.cold_rebuild_us = cold_rebuild_us_;
  return result;
}

}  // namespace tora::proto
