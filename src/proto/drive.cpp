#include "proto/drive.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/lifecycle/dispatch_core.hpp"
#include "proto/manager.hpp"
#include "proto/recovery_runtime.hpp"
#include "util/rng.hpp"

namespace tora::proto {

// ------------------------------------------------------------ stall report

std::string StallReport::to_string() const {
  std::ostringstream os;
  os << "no progress after " << rounds << " rounds: unfinished tasks "
     << pending << " pending, " << queued << " queued, " << running
     << " running; workers " << workers_registered << " registered, "
     << workers_quarantined << " quarantined, " << workers_backpressured
     << " backpressured; agents crashed " << agents_crashed;
  if (sockets) {
    os << "; endpoints " << endpoints_idle << " idle, "
       << endpoints_connecting << " connecting, " << endpoints_hello_sent
       << " hello sent, " << endpoints_established << " established, "
       << backoff_failed_connects.size() << " in backoff";
    if (!backoff_failed_connects.empty()) {
      os << " (failed connects";
      for (std::size_t n : backoff_failed_connects) os << " " << n;
      os << ")";
    }
  }
  os << "; storage " << (storage_degraded ? "degraded" : "healthy");
  return os.str();
}

StallError::StallError(StallReport report)
    : std::runtime_error(report.to_string()), report_(std::move(report)) {}

// ---------------------------------------------------------- in-process links

std::vector<DuplexLinkPtr> build_chaos_links(std::size_t num_workers,
                                             const ChaosConfig& chaos) {
  std::vector<DuplexLinkPtr> links;
  links.reserve(num_workers);
  util::Rng rng(chaos.seed);
  std::vector<char> severed(num_workers, 0);
  if (chaos.sever_workers > 0 && num_workers > 1) {
    // Cap at n-1 so at least one worker keeps both directions; the run
    // stays completable no matter how unlucky the draw.
    util::Rng pick = rng.split("sever");
    const std::size_t want = std::min(chaos.sever_workers, num_workers - 1);
    std::size_t chosen = 0;
    while (chosen < want) {
      const auto w = pick.uniform_int(0, num_workers - 1);
      if (!severed[w]) {
        severed[w] = 1;
        ++chosen;
      }
    }
  }
  for (std::size_t i = 0; i < num_workers; ++i) {
    FaultPlan to_worker = chaos.to_worker;
    FaultPlan to_manager = chaos.to_manager;
    if (severed[i]) {
      to_worker.sever_after_messages = chaos.sever_after_messages;
      to_manager.sever_after_messages = chaos.sever_after_messages;
    }
    if (to_worker.enabled() || to_manager.enabled()) {
      // Labeled splits: each channel gets a stream derived from (seed,
      // direction, worker), independent of construction order.
      const std::string tag = std::to_string(i);
      links.push_back(std::make_shared<DuplexLink>(
          std::make_unique<FaultyChannel>(to_worker,
                                          rng.split("to_worker/" + tag)),
          std::make_unique<FaultyChannel>(to_manager,
                                          rng.split("to_manager/" + tag))));
    } else {
      links.push_back(std::make_shared<DuplexLink>());
    }
  }
  return links;
}

LinkTransport::LinkTransport(std::size_t num_workers, const ChaosConfig& chaos)
    : links_(build_chaos_links(num_workers, chaos)) {}

void LinkTransport::harvest(ProtocolRunResult& result) const {
  for (const auto& link : links_) {
    result.messages +=
        link->to_worker.messages_sent() + link->to_manager.messages_sent();
    result.bytes +=
        link->to_worker.bytes_sent() + link->to_manager.bytes_sent();
    for (const Channel* ch : {&link->to_worker, &link->to_manager}) {
      if (const auto* fc = dynamic_cast<const FaultyChannel*>(ch)) {
        result.chaos.merge(fc->chaos());
      }
    }
  }
}

// -------------------------------------------------------------- drive loop

ProtocolDrive::ProtocolDrive(Transport& transport, CrashPolicy* crash,
                             ManagerSlot live, core::ResourceVector capacity,
                             const ChaosConfig& chaos)
    : transport_(transport), crash_(crash), live_(std::move(live)) {
  const std::size_t n = transport_.links().size();
  if (n == 0) throw std::invalid_argument("protocol runtime: no workers");
  agents_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const WorkerFaultConfig faults = i < chaos.worker_faults.size()
                                         ? chaos.worker_faults[i]
                                         : WorkerFaultConfig{};
    // Agents execute against the manager's global task table: the caller's
    // tasks, or the facade's composed copy when several tenants share the
    // pool (only ProtocolRuntime does, and it never replaces its manager).
    agents_.emplace_back(i, capacity, live_.manager->tenants().tasks(),
                         transport_.worker_link(i), faults);
  }
  // Quiet rounds are legitimate while a detection window runs: allow a
  // generous multiple of the longest chain before giving up.
  const LivenessConfig& lv = chaos.liveness;
  stall_limit_ =
      64 * (lv.silence_ticks + lv.attempt_timeout_ticks +
            lv.backoff_cap_ticks +
            (crash_ ? crash_->storage_retry_cap_ticks() : 0) +
            transport_.reconnect_backoff_cap() + 4);
}

ProtocolDrive::~ProtocolDrive() = default;

void ProtocolDrive::replace(ManagerSlot next) {
  // The old manager goes first: it refers to the old allocator.
  live_.manager = std::move(next.manager);
  live_.allocator = std::move(next.allocator);
}

std::size_t ProtocolDrive::pump_manager() {
  for (;;) {
    try {
      return live_.manager->pump();
    } catch (const core::recovery::ManagerCrash& crash) {
      if (!crash_) throw;
      transport_.manager_crashed();
      const std::size_t handled = crash_->recover(crash.point(), *this);
      // A PumpBegin crash died before the tick touched anything: the
      // successor re-runs the whole pump. Every other point died mid- or
      // post-tick, and recover() already finished that tick.
      if (crash.point() != core::recovery::ManagerCrashPoint::PumpBegin) {
        return handled;
      }
    }
  }
}

void ProtocolDrive::run(std::size_t max_rounds, ProtocolRunResult& result) {
  if (crash_) crash_->open(*live_.manager);
  for (auto& agent : agents_) agent.announce();
  transport_.flush();  // deliver the announcements
  live_.manager->start();
  std::size_t stalled = 0;
  for (result.rounds = 0; result.rounds < max_rounds; ++result.rounds) {
    transport_.begin_round(result.rounds);
    std::size_t progress = pump_manager();
    if (crash_) crash_->after_pump(*live_.manager);
    transport_.step();
    for (auto& agent : agents_) progress += agent.pump();
    transport_.step();
    if (live_.manager->done()) break;
    stalled = progress == 0 ? stalled + 1 : 0;
    if (stalled > stall_limit_) {
      throw StallError(stall_report(result.rounds + 1));
    }
  }
  if (!live_.manager->done()) {
    throw std::runtime_error("protocol runtime: round limit exceeded");
  }
  live_.manager->shutdown_workers();
  transport_.flush();
  for (auto& agent : agents_) agent.pump();

  const ProtocolManager& m = *live_.manager;
  result.accounting = m.accounting();
  result.tasks_completed = m.tasks_completed();
  result.tasks_fatal = m.tasks_fatal();
  result.chaos.merge(m.chaos());
  result.evicted_alloc = m.evicted_alloc();
  result.resilience = m.resilience();
  for (const auto& agent : agents_) result.chaos.merge(agent.chaos());
  transport_.harvest(result);
}

StallReport ProtocolDrive::stall_report(std::size_t rounds) const {
  const ProtocolManager& m = *live_.manager;
  StallReport report;
  report.rounds = rounds;
  using core::lifecycle::TaskPhase;
  for (std::size_t t = 0; t < m.tenants().task_count(); ++t) {
    const TaskPhase phase = m.tenants().entry(t).phase;
    report.pending += phase == TaskPhase::Pending;
    report.queued += phase == TaskPhase::Queued;
    report.running += phase == TaskPhase::Running;
  }
  report.workers_registered = m.workers_known();
  report.workers_quarantined = m.workers_quarantined();
  report.workers_backpressured = m.workers_backpressured();
  for (const auto& agent : agents_) report.agents_crashed += agent.crashed();
  report.storage_degraded = m.storage_health().degraded;
  transport_.describe(report);
  return report;
}

}  // namespace tora::proto
