#include "proto/manager.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/exact_resources.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"

namespace tora::proto {

using core::ResourceKind;
using core::ResourceVector;
using core::recovery::ManagerCrashPoint;
using core::recovery::RecordType;

namespace {

/// Relative slack of the snapshot check on a worker's commitment.
constexpr double kCommitDust = 1e-9;

core::lifecycle::DispatchConfig dispatch_config(const LivenessConfig& cfg) {
  core::lifecycle::DispatchConfig dc;
  dc.max_allocation_failures = cfg.max_allocation_failures;
  // Significance stays the paper's default (task id + 1).
  return dc;
}

}  // namespace

ProtocolManager::ProtocolManager(std::span<const core::TaskSpec> tasks,
                                 core::TaskAllocator& allocator,
                                 std::vector<DuplexLinkPtr> links,
                                 LivenessConfig cfg)
    : ProtocolManager(std::vector<core::tenancy::TenantInput>{
                          {tasks, &allocator, core::tenancy::TenantSpec{}}},
                      std::move(links), cfg,
                      core::tenancy::make_arbiter("fifo")) {}

ProtocolManager::ProtocolManager(
    std::vector<core::tenancy::TenantInput> tenants,
    std::vector<DuplexLinkPtr> links, LivenessConfig cfg,
    std::unique_ptr<core::tenancy::Arbiter> arbiter)
    : links_(std::move(links)),
      cfg_(cfg),
      core_(std::move(tenants), dispatch_config(cfg), std::move(arbiter),
            *this),
      tasks_(core_.tasks()),
      proto_states_(core_.task_count()),
      quarantined_(links_.size(), 0),
      malformed_logged_(links_.size(), 0),
      bp_sample_(links_.size(), 0),
      deadlines_(cfg.resilience),
      reliability_(cfg.resilience),
      storms_(cfg.resilience),
      spec_(cfg.resilience, core::resilience::Speculation::Clock::Ticks,
            res_counters_) {
  cfg_.resilience.validate();
  for (const auto& link : links_) {
    if (!link) throw std::invalid_argument("ProtocolManager: null link");
  }
  index_.reset(links_.size());
}

void ProtocolManager::start() {
  if (started_) throw std::logic_error("ProtocolManager: started twice");
  started_ = true;
  if (journaling()) {
    // Audit the categories interned at construction, then the start marker
    // (replay re-runs core_.start() when it reads Started). Tenants occupy
    // disjoint global key ranges; at single-tenant the bytes are identical
    // to the pre-tenancy journal.
    for (core::tenancy::TenantId t = 0; t < core_.tenant_count(); ++t) {
      const core::TaskAllocator& alloc = core_.tenant_allocator(t);
      for (core::CategoryId id = 0; id < alloc.category_count(); ++id) {
        util::ByteWriter w;
        w.u32(static_cast<std::uint32_t>(core_.category_base(t)) + id);
        w.str(alloc.category_name(id));
        journal(RecordType::CategoryInterned, w.bytes());
      }
    }
    journal(RecordType::Started);
    journal_sync();
  }
  core_.start();
}

std::size_t ProtocolManager::pump() {
  // A deposed primary is inert: no tick, no drain, no timeouts, no
  // dispatches. Workers it still hears from re-home to the new primary via
  // forced-fresh handshakes; letting a zombie keep pumping would charge
  // phantom timeouts/evictions against them (split brain).
  if (fenced_) return 0;
  // Crash taxonomy (core/recovery/crash.hpp): every equality-safe point is
  // preceded by a journal sync covering everything this tick did so far, so
  // recovery replays to the exact pre-crash state and the interrupted
  // tick's remaining phases run exactly once.
  reach(ManagerCrashPoint::PumpBegin, tick_ + 1);
  retry_storage();
  ++tick_;
  if (journaling()) {
    util::ByteWriter w;
    w.u64(tick_);
    journal(RecordType::Tick, w.bytes());
  }
  std::size_t handled = 0;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    while (auto line = links_[i]->to_manager.poll()) {
      if (journaling()) {
        // Write-ahead: the line is journaled BEFORE it is handled. A crash
        // after the sync below can always re-derive its effects; the line
        // itself is gone from the channel either way.
        util::ByteWriter w;
        w.u32(static_cast<std::uint32_t>(i));
        w.str(*line);
        journal(RecordType::Input, w.bytes());
      }
      if (handle_line(i, *line)) ++handled;
    }
  }
  if (journaling()) {
    reach(ManagerCrashPoint::BeforeJournalSync, tick_);
    journal_sync();
  }
  reach(ManagerCrashPoint::AfterDrain, tick_);
  check_liveness();
  if (journaling()) {
    journal(RecordType::LivenessDone);
    journal_sync();
  }
  reach(ManagerCrashPoint::AfterLiveness, tick_);
  sample_backpressure();
  if (journaling() &&
      std::count(bp_sample_.begin(), bp_sample_.end(), 1) > 0) {
    // Transport state is outside the journal's deterministic universe, so
    // the observation itself becomes an input record. The all-clear case
    // stays implicit: a Tick with no Backpressure record replays as zeros.
    util::ByteWriter w;
    std::uint32_t count = 0;
    for (char b : bp_sample_) count += b != 0;
    w.u32(count);
    for (std::size_t i = 0; i < bp_sample_.size(); ++i) {
      if (bp_sample_[i]) w.u32(static_cast<std::uint32_t>(i));
    }
    journal(RecordType::Backpressure, w.bytes());
  }
  dispatch_queued();
  if (journaling()) {
    journal(RecordType::DispatchDone);
    journal_sync();
  }
  reach(ManagerCrashPoint::PumpEnd, tick_);
  maybe_snapshot();
  return handled;
}

bool ProtocolManager::handle_line(std::size_t link_index,
                                  const std::string& line) {
  const auto msg = decode(line);
  // A worker capacity the registry cannot account for (a dimension above
  // the exact totals' per-worker bound, which the simulator puts on every
  // worker) is refused like a line that does not decode: it neither
  // registers nor updates the worker.
  const bool announces = msg && (msg->type == MsgType::WorkerReady ||
                                 msg->type == MsgType::Heartbeat);
  if (!msg || (announces && !core::ExactResources::holds(msg->resources))) {
    note_malformed(link_index, line);
    return false;
  }
  if (msg->type == MsgType::Heartbeat) {
    // Liveness traffic, not workflow progress: callers use pump()'s
    // return value to detect stalls, so heartbeats stay uncounted.
    ++chaos_.heartbeats;
    on_announce(*msg);
    return false;
  }
  touch(msg->worker_id);
  handle(*msg);
  return true;
}

void ProtocolManager::note_malformed(std::size_t link_index,
                                     const std::string& line) {
  ++chaos_.malformed_lines;
  if (!malformed_logged_[link_index]) {
    malformed_logged_[link_index] = 1;
    util::log_warn("manager: malformed line from worker ", link_index,
                   " (logged once per worker, counting continues): ", line);
  }
}

void ProtocolManager::touch(std::uint64_t worker_id) {
  auto it = workers_.find(worker_id);
  if (it != workers_.end()) it->second.last_seen_tick = tick_;
}

void ProtocolManager::on_announce(const Message& msg) {
  const bool ready = msg.type == MsgType::WorkerReady;
  // Worker ids equal link indices (the runtime assigns both); an
  // announcement from an unknown id is a protocol violation.
  if (msg.worker_id >= links_.size()) {
    util::log_warn("manager: ", ready ? "ready" : "heartbeat",
                   " from unknown worker ", msg.worker_id);
    return;
  }
  if (is_quarantined(msg.worker_id)) return;
  if (auto it = workers_.find(msg.worker_id); it != workers_.end()) {
    it->second.last_seen_tick = tick_;
    if (ready) {
      // A duplicated announcement must not reset `committed`, or the
      // manager would over-admit against the phantom free capacity.
      it->second.capacity = msg.resources;
      refresh(msg.worker_id, it->second);
    }
    return;
  }
  // A heartbeat carries capacity exactly for this case: a worker whose
  // announcement was lost, or one spuriously declared dead, re-registers
  // without a round-trip. A convicted worker whose sentence elapsed
  // re-registers too — on probation until it delivers a result.
  if (cfg_.resilience.reliability &&
      reliability_.probationary(msg.worker_id, static_cast<double>(tick_))) {
    ++res_counters_.probation_admissions;
  }
  WorkerState ws;
  ws.capacity = msg.resources;
  ws.link = links_[msg.worker_id];
  ws.last_seen_tick = tick_;
  add_worker(msg.worker_id, std::move(ws));
}

void ProtocolManager::add_worker(std::uint64_t wid, WorkerState ws) {
  WorkerState& slot = workers_[wid];
  slot = std::move(ws);
  refresh(wid, slot);
}

ProtocolManager::WorkerState& ProtocolManager::bind(
    std::uint64_t wid, const ResourceVector& alloc) {
  WorkerState& ws = workers_.at(wid);
  ws.committed += alloc;
  refresh(wid, ws);
  return ws;
}

ProtocolManager::WorkerState* ProtocolManager::release(
    std::uint64_t wid, const ResourceVector& alloc) {
  const auto it = workers_.find(wid);
  if (it == workers_.end()) return nullptr;
  it->second.committed -= alloc;
  refresh(wid, it->second);
  return &it->second;
}

void ProtocolManager::refresh(std::uint64_t wid, const WorkerState& ws) {
  index_.set(wid, ws.capacity - ws.committed);
}

void ProtocolManager::handle(const Message& msg) {
  switch (msg.type) {
    case MsgType::WorkerReady:
      on_announce(msg);
      break;
    case MsgType::TaskResult:
      on_result(msg);
      break;
    case MsgType::Evict: {
      // Requeue with the same allocation; not charged to the algorithm
      // (the eviction ledger, scale 1 per lost attempt).
      if (msg.task_id < core_.task_count() &&
          core_.entry(msg.task_id).phase ==
              core::lifecycle::TaskPhase::Running) {
        const auto& entry = core_.entry(msg.task_id);
        const double now = static_cast<double>(tick_);
        const core::resilience::Duplicate* copy = spec_.find(msg.task_id);
        if (copy && msg.worker_id == copy->worker) {
          // Only the speculative duplicate was evicted: the insurance
          // premium, not the ledger; the primary attempt is untouched.
          spec_.duplicate_lost(*this, msg.task_id, now);
          break;
        }
        release(entry.running_on, entry.alloc);
        ++chaos_.protocol_evictions;
        ++chaos_.redispatches;
        core_.charge_eviction(msg.task_id, 1.0);
        storms_.on_eviction(now);
        if (cfg_.resilience.reliability) {
          reliability_.on_offense(entry.running_on);
        }
        // A duplicate alive elsewhere takes over as the primary attempt: no
        // requeue, the eviction charge above is the only cost of the
        // handover.
        if (!spec_.primary_lost(*this, msg.task_id, now)) {
          core_.requeue_front(msg.task_id);
        }
      }
      break;
    }
    default:
      util::log_warn("manager: unexpected message type");
      break;
  }
}

void ProtocolManager::on_result(const Message& msg) {
  if (msg.task_id >= core_.task_count()) {
    util::log_warn("manager: result for unknown task ", msg.task_id);
    return;
  }
  const auto& entry = core_.entry(msg.task_id);
  ProtoTaskState& st = proto_states_[msg.task_id];
  const double now = static_cast<double>(tick_);
  // Idempotency gate: accept a result only for the attempt currently in
  // flight, from the worker it was dispatched to — or from its speculative
  // duplicate (same attempt id, different worker). Anything else is a
  // duplicate delivery or a report for an attempt already abandoned —
  // crediting it would double-charge WasteAccounting.
  const bool current = entry.phase == core::lifecycle::TaskPhase::Running &&
                       msg.attempt == entry.attempts;
  const bool from_primary = current && entry.running_on == msg.worker_id;
  const core::resilience::Duplicate* copy = spec_.find(msg.task_id);
  const bool from_duplicate =
      current && !from_primary && copy && copy->worker == msg.worker_id;
  if (!from_primary && !from_duplicate) {
    ++chaos_.stale_or_duplicate_results;
    return;
  }
  if (from_duplicate) {
    // First result wins: the duplicate beat the primary and is promoted.
    // The abandoned primary is speculative waste (never the eviction ledger
    // — nothing was evicted), and its late result will fail the gate above.
    spec_.duplicate_delivered(*this, msg.task_id, entry.running_on,
                              static_cast<double>(st.dispatch_tick), now);
  } else {
    // The primary won: a duplicate still in flight is cancelled (its
    // capacity frees now; its late result will be stale).
    spec_.primary_delivered(*this, msg.task_id, now);
  }
  if (WorkerState* ws = release(msg.worker_id, entry.alloc)) {
    ws->consecutive_failures = 0;
  }
  st.infra_failures = 0;
  if (cfg_.resilience.reliability) reliability_.on_success(msg.worker_id);

  if (msg.outcome == Outcome::Success) {
    // Feed the deadline histogram with the observable attempt duration in
    // the manager's clock unit — pump ticks from dispatch to result — not
    // the worker-reported model seconds, which the tick-based deadline and
    // straggler windows could not be compared against. Successful attempts
    // only: failures end early and would skew the quantiles down.
    if (cfg_.resilience.deadlines || cfg_.resilience.speculation) {
      deadlines_.observe(core_.category_of(msg.task_id),
                         static_cast<double>(tick_ - st.dispatch_tick));
    }
    // The worker-measured peak and runtime feed the shared machine, which
    // handles accounting, the allocator record, and dependent release.
    core_.complete(msg.task_id, msg.resources, msg.runtime_s);
    return;
  }

  // Resource exhaustion: the shared machine logs the failed attempt,
  // spends the fatal budget (only allocation-induced failures do —
  // infrastructure retries never), and escalates the exceeded dimensions.
  core_.fail_attempt(msg.task_id, msg.runtime_s, msg.exceeded_mask);
}

void ProtocolManager::check_liveness() {
  // Advance the storm window first so degraded mode can exit on a quiet
  // tick, not only on the next eviction.
  storms_.update(static_cast<double>(tick_));

  // Silence deaths first: a worker whose heartbeats stopped takes all its
  // in-flight tasks with it, and those are evictions, not timeouts.
  std::vector<std::uint64_t> dead;
  for (const auto& [wid, ws] : workers_) {
    if (tick_ - ws.last_seen_tick > cfg_.silence_ticks) dead.push_back(wid);
  }
  for (std::uint64_t wid : dead) {
    ++chaos_.workers_declared_dead;
    util::log_info("manager: worker ", wid, " silent beyond ",
                   cfg_.silence_ticks, " ticks, declaring dead");
    if (cfg_.resilience.reliability) reliability_.on_offense(wid);
    remove_worker(wid, false);
  }

  // Attempt timeouts: the worker still heartbeats but this attempt's
  // dispatch or result went missing. Abandon the attempt (its id is now
  // stale, so a late result is rejected) and redispatch under backoff. A
  // worker that keeps timing out is quarantined — that is the only way to
  // detect a one-way severed manager->worker link. With the resilience
  // layer on, the one-size-fits-all window is replaced by the category's
  // histogram-derived deadline once it has evidence, widened while a storm
  // rages (eviction storms make everything slow; timing the pool out on
  // top of it only amplifies the churn).
  const double widen =
      storms_.degraded() ? cfg_.resilience.degraded_deadline_widen : 1.0;
  const double now = static_cast<double>(tick_);
  for (std::size_t t = 0; t < core_.task_count(); ++t) {
    const auto& entry = core_.entry(t);
    if (entry.phase != core::lifecycle::TaskPhase::Running) continue;
    ProtoTaskState& st = proto_states_[t];
    double limit = static_cast<double>(cfg_.attempt_timeout_ticks) * widen;
    bool adaptive = false;
    if (cfg_.resilience.deadlines && deadlines_.adaptive(core_.category_of(t))) {
      limit = deadlines_.deadline(
          core_.category_of(t),
          static_cast<double>(cfg_.attempt_timeout_ticks), widen);
      adaptive = true;
    }
    const bool timed_out =
        static_cast<double>(tick_ - st.dispatch_tick) > limit;
    const core::resilience::Duplicate* copy = spec_.find(t);
    const bool spec_timed_out = copy && now - copy->start > limit;
    if (spec_timed_out && !timed_out) {
      // The duplicate hung while the primary is still within its window:
      // cancel it and penalize its worker like any other timeout.
      const std::uint64_t sw = copy->worker;
      ++chaos_.attempt_timeouts;
      spec_.duplicate_lost(*this, t, now);
      if (cfg_.resilience.reliability) reliability_.on_offense(sw);
      auto sit = workers_.find(sw);
      if (sit != workers_.end() &&
          ++sit->second.consecutive_failures >= cfg_.worker_failure_limit) {
        remove_worker(sw, true);
      }
      continue;
    }
    if (!timed_out) continue;
    ++chaos_.attempt_timeouts;
    if (adaptive) ++res_counters_.adaptive_deadlines_used;
    const std::uint64_t wid = entry.running_on;
    WorkerState* ws = release(wid, entry.alloc);
    if (cfg_.resilience.reliability) reliability_.on_offense(wid);
    // A duplicate that hung too is cancelled with the primary; a fresh one
    // becomes the primary instead of abandoning the attempt. Timeouts
    // charge neither ledger, exactly like the legacy path.
    if (spec_timed_out) spec_.duplicate_lost(*this, t, now);
    if (spec_.primary_lost(*this, t, now)) {
      ++chaos_.redispatches;
    } else {
      requeue_infra(t);
    }
    if (ws && ++ws->consecutive_failures >= cfg_.worker_failure_limit) {
      util::log_info("manager: worker ", wid, " hit ",
                     cfg_.worker_failure_limit,
                     " consecutive attempt timeouts, quarantining");
      remove_worker(wid, true);
    }
  }

  // Amnesty: banning the LAST workers leaves an unfinished workflow with no
  // pool and no way to rebuild one — heartbeats, the only re-registration
  // path, are dropped by the ban. Convicting the whole pool in one burst is
  // a symptom of systematically wrong evidence (e.g. a storage rollback
  // that turned every in-flight attempt into a zombie whose result can
  // never match), not of every link severing at once. Lift the permanent
  // bans and let the next heartbeat re-register; a genuinely broken worker
  // just earns its ban back. Runs during replay too (LivenessDone), so the
  // quarantine table stays deterministic across recovery.
  if (workers_.empty() && !core_.done() &&
      std::count(quarantined_.begin(), quarantined_.end(), 1) > 0) {
    for (char& q : quarantined_) q = 0;
    ++res_counters_.quarantine_amnesties;
    util::log_info("manager: no registerable workers left with unfinished ",
                   "tasks, lifting all quarantines");
  }
}

void ProtocolManager::requeue_infra(std::uint64_t task_id) {
  if (core_.entry(task_id).phase != core::lifecycle::TaskPhase::Running) {
    return;
  }
  core_.requeue_front(task_id);
  ++chaos_.redispatches;
  ProtoTaskState& st = proto_states_[task_id];
  ++st.infra_failures;
  const std::size_t shift =
      std::min<std::size_t>(st.infra_failures - 1, std::size_t{16});
  st.backoff_until =
      tick_ + std::min(cfg_.backoff_cap_ticks, cfg_.backoff_base_ticks << shift);
}

void ProtocolManager::remove_worker(std::uint64_t worker_id, bool quarantine) {
  const double now = static_cast<double>(tick_);
  for (std::size_t t = 0; t < core_.task_count(); ++t) {
    const auto& entry = core_.entry(t);
    if (entry.phase != core::lifecycle::TaskPhase::Running) continue;
    if (entry.running_on == worker_id) {
      // The attempt died with the worker: charge it as an eviction (the
      // allocation was fine, the infrastructure was not). A speculative
      // duplicate alive elsewhere takes over as the primary attempt instead
      // of a requeue; the handover itself costs nothing.
      ++chaos_.protocol_evictions;
      core_.charge_eviction(t, 1.0);
      storms_.on_eviction(now);
      if (spec_.primary_lost(*this, t, now)) {
        ++chaos_.redispatches;
      } else {
        requeue_infra(t);
      }
    } else if (const core::resilience::Duplicate* copy = spec_.find(t);
               copy && copy->worker == worker_id) {
      // Only the duplicate died with the worker: speculative waste, never
      // the eviction ledger — the primary attempt is untouched.
      spec_.duplicate_lost(*this, t, now);
    }
  }
  if (workers_.erase(worker_id) != 0) {
    index_.set(worker_id, core::lifecycle::PlacementIndex::kAbsent);
  }
  if (quarantine && worker_id < quarantined_.size()) {
    ++chaos_.workers_quarantined;
    if (cfg_.resilience.reliability) {
      // Probationary re-admission instead of a permanent flag: the sentence
      // doubles (sentence_growth) per prior conviction.
      if (reliability_.convictions(worker_id) > 0) {
        ++res_counters_.requarantines;
      }
      reliability_.quarantine(worker_id, static_cast<double>(tick_));
    } else {
      quarantined_[worker_id] = 1;
    }
  }
}

bool ProtocolManager::is_quarantined(std::uint64_t worker_id) const {
  if (worker_id < quarantined_.size() && quarantined_[worker_id]) return true;
  return cfg_.resilience.reliability &&
         reliability_.quarantined(worker_id, static_cast<double>(tick_));
}

std::size_t ProtocolManager::workers_quarantined() const {
  std::size_t n = 0;
  for (std::size_t w = 0; w < links_.size(); ++w) n += is_quarantined(w);
  return n;
}

std::size_t ProtocolManager::workers_backpressured() const noexcept {
  return static_cast<std::size_t>(
      std::count(bp_sample_.begin(), bp_sample_.end(), 1));
}

bool ProtocolManager::churn_evidence() const noexcept {
  return chaos_.protocol_evictions + chaos_.workers_declared_dead +
             chaos_.attempt_timeouts >
         0;
}

void ProtocolManager::sample_backpressure() {
  bp_sampled_this_tick_ = true;
  std::fill(bp_sample_.begin(), bp_sample_.end(), 0);
  for (const auto& [wid, ws] : workers_) {
    if (ws.link->to_worker.backpressured()) bp_sample_[wid] = 1;
  }
}

bool ProtocolManager::transport_overloaded() const noexcept {
  if (workers_.empty()) return false;
  const std::size_t pushed =
      static_cast<std::size_t>(std::count(bp_sample_.begin(),
                                          bp_sample_.end(), 1));
  return pushed > 0 && pushed * 2 >= workers_.size();
}

std::optional<std::uint64_t> ProtocolManager::place_worker(
    const ResourceVector& alloc, std::optional<std::uint64_t> exclude,
    bool* bp_blocked) const {
  // The index prunes on capacity - committed, the very limit fits_within
  // compares against, so it visits every fitting worker in id order; the
  // checks below still decide at each one.
  const auto fits = [&](std::uint64_t wid) {
    if (exclude && wid == *exclude) return false;
    const WorkerState& ws = workers_.at(wid);
    if (!alloc.fits_within(ws.capacity - ws.committed)) return false;
    if (wid < bp_sample_.size() && bp_sample_[wid]) {
      if (bp_blocked) *bp_blocked = true;
      return false;
    }
    return true;
  };
  if (!cfg_.resilience.reliability) {
    // First-fit against announced capacities (the legacy policy).
    if (const auto wid = index_.first_fit(alloc, fits)) return *wid;
    return std::nullopt;
  }
  // Reliability-aware: the most reliable non-probationary fit, ties to the
  // lowest id; probationary workers only as a last resort.
  std::optional<std::uint64_t> pick;
  double pick_score = -1.0;
  bool pick_probationary = true;
  const double now = static_cast<double>(tick_);
  index_.for_each_fit(alloc, [&](std::uint64_t wid) {
    if (!fits(wid)) return;
    const bool probationary = reliability_.probationary(wid, now);
    const double score = reliability_.score(wid);
    const bool better = !pick || (pick_probationary && !probationary) ||
                        (pick_probationary == probationary &&
                         score > pick_score);
    if (better) {
      pick = wid;
      pick_score = score;
      pick_probationary = probationary;
    }
  });
  return pick;
}

void ProtocolManager::dispatch_queued() {
  // Degraded-mode admission control: while a storm rages — or the
  // transport itself is drowning (half the links backpressured), or the
  // journal is read-only (storage degraded: a dispatch would be
  // unrecoverable if the manager died before the disk came back) — cap the
  // number of in-flight attempts; every dispatch into a collapsing pool or
  // a saturated pipe is likely eviction fodder / backlog fuel. Storage
  // degradation caps at ZERO: hold everything, keep serving what is
  // already in flight from memory. The cap and inflight() are sampled
  // once per pass; commit counts what the pass adds (the pass launches no
  // duplicate: maybe_speculate runs after it).
  gate_cap_.reset();
  gate_inflight_ = 0;
  if (storage_.degraded || storms_.degraded() || transport_overloaded()) {
    gate_cap_ = storage_.degraded ? 0 : cfg_.resilience.degraded_inflight_cap;
    gate_inflight_ = inflight();
  }
  core_.dispatch_pass(*this);
  maybe_speculate();
}

std::optional<std::uint64_t> ProtocolManager::place(
    std::uint64_t, const ResourceVector& alloc) {
  if (gate_cap_ && gate_inflight_ >= *gate_cap_) {
    ++res_counters_.dispatches_held;
    return std::nullopt;
  }
  // Placement query, no commit (see place_worker for the policy).
  bool bp_blocked = false;
  const auto wid = place_worker(alloc, std::nullopt, &bp_blocked);
  if (!wid && bp_blocked) {
    // Would have placed, but the chosen transport can't absorb more: the
    // task waits for the queue to drain below the low watermark.
    ++chaos_.dispatches_deferred_backpressure;
  }
  return wid;
}

void ProtocolManager::commit(std::uint64_t task_id, std::uint64_t wid,
                             const ResourceVector& alloc) {
  // The machine already stamped the attempt id (entry.attempts).
  send_dispatch(task_id, wid, alloc);
  proto_states_[task_id].dispatch_tick = tick_;
  ++gate_inflight_;
  // Counted even during replay: the crashed manager sent the message, so
  // the reconstructed counter must include it.
  ++dispatches_;
}

void ProtocolManager::send_dispatch(std::uint64_t task_id, std::uint64_t wid,
                                    const ResourceVector& alloc) {
  WorkerState& ws = bind(wid, alloc);
  if (replaying_) return;
  Message m;
  m.type = MsgType::TaskDispatch;
  m.worker_id = wid;
  m.task_id = task_id;
  m.attempt = core_.entry(task_id).attempts;
  m.category = tasks_[task_id].category;
  m.resources = alloc;
  ws.link->to_worker.send(encode(m));
}

bool ProtocolManager::may_place(const ResourceVector& floor) const {
  // While the gate is up, place may hold a probe and count it: keep
  // probing. Otherwise the index prunes on capacity - committed, the limit
  // place_worker checks, so a root that refuses the floor refuses every
  // queued task, backpressured links included.
  return gate_cap_.has_value() || index_.admits_any(floor);
}

bool ProtocolManager::defer(std::uint64_t task_id) {
  // Capped-exponential-backoff windows after infrastructure failures.
  return proto_states_[task_id].backoff_until > tick_;
}

ResourceVector ProtocolManager::pool_capacity() const {
  // The announced capacities of the live worker registry.
  ResourceVector total;
  for (const auto& [wid, ws] : workers_) total += ws.capacity;
  return total;
}

void ProtocolManager::maybe_speculate() {
  // The scan runs every tick; a calm run never spends a cycle on insurance.
  const bool degraded = storms_.degraded();
  const bool churn = churn_evidence();
  if (!spec_.armed(degraded, churn)) return;
  const double now = static_cast<double>(tick_);
  for (std::size_t t = 0; t < core_.task_count(); ++t) {
    const auto& entry = core_.entry(t);
    if (entry.phase != core::lifecycle::TaskPhase::Running) continue;
    const auto gate =
        spec_.gate(t, core_.category_of(t),
                   static_cast<double>(proto_states_[t].dispatch_tick), now,
                   degraded, churn, deadlines_);
    if (!gate.passed) continue;
    const auto wid = place_worker(entry.alloc, entry.running_on);
    if (!wid) continue;
    // The duplicate carries the SAME wire attempt id: whichever worker
    // answers first passes the idempotency gate, the other is stale.
    send_dispatch(t, *wid, entry.alloc);
    spec_.launch(t, *wid, now);
  }
}

// ------------------------------------------------------------- recovery

void ProtocolManager::attach_recovery(core::recovery::RecoveryLog* log,
                                      core::recovery::CrashMonitor* crashes,
                                      core::recovery::RecoveryConfig recovery,
                                      core::RecoveryCounters* counters) {
  log_ = log;
  crashes_ = crashes;
  recovery_cfg_ = recovery;
  recovery_counters_ = counters;
}

bool ProtocolManager::journaling() const noexcept {
  return log_ != nullptr && log_->writable() && !replaying_;
}

void ProtocolManager::journal(RecordType type, std::string_view payload) {
  // A degradation entry mid-phase (a sibling append failed a moment ago)
  // leaves later audit calls in the same phase running with the log closed:
  // stay quiet rather than hitting the closed-log logic_error.
  if (!log_->writable()) return;
  try {
    log_->append(type, payload);
  } catch (const core::recovery::StorageError&) {
    enter_storage_degraded();
  }
}

void ProtocolManager::journal_sync() {
  if (!log_->writable()) return;
  try {
    log_->sync();
  } catch (const core::recovery::StorageError&) {
    enter_storage_degraded();
  }
}

void ProtocolManager::enter_storage_degraded() {
  // The journal handle may hold a poisoned buffered tail; drop it. With the
  // log closed, writable() is false, so every journal site goes quiet until
  // a retry succeeds — the run keeps serving in-flight work from memory.
  log_->close();
  if (storage_.degraded) return;
  storage_.degraded = true;
  ++storage_.degraded_entries;
  storage_backoff_ =
      std::max<std::uint64_t>(1, recovery_cfg_.storage_retry_base_ticks);
  storage_retry_tick_ = tick_ + storage_backoff_;
}

void ProtocolManager::retry_storage() {
  // Runs before the tick counter advances: the tick about to run is
  // tick_ + 1.
  if (!storage_.degraded || tick_ + 1 < storage_retry_tick_) return;
  try {
    // Optimistically mark the exit first: a successful rotate seals this
    // very state as the snapshot, so the durable record already reflects a
    // healthy manager (entries == exits in every snapshot ever written).
    storage_.degraded = false;
    ++storage_.degraded_exits;
    log_->rotate(snapshot_body(), tick_);
  } catch (const core::recovery::StorageError&) {
    storage_.degraded = true;
    --storage_.degraded_exits;
    ++storage_.retry_failures;
    log_->close();
    const std::uint64_t cap =
        std::max<std::uint64_t>(1, recovery_cfg_.storage_retry_cap_ticks);
    storage_backoff_ = std::min(storage_backoff_ * 2, cap);
    storage_retry_tick_ = tick_ + 1 + storage_backoff_;
  }
}

void ProtocolManager::note_storage_failure() {
  if (!log_) return;
  enter_storage_degraded();
}

void ProtocolManager::reach(ManagerCrashPoint point, std::uint64_t tick) {
  if (crashes_) crashes_->reach(point, tick);
}

void ProtocolManager::maybe_snapshot() {
  if (!journaling() || recovery_cfg_.snapshot_every_ticks == 0) return;
  if (tick_ % recovery_cfg_.snapshot_every_ticks != 0) return;
  try {
    log_->rotate(snapshot_body(), tick_);
  } catch (const core::recovery::StorageError&) {
    enter_storage_degraded();
  }
}

void ProtocolManager::task_fatal(std::uint64_t task_id) {
  if (!journaling()) return;
  util::ByteWriter w;
  w.u64(task_id);
  journal(RecordType::TaskFatal, w.bytes());
}

void ProtocolManager::allocation_committed(std::uint64_t task_id,
                                           const ResourceVector& alloc,
                                           bool is_retry) {
  if (!journaling()) return;
  util::ByteWriter w;
  w.u64(task_id);
  for (ResourceKind k : core::kAllResources) w.f64(alloc[k]);
  w.u8(is_retry ? 1 : 0);
  journal(RecordType::AllocationCommitted, w.bytes());
}

void ProtocolManager::task_dispatched(std::uint64_t task_id,
                                      std::uint64_t worker,
                                      std::uint32_t attempt) {
  if (!journaling()) return;
  util::ByteWriter w;
  w.u64(task_id);
  w.u64(worker);
  w.u64(attempt);
  journal(RecordType::TaskDispatched, w.bytes());
}

void ProtocolManager::task_completed(std::uint64_t task_id,
                                     const ResourceVector& measured_peak,
                                     double runtime_s) {
  if (!journaling()) return;
  util::ByteWriter w;
  w.u64(task_id);
  for (ResourceKind k : core::kAllResources) w.f64(measured_peak[k]);
  w.f64(runtime_s);
  journal(RecordType::TaskCompleted, w.bytes());
}

void ProtocolManager::task_failed_attempt(std::uint64_t task_id,
                                          double runtime_s,
                                          unsigned exceeded_mask,
                                          bool requeued) {
  if (!journaling()) return;
  util::ByteWriter w;
  w.u64(task_id);
  w.f64(runtime_s);
  w.u32(exceeded_mask);
  w.u8(requeued ? 1 : 0);
  journal(RecordType::TaskAttemptFailed, w.bytes());
}

void ProtocolManager::task_requeued(std::uint64_t task_id) {
  if (!journaling()) return;
  util::ByteWriter w;
  w.u64(task_id);
  journal(RecordType::TaskRequeued, w.bytes());
}

void ProtocolManager::task_evicted(std::uint64_t task_id, double scale) {
  if (!journaling()) return;
  util::ByteWriter w;
  w.u64(task_id);
  w.f64(scale);
  journal(RecordType::TaskEvicted, w.bytes());
}

void ProtocolManager::after_load() {
  // Snapshots are only written by successful rotations, so the restored
  // manager is healthy by construction; only the counters carry over.
  storage_.degraded = false;
  fenced_ = false;
  std::map<std::uint64_t, WorkerState> decoded = std::move(workers_);
  workers_.clear();
  index_.reset(links_.size());
  for (auto& [wid, ws] : decoded) {
    if (wid >= links_.size()) {
      throw core::SnapshotError(
          "ProtocolManager", "workers",
          "id " + std::to_string(wid) +
              " is beyond the link table (snapshot from a different "
              "deployment?)");
    }
    // >= 0, not > 0: the wire lets a worker announce a zero dimension,
    // and a restore must accept every registry the live manager holds (and
    // nothing it refuses on the wire).
    if (!core::ExactResources::holds(ws.capacity)) {
      throw core::SnapshotError("ManagerWorker", "capacity",
                                "must be within [0, 2^40]");
    }
    for (ResourceKind k : core::kManagedResources) {
      const double cap = ws.capacity[k];
      // Releases subtract without clamping, so a fully released worker can
      // keep a few ulps of dust on either side of zero. The check is
      // negated so that NaN fails too.
      if (!(ws.committed[k] >= -cap * kCommitDust &&
            ws.committed[k] <= cap * (1.0 + kCommitDust))) {
        throw core::SnapshotError("ManagerWorker", "committed",
                                  "must be finite and within [0, capacity]");
      }
    }
    // Links are rebound by position: worker ids equal link indices, and the
    // links (with their in-flight messages) survive the manager crash.
    ws.link = links_[wid];
    add_worker(wid, std::move(ws));
  }
  spec_.check_table([this](std::uint64_t task_id,
                           const core::resilience::Duplicate& copy) {
    return task_id < core_.task_count() &&
           core_.entry(task_id).phase == core::lifecycle::TaskPhase::Running &&
           copy.worker != core_.entry(task_id).running_on &&
           registered(copy.worker) && copy.start <= static_cast<double>(tick_);
  });
}

void ProtocolManager::begin_replay(
    const std::optional<std::string>& snapshot) {
  if (started_ || tick_ != 0) {
    throw std::logic_error(
        "ProtocolManager::begin_replay: manager must be freshly constructed");
  }
  if (snapshot) core::snapshot::from_bytes(*snapshot, *this);
  // Replay applies journal records through the real handlers with sends
  // suppressed: every state transition re-derives exactly (the inputs are
  // the only nondeterminism), while the wire stays untouched — the channels
  // still hold whatever was in flight at the crash. A hot standby lives in
  // this mode for its whole pre-promotion life.
  replaying_ = true;
  replay_liveness_pending_ = false;
  replay_dispatch_pending_ = false;
  replay_handled_ = 0;
}

namespace {

/// One journal record's payload, read field by field. A short payload,
/// trailing bytes or a field the replay cannot apply refuse the record
/// with a typed StorageError (EBADMSG, op Salvage, naming the record type),
/// like every other salvage refusal.
class RecordPayload {
 public:
  explicit RecordPayload(const core::recovery::JournalRecord& rec)
      : rec_(rec) {}

  std::uint32_t u32() {
    need(4);
    util::ByteReader r(std::string_view(rec_.payload).substr(pos_, 4));
    pos_ += 4;
    return r.u32();
  }
  std::uint64_t u64() {
    need(8);
    util::ByteReader r(std::string_view(rec_.payload).substr(pos_, 8));
    pos_ += 8;
    return r.u64();
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string out = rec_.payload.substr(pos_, n);
    pos_ += n;
    return out;
  }
  /// Refuses a payload with bytes left over.
  void end() const {
    if (pos_ != rec_.payload.size()) refuse("trailing bytes in the payload");
  }

  [[noreturn]] void refuse(const std::string& why) const {
    throw core::recovery::StorageError(
        EBADMSG, core::recovery::StorageOp::Salvage,
        std::string("journal ") + core::recovery::to_string(rec_.type) +
            " record",
        why);
  }

 private:
  void need(std::size_t n) const {
    if (rec_.payload.size() - pos_ < n) refuse("payload too short");
  }

  const core::recovery::JournalRecord& rec_;
  std::size_t pos_ = 0;
};

}  // namespace

void ProtocolManager::replay_record(
    const core::recovery::JournalRecord& rec) {
  if (recovery_counters_) ++recovery_counters_->records_replayed;
  try {
    apply_record(rec);
  } catch (const core::recovery::StorageError&) {
    replaying_ = false;
    throw;
  }
}

void ProtocolManager::apply_record(const core::recovery::JournalRecord& rec) {
  RecordPayload p(rec);
  switch (rec.type) {
    case RecordType::Epoch:
      break;
    case RecordType::Started:
      started_ = true;
      core_.start();
      break;
    case RecordType::Tick: {
      const std::uint64_t tick = p.u64();
      p.end();
      if (tick != tick_ + 1) p.refuse("tick out of sequence");
      ++tick_;
      replay_liveness_pending_ = true;
      replay_dispatch_pending_ = true;
      replay_handled_ = 0;
      // A fresh tick starts with an all-clear sample; a Backpressure
      // record below overrides it if the crashed manager observed one.
      std::fill(bp_sample_.begin(), bp_sample_.end(), 0);
      bp_sampled_this_tick_ = false;
      if (recovery_counters_) ++recovery_counters_->ticks_replayed;
      break;
    }
    case RecordType::Input: {
      const std::uint32_t link = p.u32();
      const std::string line = p.str();
      p.end();
      if (link >= links_.size()) p.refuse("input from an unknown link");
      if (handle_line(link, line)) ++replay_handled_;
      if (recovery_counters_) ++recovery_counters_->inputs_replayed;
      break;
    }
    case RecordType::LivenessDone:
      check_liveness();
      replay_liveness_pending_ = false;
      break;
    case RecordType::Backpressure: {
      std::vector<char> sample(bp_sample_.size(), 0);
      const std::uint32_t count = p.u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t link = p.u32();
        if (link >= sample.size()) {
          p.refuse("backpressure sample beyond the link table");
        }
        sample[link] = 1;
      }
      p.end();
      std::copy(sample.begin(), sample.end(), bp_sample_.begin());
      bp_sampled_this_tick_ = true;
      break;
    }
    case RecordType::DispatchDone:
      dispatch_queued();
      replay_dispatch_pending_ = false;
      break;
    case RecordType::TermBump:
      term_ = p.u64();
      p.end();
      break;
    case RecordType::CategoryInterned:
    case RecordType::TaskSubmitted:
    case RecordType::AllocationCommitted:
    case RecordType::TaskDispatched:
    case RecordType::TaskCompleted:
    case RecordType::TaskAttemptFailed:
    case RecordType::TaskRequeued:
    case RecordType::TaskEvicted:
    case RecordType::TaskFatal:
      // Lifecycle audit records: the same state change re-derives from
      // the input replay above; re-applying would double it.
      break;
  }
}

std::size_t ProtocolManager::finish_replay() {
  replaying_ = false;

  // Finish the interrupted tick. A phase with no completion marker never
  // ran before the crash (or, on a promoted standby, before the primary
  // died), so it runs here exactly once — with sends ENABLED, because its
  // messages never reached the wire.
  if (replay_liveness_pending_) check_liveness();
  replay_liveness_pending_ = false;
  if (replay_dispatch_pending_) {
    // The journaled sample (if the crashed manager got that far) wins; a
    // phase that never sampled observes the live transport now, exactly as
    // the interrupted tick would have.
    if (!bp_sampled_this_tick_) sample_backpressure();
    dispatch_queued();
  }
  replay_dispatch_pending_ = false;
  return replay_handled_;
}

std::size_t ProtocolManager::recover(
    const core::recovery::RecoveryLog::ScanResult& scan) {
  begin_replay(scan.snapshot);
  for (const core::recovery::JournalRecord& rec : scan.tail) {
    replay_record(rec);
  }
  return finish_replay();
}

void ProtocolManager::bump_term() {
  ++term_;
  if (journaling()) {
    util::ByteWriter w;
    w.u64(term_);
    journal(RecordType::TermBump, w.bytes());
    journal_sync();
  }
}

void ProtocolManager::shutdown_workers() {
  for (auto& [wid, ws] : workers_) {
    Message m;
    m.type = MsgType::Shutdown;
    m.worker_id = wid;
    ws.link->to_worker.send(encode(m));
  }
}

RebuiltManager rebuild_from_log(core::recovery::RecoveryLog& log,
                                std::span<const core::TaskSpec> tasks,
                                const AllocatorFactory& make_allocator,
                                const std::vector<DuplexLinkPtr>& links,
                                const LivenessConfig& liveness,
                                core::recovery::CrashMonitor* crashes,
                                core::recovery::RecoveryConfig recovery,
                                core::RecoveryCounters* counters) {
  const core::recovery::RecoveryLog::ScanResult scan = log.scan();
  RebuiltManager rebuilt;
  rebuilt.allocator = make_allocator();
  rebuilt.manager = std::make_unique<ProtocolManager>(
      tasks, *rebuilt.allocator, links, liveness);
  rebuilt.manager->attach_recovery(&log, crashes, recovery, counters);
  rebuilt.handled = rebuilt.manager->recover(scan);
  log.adopt_epoch(scan.epoch);
  return rebuilt;
}

// ---------------------------------------------------------------- runtime

ProtocolRuntime::ProtocolRuntime(std::span<const core::TaskSpec> tasks,
                                 core::TaskAllocator& allocator,
                                 std::size_t num_workers,
                                 core::ResourceVector worker_capacity,
                                 const ChaosConfig& chaos)
    : transport_(num_workers, chaos),
      drive_(transport_, nullptr,
             {nullptr, std::make_unique<ProtocolManager>(
                           tasks, allocator, transport_.links(),
                           chaos.liveness)},
             worker_capacity, chaos) {}

ProtocolRuntime::ProtocolRuntime(
    std::vector<core::tenancy::TenantInput> tenants,
    std::unique_ptr<core::tenancy::Arbiter> arbiter, std::size_t num_workers,
    core::ResourceVector worker_capacity, const ChaosConfig& chaos)
    : transport_(num_workers, chaos),
      drive_(transport_, nullptr,
             {nullptr, std::make_unique<ProtocolManager>(
                           std::move(tenants), transport_.links(),
                           chaos.liveness, std::move(arbiter))},
             worker_capacity, chaos) {}

ProtocolRunResult ProtocolRuntime::run(std::size_t max_rounds) {
  ProtocolRunResult result;
  drive_.run(max_rounds, result);
  return result;
}

}  // namespace tora::proto
