#include "passes.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/recovery/crash.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/registry.hpp"
#include "exp/experiment.hpp"
#include "proto/manager.hpp"
#include "proto/message.hpp"
#include "proto/recovery_runtime.hpp"
#include "proto/worker_agent.hpp"
#include "sim/observer.hpp"
#include "sim/simulation.hpp"
#include "workloads/topeft.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace exp = tora::exp;
namespace sim = tora::sim;
namespace workloads = tora::workloads;

namespace {

constexpr std::array<core::ResourceKind, 3> kKinds = {
    core::ResourceKind::Cores, core::ResourceKind::MemoryMB,
    core::ResourceKind::DiskMB};

constexpr std::string_view kProtoPolicy = "exhaustive_bucketing";
constexpr std::size_t kProtoWorkers = 35;
constexpr std::size_t kSnapshotEveryTicks = 4;

// The churn seed, policy seed, pool and submission interval stay at the
// paper experiments' defaults; the benchmark's seed varies only the
// workload.
const exp::ExperimentConfig& config() {
  static const exp::ExperimentConfig cfg;
  return cfg;
}

/// Accumulates the wall time of the set-up and timed segments of a pass.
class Phases {
 public:
  explicit Phases(PassResult& r) : r_(r) {}
  template <typename F>
  decltype(auto) setup(F&& f) {
    return segment(r_.setup_s, std::forward<F>(f));
  }
  template <typename F>
  decltype(auto) run(F&& f) {
    return segment(r_.run_s, std::forward<F>(f));
  }

 private:
  template <typename F>
  static decltype(auto) segment(double& total, F&& f) {
    struct Guard {
      double& total;
      std::int64_t start;
      ~Guard() { total += 1e-9 * static_cast<double>(now_ns() - start); }
    } guard{total, now_ns()};
    return f();
  }
  PassResult& r_;
};

/// Opens a span only in a traced pass.
class MaybeSpan {
 public:
  MaybeSpan(TraceContext* trace, std::uint32_t TraceContext::*name) {
    if (trace) span_.emplace(trace->tracer, trace->*name);
  }

 private:
  std::optional<ScopedSpan> span_;
};

Cell make_cell(std::string label, std::size_t tasks, std::size_t completed,
               std::size_t fatal, const core::WasteAccounting& acc) {
  Cell c;
  c.label = std::move(label);
  c.tasks = tasks;
  c.completed = completed;
  c.fatal = fatal;
  c.accounting_ok = true;
  for (std::size_t i = 0; i < kKinds.size(); ++i) {
    const core::WasteBreakdown& b = acc.breakdown(kKinds[i]);
    const double parts =
        b.consumption + b.internal_fragmentation + b.failed_allocation;
    c.awe[i] = acc.awe(kKinds[i]);
    if (std::abs(b.allocation - parts) > 1e-9 * std::max(1.0, b.allocation) ||
        !(c.awe[i] >= 0.0 && c.awe[i] <= 1.0)) {
      c.accounting_ok = false;
    }
  }
  return c;
}

/// Counts attempts for sim.attempts / sim.failed_attempts.
class AttemptCounter final : public sim::SimObserver {
 public:
  void on_attempt_started(sim::SimTime, std::uint64_t, std::uint64_t,
                          const core::ResourceVector&) override {
    ++started;
  }
  void on_attempt_failed(sim::SimTime, std::uint64_t, unsigned) override {
    ++failed;
  }
  std::uint64_t started = 0;
  std::uint64_t failed = 0;
};

workloads::Workload generate(Workload w, std::string_view workflow,
                             std::uint64_t seed) {
  switch (w) {
    case Workload::PaperGrid:
      return workloads::make_workload(workflow, seed);
    case Workload::ProtoTopeft:
      return workloads::make_topeft(seed);
  }
  throw std::logic_error("unknown workload");
}

// One simulation cell: `workload` under `policy` on the paper's churning
// pool. The traced twin steps the Simulation with one span per step().
void sim_cell(const workloads::Workload& workload, std::string_view policy,
              TraceContext* trace, bool setup_only, PassResult& r,
              Phases& phases) {
  const exp::ExperimentConfig& cfg = config();
  std::optional<core::TaskAllocator> allocator;
  std::optional<sim::Simulation> simulation;
  phases.setup([&] {
    MaybeSpan span(trace, &TraceContext::setup_span);
    if (trace) {
      allocator.emplace(make_traced_allocator(policy, cfg.policy_seed,
                                              cfg.sim.worker_capacity,
                                              cfg.registry, trace->alloc));
    } else {
      allocator.emplace(core::make_allocator(
          policy, cfg.policy_seed, cfg.sim.worker_capacity, cfg.registry));
    }
    simulation.emplace(workload.tasks, *allocator, cfg.sim);
  });
  if (setup_only) return;

  sim::SimResult result;
  AttemptCounter attempts;
  if (trace) {
    simulation->set_observer(&attempts);
    phases.run([&] {
      ScopedSpan span(trace->tracer, trace->run_span);
      for (;;) {
        bool more = false;
        {
          ScopedSpan step(trace->tracer, trace->step_span);
          more = simulation->step();
        }
        trace->note_ready(simulation->core().ready_size());
        if (!more) break;
      }
    });
    result = simulation->result();
    trace->sim_events += result.events_processed;
    trace->sim_attempts += attempts.started;
    trace->sim_failed_attempts += attempts.failed;
    trace->sim_evictions += result.evictions;
  } else {
    phases.run([&] { result = simulation->run(); });
  }
  Cell c = make_cell(workload.name + "/" + std::string(policy),
                     workload.tasks.size(), result.tasks_completed,
                     result.tasks_fatal, result.accounting);
  c.makespan_s = result.makespan_s;
  c.events = result.events_processed;
  r.cells.push_back(std::move(c));
}

// The proto_topeft run as `tora proto` deploys it in process, with crash
// safety on: RecoverableProtocolRuntime journaling to MemStorage.
void proto_untraced(const workloads::Workload& workload, bool setup_only,
                    PassResult& r, Phases& phases) {
  const exp::ExperimentConfig& cfg = config();
  core::recovery::MemStorage storage;
  std::optional<proto::RecoverableProtocolRuntime> runtime;
  phases.setup([&] {
    core::recovery::RecoveryConfig recovery;
    recovery.snapshot_every_ticks = kSnapshotEveryTicks;
    runtime.emplace(
        workload.tasks,
        [&cfg] {
          return std::make_unique<core::TaskAllocator>(core::make_allocator(
              kProtoPolicy, cfg.policy_seed, cfg.sim.worker_capacity,
              cfg.registry));
        },
        kProtoWorkers, cfg.sim.worker_capacity, proto::ChaosConfig{}, storage,
        recovery);
  });
  if (setup_only) return;
  proto::RecoveryRunResult result;
  phases.run([&] { result = runtime->run(); });
  Cell c = make_cell(workload.name + "/" + std::string(kProtoPolicy),
                     workload.tasks.size(), result.tasks_completed,
                     result.tasks_fatal, result.accounting);
  c.fingerprint = std::move(result.state_fingerprint);
  r.cells.push_back(std::move(c));
}

// The traced twin of proto_untraced: the manager, agents, links and log
// assembled as RecoverableProtocolRuntime assembles them (crash monitor
// with an empty schedule included), with a timing Storage under the log,
// capturing channels on the links, a span per manager pump(), and timed
// agent pumps. Afterwards the captured wire lines are decoded and
// re-encoded to time the codec.
void proto_traced(const workloads::Workload& workload, TraceContext& trace,
                  bool setup_only, PassResult& r, Phases& phases) {
  const exp::ExperimentConfig& cfg = config();
  core::recovery::MemStorage mem;
  core::RecoveryCounters counters;
  std::vector<std::string> wire;
  std::optional<TimedStorage> storage;
  std::optional<core::recovery::CrashMonitor> monitor;
  std::optional<core::recovery::RecoveryLog> log;
  std::vector<proto::DuplexLinkPtr> links;
  std::vector<proto::WorkerAgent> agents;
  std::optional<core::TaskAllocator> allocator;
  std::optional<proto::ProtocolManager> manager;
  phases.setup([&] {
    ScopedSpan span(trace.tracer, trace.setup_span);
    storage.emplace(mem, trace.storage);
    monitor.emplace(core::recovery::CrashSchedule{}, &counters);
    log.emplace(*storage, &counters, &*monitor);
    wire.reserve(4 * workload.tasks.size());
    for (std::size_t i = 0; i < kProtoWorkers; ++i) {
      links.push_back(std::make_shared<proto::DuplexLink>(
          std::make_unique<CapturingChannel>(wire),
          std::make_unique<CapturingChannel>(wire)));
    }
    allocator.emplace(make_traced_allocator(kProtoPolicy, cfg.policy_seed,
                                            cfg.sim.worker_capacity,
                                            cfg.registry, trace.alloc));
    agents.reserve(kProtoWorkers);
    for (std::size_t i = 0; i < kProtoWorkers; ++i) {
      agents.emplace_back(i, cfg.sim.worker_capacity, workload.tasks,
                          links[i]);
    }
    manager.emplace(workload.tasks, *allocator, links,
                    proto::LivenessConfig{});
    core::recovery::RecoveryConfig recovery;
    recovery.snapshot_every_ticks = kSnapshotEveryTicks;
    manager->attach_recovery(&*log, &*monitor, recovery, &counters);
  });
  if (setup_only) return;

  phases.run([&] {
    ScopedSpan span(trace.tracer, trace.run_span);
    log->open_fresh();
    for (auto& agent : agents) agent.announce();
    manager->start();
    for (;;) {
      std::size_t progress = 0;
      {
        ScopedSpan pump(trace.tracer, trace.pump_span);
        progress = manager->pump();
      }
      trace.note_ready(manager->core().ready_size());
      for (auto& agent : agents) {
        progress += timed(trace.agent_pump, [&] { return agent.pump(); });
      }
      if (manager->done()) break;
      if (progress == 0) {
        throw std::runtime_error("proto_topeft: no progress with tasks left");
      }
    }
    manager->shutdown_workers();
    for (auto& agent : agents) {
      timed(trace.agent_pump, [&] { return agent.pump(); });
    }
  });

  Cell c = make_cell(workload.name + "/" + std::string(kProtoPolicy),
                     workload.tasks.size(), manager->tasks_completed(),
                     manager->tasks_fatal(), manager->accounting());
  c.fingerprint = manager->snapshot_body();
  r.cells.push_back(std::move(c));

  trace.mgr_dispatches += manager->dispatches_sent();
  for (const auto& link : links) {
    trace.wire_messages +=
        link->to_worker.messages_sent() + link->to_manager.messages_sent();
    trace.wire_bytes +=
        link->to_worker.bytes_sent() + link->to_manager.bytes_sent();
  }
  trace.recovery.merge(counters);

  // Codec replay: decode every captured line, then encode the messages.
  // Every line must decode and re-encode to itself.
  std::vector<proto::Message> decoded;
  decoded.reserve(wire.size());
  const std::int64_t t0 = now_ns();
  for (const std::string& line : wire) {
    if (auto m = proto::decode(line)) decoded.push_back(std::move(*m));
  }
  const std::int64_t t1 = now_ns();
  std::vector<std::string> encoded;
  encoded.reserve(decoded.size());
  for (const proto::Message& m : decoded) encoded.push_back(proto::encode(m));
  const std::int64_t t2 = now_ns();
  if (encoded != wire) ++trace.codec_failures;
  trace.codec_messages += decoded.size();
  trace.decode_ns += t1 - t0;
  trace.encode_ns += t2 - t1;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "paper_grid") return Workload::PaperGrid;
  if (name == "proto_topeft") return Workload::ProtoTopeft;
  return std::nullopt;
}

std::size_t seed_cycle(Workload w) {
  // Enough seeds that the throughput and AWE averages vary little with the
  // run's seed, and few enough that a run repeats each of them several times
  // (tasks_per_s takes each seed's fastest pass). A paper_grid pass already
  // spans seven workflows and takes seconds, so it gets fewer.
  switch (w) {
    case Workload::PaperGrid:
      return 3;
    case Workload::ProtoTopeft:
      return 8;
  }
  return 1;
}

std::size_t PassResult::tasks() const noexcept {
  std::size_t n = 0;
  for (const Cell& c : cells) n += c.tasks;
  return n;
}

std::size_t PassResult::completed() const noexcept {
  std::size_t n = 0;
  for (const Cell& c : cells) n += c.completed;
  return n;
}

std::array<double, 3> PassResult::awe() const noexcept {
  std::array<double, 3> mean{};
  for (const Cell& c : cells) {
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += c.awe[i];
  }
  if (!cells.empty()) {
    for (double& m : mean) m /= static_cast<double>(cells.size());
  }
  return mean;
}

TraceContext::TraceContext()
    : pass_span(tracer.intern("pass")),
      generate_span(tracer.intern("generate")),
      setup_span(tracer.intern("setup")),
      run_span(tracer.intern("run")),
      step_span(tracer.intern("sim.step")),
      pump_span(tracer.intern("mgr.pump")) {}

void TraceContext::note_ready(std::size_t ready_len) noexcept {
  ++ready_samples;
  ready_sum += static_cast<double>(ready_len);
  ready_max = std::max<std::uint64_t>(ready_max, ready_len);
}

PassResult run_pass(Workload w, std::uint64_t seed, TraceContext* trace,
                    bool setup_only) {
  PassResult r;
  r.seed = seed;
  Phases phases(r);
  MaybeSpan pass(trace, &TraceContext::pass_span);
  const auto make_inputs = [&](std::string_view workflow) {
    return phases.setup([&] {
      MaybeSpan span(trace, &TraceContext::generate_span);
      return generate(w, workflow, seed);
    });
  };
  switch (w) {
    case Workload::PaperGrid:
      // Every workflow under every policy, one cell after another; each
      // workflow is generated once and shared by its seven cells.
      for (const std::string& workflow : workloads::all_workflow_names()) {
        const workloads::Workload inputs = make_inputs(workflow);
        for (const std::string& policy : core::all_policy_names()) {
          sim_cell(inputs, policy, trace, setup_only, r, phases);
        }
      }
      break;
    case Workload::ProtoTopeft: {
      const workloads::Workload inputs = make_inputs({});
      if (trace) {
        proto_traced(inputs, *trace, setup_only, r, phases);
      } else {
        proto_untraced(inputs, setup_only, r, phases);
      }
      break;
    }
  }
  if (trace && !setup_only) {
    ++trace->passes;
    trace->tasks += r.tasks();
  }
  return r;
}

std::string check_pass(const PassResult& pass, const PassResult* reference) {
  if (reference && reference->cells.size() != pass.cells.size()) {
    return "cell count differs from the earlier pass on seed " +
           std::to_string(pass.seed);
  }
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    const Cell& c = pass.cells[i];
    if (c.completed + c.fatal != c.tasks) {
      return c.label + ": " + std::to_string(c.tasks - c.completed - c.fatal) +
             " tasks unfinished";
    }
    if (!c.accounting_ok) {
      return c.label + ": waste accounting identity or AWE range violated";
    }
    if (reference && reference->cells[i].awe != c.awe) {
      return c.label + ": AWE differs from the earlier pass on seed " +
             std::to_string(pass.seed);
    }
  }
  return {};
}

std::string check_fidelity(const PassResult& untraced,
                           const PassResult& traced) {
  if (untraced.cells.size() != traced.cells.size()) {
    return "traced pass ran a different number of cells";
  }
  for (std::size_t i = 0; i < untraced.cells.size(); ++i) {
    const Cell& a = untraced.cells[i];
    const Cell& b = traced.cells[i];
    if (a.awe != b.awe || a.makespan_s != b.makespan_s ||
        a.events != b.events || a.completed != b.completed ||
        a.fatal != b.fatal) {
      return a.label + ": traced result differs from the untraced one";
    }
    if (a.fingerprint != b.fingerprint) {
      return a.label + ": traced manager state differs from the untraced one";
    }
  }
  return {};
}

}  // namespace perfbench
