#include "cli/cli.hpp"

#include "cli/plot.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/recovery/recovery_log.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/recovery/storage.hpp"
#include "core/registry.hpp"
#include "core/replication/replication.hpp"
#include "core/tenancy/arbiter.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "proto/manager.hpp"
#include "proto/net/replication.hpp"
#include "proto/net/tcp_runtime.hpp"
#include "proto/recovery_runtime.hpp"
#include "sim/event.hpp"
#include "sim/observer.hpp"
#include "util/bytes.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "workloads/multi_tenant.hpp"
#include "workloads/trace.hpp"
#include "workloads/workload.hpp"

namespace tora::cli {

namespace {

[[noreturn]] void invalid_value(const std::string& s, const char* what) {
  throw std::invalid_argument(std::string("invalid value for ") + what +
                              ": '" + s + "'");
}

// The whole string as a decimal integer: no sign, no whitespace, no
// overflow (std::stoull would turn "-1" into 2^64 - 1).
std::uint64_t parse_u64(const std::string& s, const char* what) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) invalid_value(s, what);
  return v;
}

// The whole string as a finite real: no whitespace, no nan or inf.
double parse_f64(const std::string& s, const char* what) {
  double v = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    invalid_value(s, what);
  }
  return v;
}

void require(bool ok, const std::string& message) {
  if (!ok) throw std::invalid_argument(message);
}

// Splits a "HOST:PORT" flag value into its parts; the port must be a
// decimal in [0, 65535] (0 asks the kernel for an ephemeral port). `flag`
// names the option in diagnostics.
std::pair<std::string, std::uint16_t> parse_host_port(const std::string& s,
                                                      const char* flag) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    throw std::invalid_argument(std::string("invalid ") + flag + " '" + s +
                                "' (expected HOST:PORT)");
  }
  const std::uint64_t p =
      parse_u64(s.substr(colon + 1), (std::string(flag) + " port").c_str());
  if (p > 65535) {
    throw std::invalid_argument(std::string("invalid ") + flag + " port '" +
                                s.substr(colon + 1) +
                                "' (expected 0..65535)");
  }
  return {s.substr(0, colon), static_cast<std::uint16_t>(p)};
}

sim::Placement parse_placement(const std::string& s) {
  if (s == "first") return sim::Placement::FirstFit;
  if (s == "best") return sim::Placement::BestFit;
  if (s == "worst") return sim::Placement::WorstFit;
  throw std::invalid_argument("invalid --placement '" + s +
                              "' (expected first|best|worst)");
}

bool looks_like_path(const std::string& s) {
  return s.find('/') != std::string::npos ||
         (s.size() > 4 && s.substr(s.size() - 4) == ".csv");
}

workloads::Workload load_workflow(const Options& opts) {
  if (looks_like_path(opts.workflow)) {
    return workloads::load_trace(opts.workflow);
  }
  return workloads::make_workload(opts.workflow, opts.seed);
}

exp::ExperimentConfig experiment_config(const Options& opts) {
  exp::ExperimentConfig cfg;
  cfg.workload_seed = opts.seed;
  cfg.sim.seed = opts.seed;
  cfg.sim.churn.enabled = opts.churn;
  cfg.sim.churn.initial_workers = opts.workers;
  if (!opts.churn) {
    cfg.sim.churn.min_workers = opts.workers;
    cfg.sim.churn.max_workers = opts.workers;
  }
  cfg.sim.placement = opts.placement;
  cfg.sim.submit_interval_s = opts.submit_interval_s;
  cfg.sim.resilience = opts.resilience;
  cfg.sim.churn.storm_interval_s = opts.storm_interval_s;
  cfg.sim.churn.storm_duration_s = opts.storm_duration_s;
  cfg.sim.churn.storm_evict_fraction = opts.storm_fraction;
  return cfg;
}

int cmd_plot(const Options& opts, std::ostream& out) {
  std::ifstream in(opts.csv_path);
  if (!in) throw std::runtime_error("cannot open CSV: " + opts.csv_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::size_t charts = plot_awe_csv(out, buf.str(), opts.resource_filter,
                                          opts.workflow_filter);
  if (charts == 0) out << "no rows matched the filters\n";
  return 0;
}

// fsck --events FILE: validate a canonical sim event-frame snapshot (the
// format of sim/event.hpp) with the typed SnapshotError detail surfaced
// verbatim. Exit 1 on any violation.
int cmd_fsck_events(const Options& opts, std::ostream& out) {
  std::ifstream in(opts.fsck_events_path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument("fsck: cannot open events file '" +
                                opts.fsck_events_path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  out << "event-frame snapshot: " << opts.fsck_events_path << " ("
      << bytes.size() << " bytes)\n";
  try {
    sim::detail::EventFrame frame;
    core::snapshot::from_bytes(bytes, frame);
    const std::vector<sim::Event>& events = frame.events;
    const std::uint64_t next_seq = frame.next_seq;
    out << "valid: " << events.size() << " events, next_seq " << next_seq;
    if (!events.empty()) {
      double lo = events.front().time, hi = events.front().time;
      for (const sim::Event& e : events) {
        lo = std::min(lo, e.time);
        hi = std::max(hi, e.time);
      }
      out << ", time span [" << lo << ", " << hi << "]";
    }
    out << "\n";
    return 0;
  } catch (const core::SnapshotError& e) {
    out << "INVALID event frame (SnapshotError): " << e.what() << "\n";
    return 1;
  }
}

// Offline recovery-directory inspection: per-generation health (snapshot
// seal, journal integrity, record-type census) plus the generation a real
// recovery would seed from and the leadership-term chain left by failover
// promotions. Read-only — it must never create or repair anything, so the
// directory is checked BEFORE FileStorage (whose constructor mkdirs).
int cmd_fsck(const Options& opts, std::ostream& out) {
  if (!opts.fsck_events_path.empty()) return cmd_fsck_events(opts, out);
  namespace rec = core::recovery;
  struct ::stat st{};
  if (::stat(opts.fsck_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    throw std::invalid_argument("fsck: '" + opts.fsck_dir +
                                "' is not a directory");
  }
  rec::FileStorage storage(opts.fsck_dir);
  const std::vector<std::string> names = storage.list();
  out << "recovery directory: " << opts.fsck_dir << " (" << names.size()
      << (names.size() == 1 ? " object" : " objects") << ")\n\n";

  struct Generation {
    std::string snapshot;
    std::string journal;
  };
  std::map<std::uint64_t, Generation> generations;
  std::vector<std::string> orphans;
  std::vector<std::string> foreign;
  for (const std::string& name : names) {
    const auto parsed = rec::parse_object_name(name);
    if (!parsed) {
      foreign.push_back(name);
      continue;
    }
    switch (parsed->kind) {
      case rec::ObjectName::Kind::SnapshotTmp:
        orphans.push_back(name);
        break;
      case rec::ObjectName::Kind::Snapshot:
        generations[parsed->epoch].snapshot = name;
        break;
      case rec::ObjectName::Kind::Journal:
        generations[parsed->epoch].journal = name;
        break;
    }
  }

  exp::TextTable table({"generation", "snapshot", "journal"});
  // Leadership terms journaled by failover promotions, in generation order
  // (the map iterates ascending epoch, journals replay in that order).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> term_chain;
  bool bad_term_payloads = false;
  for (const auto& [epoch, gen] : generations) {
    std::string snap;
    if (gen.snapshot.empty()) {
      snap = epoch == 0 ? "(genesis: none)" : "MISSING";
    } else if (const auto bytes = storage.read_file(gen.snapshot); !bytes) {
      snap = "UNREADABLE";
    } else if (const auto body = rec::open_snapshot(*bytes)) {
      snap = "sealed, " + std::to_string(body->size()) + "-byte state";
    } else if (const auto version = rec::sealed_version(*bytes)) {
      snap = "sealed, unsupported version " + std::to_string(*version) +
             " (this build reads " +
             std::to_string(rec::snapshot_version()) + ")";
    } else if (const auto older = rec::older_container_version(*bytes)) {
      snap = "OLDER FORMAT: container version " + std::to_string(*older) +
             ", CRC-32 seal (this build reads version " +
             std::to_string(rec::snapshot_version()) + ", CRC-32C)";
    } else {
      snap = "CORRUPT (seal check failed)";
    }
    std::string journal;
    if (gen.journal.empty()) {
      journal = "MISSING";
    } else if (const auto bytes = storage.read_file(gen.journal); !bytes) {
      journal = "UNREADABLE";
    } else {
      const rec::JournalReadResult r = rec::read_journal(*bytes);
      // Record-type census: how much replayable input the journal holds,
      // and the replication epoch records (TermBump) a failover left here.
      std::size_t ticks = 0, inputs = 0, bumps = 0;
      for (const rec::JournalRecord& record : r.records) {
        switch (record.type) {
          case rec::RecordType::Tick: ++ticks; break;
          case rec::RecordType::Input: ++inputs; break;
          case rec::RecordType::TermBump: {
            ++bumps;
            try {
              util::ByteReader tr(record.payload);
              const std::uint64_t term = tr.u64();
              if (!tr.done()) throw std::runtime_error("trailing bytes");
              term_chain.emplace_back(epoch, term);
            } catch (const std::runtime_error&) {
              bad_term_payloads = true;
            }
            break;
          }
          default: break;
        }
      }
      journal = std::to_string(r.records.size()) + " records (" +
                std::to_string(ticks) + " ticks, " + std::to_string(inputs) +
                " inputs" +
                (bumps ? ", " + std::to_string(bumps) + " term-bumps" : "") +
                ")";
      if (r.mid_corruption) journal += ", CORRUPT mid-file";
      else if (r.torn) journal += ", torn tail";
      bool header_ok = false;
      if (!r.records.empty() &&
          r.records.front().type == rec::RecordType::Epoch) {
        util::ByteReader header(r.records.front().payload);
        header_ok = header.u64() == epoch;
      }
      if (!header_ok) journal += ", BAD epoch header";
      if (r.records.empty() && !r.mid_corruption &&
          rec::older_format_journal(*bytes, epoch)) {
        journal = "OLDER FORMAT: CRC-32 frames (this build reads CRC-32C)";
      }
    }
    table.add_row({std::to_string(epoch), snap, journal});
  }
  if (generations.empty()) {
    out << "no generations: a scan would start from genesis\n";
  } else {
    table.print(out);
  }
  for (const std::string& name : orphans) {
    out << "orphaned rotation temp: " << name << " (swept at next startup)\n";
  }
  for (const std::string& name : foreign) {
    out << "foreign object (ignored by recovery): " << name << "\n";
  }

  // Replication epoch records: each failover promotion journals its new
  // leadership term, so across generations the chain must strictly
  // increase — a repeat or regression means two managers claimed the same
  // term (the split-brain case fencing exists to prevent).
  bool term_chain_ok = !bad_term_payloads;
  if (!term_chain.empty()) {
    out << "leadership terms:";
    std::uint64_t prev = 0;
    bool have_prev = false;
    for (const auto& [epoch, term] : term_chain) {
      out << " " << term << "@gen" << epoch;
      if (have_prev && term <= prev) term_chain_ok = false;
      prev = term;
      have_prev = true;
    }
    out << (term_chain_ok ? " (monotonic)" : " BROKEN (terms must increase)")
        << "\n";
  } else if (bad_term_payloads) {
    out << "leadership terms: BAD term-bump payload\n";
  }

  // The authoritative answer comes from the same scan recovery runs.
  out << "\n";
  try {
    rec::RecoveryLog log(storage);
    const rec::RecoveryLog::ScanResult scan = log.scan();
    out << "recovery would seed from "
        << (scan.snapshot ? "snapshot-" + std::to_string(scan.base_epoch)
                          : std::string("genesis"))
        << " and replay " << scan.tail.size() << " records through journal-"
        << scan.epoch;
    if (scan.fell_back) out << " (FELL BACK past a damaged newest snapshot)";
    if (scan.torn_tail) out << " (torn tail truncated)";
    out << "\n";
    return term_chain_ok ? 0 : 1;
  } catch (const rec::StorageError& e) {
    // The typed fields name exactly what refused: the operation, the
    // object, and the errno-style code (EBADMSG for salvage refusals).
    out << "UNRECOVERABLE: " << e.what() << "\n  op " << rec::to_string(e.op())
        << ", object '" << e.object() << "', errno " << e.code() << "\n";
    return 1;
  }
}

// Writes the unified counter dump (--counters-json) and notes it on `out`;
// without the flag it writes nothing.
void write_counters_json(const Options& opts,
                         const exp::CounterSections& sections,
                         std::ostream& out) {
  const std::string& path = opts.counters_json_path;
  if (path.empty()) return;
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open counters output: " + path);
  file << exp::counters_json(sections);
  out << "counters written to " << path << "\n";
}

// The allocator factory crash recovery and replication both need: every
// call returns a freshly built allocator with identical policy/seed/config.
proto::AllocatorFactory allocator_factory(
    const Options& opts, const exp::ExperimentConfig& cfg) {
  const std::string policy = opts.policy;
  const std::uint64_t seed = cfg.policy_seed;
  const core::ResourceVector capacity = cfg.sim.worker_capacity;
  const core::RegistryOptions registry = cfg.registry;
  return [policy, seed, capacity, registry] {
    return std::make_unique<core::TaskAllocator>(
        core::make_allocator(policy, seed, capacity, registry));
  };
}

int cmd_list(const Options&, std::ostream& out) {
  out << "policies (paper order + extensions):\n";
  for (const auto& p : core::extended_policy_names()) out << "  " << p << "\n";
  out << "workflows:\n";
  for (const auto& w : workloads::all_workflow_names()) out << "  " << w << "\n";
  out << "arbiters (tenants subcommand):\n";
  for (const auto& a : core::tenancy::arbiter_names()) out << "  " << a << "\n";
  return 0;
}

int cmd_tenants(const Options& opts, std::ostream& out) {
  const exp::ExperimentConfig cfg = experiment_config(opts);

  std::vector<workloads::TenantScenarioSpec> specs;
  if (opts.tenant_workflows.empty()) {
    specs = workloads::standard_tenant_mix(opts.seed);
  } else {
    specs.resize(opts.tenant_workflows.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].workflow = opts.tenant_workflows[i];
      specs[i].workload_seed = opts.seed + i;
    }
  }
  for (std::size_t i = 0; i < opts.tenant_weights.size(); ++i) {
    specs[i].weight = opts.tenant_weights[i];
  }
  for (std::size_t i = 0; i < opts.tenant_offsets.size(); ++i) {
    specs[i].arrival_offset_s = opts.tenant_offsets[i];
  }
  if (opts.misreport > 1.0) specs.back().demand_multiplier = opts.misreport;

  workloads::MultiTenantScenario scenario(std::move(specs), opts.policy,
                                          cfg.policy_seed,
                                          cfg.sim.worker_capacity,
                                          cfg.registry);
  sim::Simulation simulation(scenario.inputs(), cfg.sim,
                             core::tenancy::make_arbiter(opts.arbiter));
  const sim::SimResult r = simulation.run();
  const auto outcomes = simulation.tenant_outcomes();

  out << scenario.tenant_count() << " tenants (" << scenario.total_tasks()
      << " tasks) under " << opts.policy << ", arbiter " << opts.arbiter
      << "\n\n";
  exp::tenant_table(outcomes).print(out);
  out << "\ntenant fairness (Jain over welfare) "
      << exp::fmt(core::tenant_fairness(outcomes), 4) << ", pool utilization "
      << exp::fmt_pct(r.pool_utilization(core::ResourceKind::Cores))
      << " cores, makespan " << exp::fmt(r.makespan_s / 3600.0, 2) << " h\n";
  return 0;
}

int cmd_trace(const Options& opts, std::ostream& out) {
  const auto w = workloads::make_workload(opts.workflow, opts.seed);
  if (opts.output_path.empty()) {
    workloads::write_trace(out, w);
  } else {
    workloads::save_trace(opts.output_path, w);
    out << "wrote " << w.tasks.size() << " tasks to " << opts.output_path
        << "\n";
  }
  return 0;
}

int cmd_run(const Options& opts, std::ostream& out) {
  const workloads::Workload workload = load_workflow(opts);
  const exp::ExperimentConfig cfg = experiment_config(opts);

  core::TaskAllocator allocator = core::make_allocator(
      opts.policy, cfg.policy_seed, cfg.sim.worker_capacity, cfg.registry);
  sim::Simulation simulation(workload.tasks, allocator, cfg.sim);

  std::ofstream trace_stream;
  std::optional<sim::CsvTraceObserver> observer;
  if (!opts.trace_log.empty()) {
    trace_stream.open(opts.trace_log);
    if (!trace_stream) {
      throw std::runtime_error("cannot open trace log: " + opts.trace_log);
    }
    observer.emplace(trace_stream);
    simulation.set_observer(&*observer);
  }

  const sim::SimResult r = simulation.run();

  out << "workflow " << workload.name << " (" << workload.tasks.size()
      << " tasks) under " << opts.policy << "\n\n";
  exp::waste_table(r.accounting).print(out);
  out << "\ntasks completed " << r.tasks_completed << ", fatal "
      << r.tasks_fatal << ", mean attempts "
      << exp::fmt(r.accounting.mean_attempts(), 2) << ", evictions "
      << r.evictions << ", makespan " << exp::fmt(r.makespan_s / 3600.0, 2)
      << " h\n";
  out << "events " << r.events_processed << "\n";

  if (cfg.sim.resilience.enabled()) {
    double speculative = 0.0;
    for (core::ResourceKind k : core::kManagedResources) {
      speculative += r.accounting.breakdown(k).speculative;
    }
    out << "\nresilience (speculative waste " << exp::fmt(speculative, 0)
        << ", outside AWE):\n";
    exp::counter_table(r.resilience).print(out);
  }

  if (!opts.output_path.empty()) {
    std::ofstream csv_file(opts.output_path);
    if (!csv_file) {
      throw std::runtime_error("cannot open output: " + opts.output_path);
    }
    util::CsvWriter csv(csv_file);
    csv.row({"resource", "awe", "consumption", "allocation",
             "internal_fragmentation", "failed_allocation"});
    for (core::ResourceKind k : core::kManagedResources) {
      const auto& b = r.accounting.breakdown(k);
      csv.field(core::to_string(k))
          .field(r.accounting.awe(k))
          .field(b.consumption)
          .field(b.allocation)
          .field(b.internal_fragmentation)
          .field(b.failed_allocation);
      csv.end_row();
    }
    out << "metrics written to " << opts.output_path << "\n";
  }
  if (observer) {
    out << "event log (" << observer->rows_written() << " rows) written to "
        << opts.trace_log << "\n";
  }
  // The simulation's only counter family; the protocol/replication
  // sections appear under `tora proto`, which actually produces them.
  write_counters_json(opts, {.resilience = &r.resilience}, out);
  return 0;
}

void print_proto_report(const Options& opts, const std::string& workflow_name,
                        std::size_t num_tasks, const proto::ProtocolRunResult& r,
                        std::ostream& out) {
  out << "workflow " << workflow_name << " (" << num_tasks << " tasks) under "
      << opts.policy << " over " << opts.transport << " transport\n\n";
  exp::waste_table(r.accounting).print(out);
  out << "\ntasks completed " << r.tasks_completed << ", fatal "
      << r.tasks_fatal << ", rounds " << r.rounds << ", messages "
      << r.messages << ", bytes " << r.bytes << "\n";
}

// Primary role (`tora proto --standby HOST:PORT`): the crash-recoverable
// runtime journals to local storage while a JournalShipper tap streams
// every record to the standby over TCP, honoring the configured commit
// mode at each durability barrier. Exit 1 when the standby was declared
// lost or this primary was fenced by a promoted successor.
int cmd_proto_primary(const Options& opts, std::ostream& out) {
  const workloads::Workload workload = load_workflow(opts);
  const exp::ExperimentConfig cfg = experiment_config(opts);
  const auto [host, port] = parse_host_port(opts.standby_addr, "--standby");

  proto::net::ReplicationDialer dialer(host, port);
  for (int i = 0; i < 500 && !dialer.poll_connected() && !dialer.failed();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!dialer.poll_connected()) {
    throw std::runtime_error("cannot reach standby at " + opts.standby_addr);
  }
  proto::net::ReplicationConnection& conn = dialer.connection();

  core::replication::ReplicationConfig rep;
  rep.mode = opts.commit_mode == "async"
                 ? core::replication::ReplicationConfig::CommitMode::Async
                 : core::replication::ReplicationConfig::CommitMode::Sync;
  rep.lag_cap = opts.replication_lag_cap;
  core::ReplicationCounters rc;
  core::replication::JournalShipper shipper(rep, conn.send_adapter(),
                                            conn.recv_adapter(), &rc);
  shipper.set_service([&conn] { conn.pump(); });

  core::recovery::MemStorage storage;
  proto::RecoverableProtocolRuntime rt(workload.tasks,
                                       allocator_factory(opts, cfg),
                                       opts.workers, cfg.sim.worker_capacity,
                                       proto::ChaosConfig{}, storage);
  rt.log().set_observer(&shipper);
  const proto::RecoveryRunResult r = rt.run();
  shipper.poll_acks();

  print_proto_report(opts, workload.name, workload.tasks.size(), r, out);
  out << "\nreplication ("
      << core::replication::to_string(rep.mode) << " commit): shipped "
      << rc.records_shipped << " records / " << rc.rotations_shipped
      << " rotations (" << rc.bytes_shipped << " bytes), barriers "
      << rc.barriers_shipped << ", acks " << rc.acks_received << ", max lag "
      << rc.max_observed_lag << "\n";
  if (shipper.standby_lost()) {
    out << "STANDBY LOST: the standby stopped acknowledging; the run "
           "finished unreplicated\n";
  }
  if (shipper.fenced()) {
    out << "FENCED: a promoted standby deposed this primary\n";
  }
  out << "state fingerprint " << util::hash64(r.state_fingerprint) << "\n";
  write_counters_json(opts,
                      {.chaos = &r.chaos,
                       .resilience = &r.resilience,
                       .recovery = &rt.recovery_counters(),
                       .storage_faults = &r.storage_faults,
                       .storage_health = &r.storage,
                       .replication = &rc},
                      out);
  return (shipper.standby_lost() || shipper.fenced()) ? 1 : 0;
}

// Standby role (`tora proto --standby-serve HOST:PORT`): accept one
// primary, mirror its journal stream to a local recovery image,
// acknowledge durability barriers, and — once the primary hangs up —
// report the mirror plus the state fingerprint a promotion-by-cold-rebuild
// would serve from.
int cmd_proto_standby(const Options& opts, std::ostream& out) {
  const workloads::Workload workload = load_workflow(opts);
  const exp::ExperimentConfig cfg = experiment_config(opts);
  const auto [host, port] =
      parse_host_port(opts.standby_serve_addr, "--standby-serve");

  proto::net::ReplicationListener listener(host, port);
  out << "standby listening on " << host << ":" << listener.port() << "\n";
  for (int i = 0; i < 6000 && !listener.connected(); ++i) {
    listener.poll_accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!listener.connected()) {
    throw std::runtime_error("no primary connected to the standby");
  }
  proto::net::ReplicationConnection& conn = listener.connection();

  core::ReplicationCounters rc;
  core::recovery::MemStorage mirror;
  core::replication::StandbyReplica replica(mirror, conn.send_adapter(),
                                            conn.recv_adapter(), nullptr,
                                            &rc);
  while (conn.connected()) {
    listener.poll_accept();  // a reconnecting successor supersedes
    conn.pump();
    if (replica.pump() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  out << "primary disconnected: mirrored " << rc.records_applied
      << " records, " << rc.rotations_applied << " rotations; acked "
      << rc.barriers_acked << " barriers\n";
  out << "mirror objects:";
  for (const std::string& name : mirror.list()) out << " " << name;
  out << "\n";

  // What a promotion would serve: the same cold crash-recovery rebuild the
  // failover runtime uses as its three-way-fingerprint oracle.
  core::recovery::RecoveryLog log(mirror, nullptr, nullptr);
  const proto::RebuiltManager rebuilt = proto::rebuild_from_log(
      log, workload.tasks, allocator_factory(opts, cfg),
      proto::build_chaos_links(opts.workers, {}), proto::LivenessConfig{});
  out << "rebuilt " << rebuilt.manager->ticks()
      << " ticks from the mirror; standby state fingerprint "
      << util::hash64(rebuilt.manager->snapshot_body()) << "\n";
  write_counters_json(opts, {.replication = &rc}, out);
  return 0;
}

int cmd_proto(const Options& opts, std::ostream& out) {
  if (!opts.standby_serve_addr.empty()) return cmd_proto_standby(opts, out);
  if (!opts.standby_addr.empty()) return cmd_proto_primary(opts, out);

  const workloads::Workload workload = load_workflow(opts);
  const exp::ExperimentConfig cfg = experiment_config(opts);
  core::TaskAllocator allocator = core::make_allocator(
      opts.policy, cfg.policy_seed, cfg.sim.worker_capacity, cfg.registry);

  if (opts.transport == "tcp") {
    proto::net::TcpTransportConfig tcp;
    tcp.host = opts.tcp_host;
    tcp.port = opts.tcp_port;
    tcp.backoff_base = opts.tcp_backoff_base;
    tcp.backoff_cap = opts.tcp_backoff_cap;
    tcp.seed ^= opts.seed;
    proto::net::TcpProtocolRuntime rt(workload.tasks, allocator, opts.workers,
                                      cfg.sim.worker_capacity, tcp);
    const proto::net::TcpRunResult r = rt.run();
    print_proto_report(opts, workload.name, workload.tasks.size(), r, out);
    const auto& t = r.transport;
    out << "transport: connections " << t.connections_accepted
        << " accepted, handshakes " << t.handshakes_ok << " ok / "
        << t.handshakes_rejected << " rejected, reconnects " << t.reconnects
        << ", resumes " << t.sessions_resumed << ", frames "
        << t.frames_sent << " sent / " << t.frames_received
        << " received\nstate fingerprint "
        << util::hash64(r.state_fingerprint) << "\n";
    write_counters_json(
        opts, {.chaos = &r.chaos, .resilience = &r.resilience, .transport = &t},
        out);
    return 0;
  }
  proto::ProtocolRuntime rt(workload.tasks, allocator, opts.workers,
                            cfg.sim.worker_capacity);
  const proto::ProtocolRunResult r = rt.run();
  print_proto_report(opts, workload.name, workload.tasks.size(), r, out);
  write_counters_json(opts, {.chaos = &r.chaos, .resilience = &r.resilience},
                      out);
  return 0;
}

int cmd_grid(const Options& opts, std::ostream& out) {
  const auto workflows = opts.workflows.empty()
                             ? workloads::all_workflow_names()
                             : opts.workflows;
  const auto policies =
      opts.policies.empty() ? core::all_policy_names() : opts.policies;
  const exp::ExperimentConfig cfg = experiment_config(opts);

  if (opts.replications > 1) {
    // Statistical mode: mean +/- sd over independently seeded replications.
    for (core::ResourceKind k : core::kManagedResources) {
      out << "\n== AWE: " << core::to_string(k) << " (mean +/- sd over "
          << opts.replications << " runs) ==\n";
      std::vector<std::string> header{"algorithm"};
      for (const auto& wf : workflows) header.push_back(wf);
      exp::TextTable table(header);
      for (const auto& p : policies) {
        std::vector<std::string> row{p};
        for (const auto& wf : workflows) {
          const auto rep =
              exp::run_replicated(wf, p, opts.replications, cfg);
          const auto s = rep.awe(k);
          row.push_back(exp::fmt(s.mean * 100.0, 1) + "+-" +
                        exp::fmt(s.stddev * 100.0, 1));
        }
        table.add_row(row);
      }
      table.print(out);
    }
    return 0;
  }

  const auto results = exp::run_grid_parallel(workflows, policies, cfg);

  std::map<std::string, std::map<std::string, const exp::ExperimentResult*>>
      grid;
  for (const auto& r : results) grid[r.policy][r.workflow] = &r;

  std::optional<std::ofstream> csv_file;
  std::optional<util::CsvWriter> csv;
  if (!opts.output_path.empty()) {
    csv_file.emplace(opts.output_path);
    if (!*csv_file) {
      throw std::runtime_error("cannot open output: " + opts.output_path);
    }
    csv.emplace(*csv_file);
    csv->row({"resource", "policy", "workflow", "awe"});
  }

  for (core::ResourceKind k : core::kManagedResources) {
    out << "\n== AWE: " << core::to_string(k) << " ==\n";
    std::vector<std::string> header{"algorithm"};
    for (const auto& wf : workflows) header.push_back(wf);
    exp::TextTable table(header);
    for (const auto& p : policies) {
      std::vector<std::string> row{p};
      for (const auto& wf : workflows) {
        const double awe = grid[p][wf]->awe(k);
        row.push_back(exp::fmt_pct(awe));
        if (csv) {
          csv->field(core::to_string(k)).field(p).field(wf).field(awe);
          csv->end_row();
        }
      }
      table.add_row(row);
    }
    table.print(out);
  }
  if (csv) out << "\nraw values written to " << opts.output_path << "\n";
  return 0;
}

int cmd_help(const Options&, std::ostream& out) {
  out << usage();
  return 0;
}

// One bit per command, so an option row names its commands as a set.
enum CommandBit : unsigned {
  kRun = 1, kProto = 2, kGrid = 4, kTenants = 8, kTrace = 16,
  kPlot = 32, kFsck = 64, kList = 128, kHelp = 256,
};
// The commands that build a Simulation, which the pool, placement,
// resilience and storm knobs configure. `tora proto` injects no faults, so
// its resilience layer would never see the churn evidence it waits for.
constexpr unsigned kSimulating = kRun | kGrid | kTenants;

struct Command {
  std::string_view name;
  unsigned bit;
  std::string_view synopsis;
  int (*handler)(const Options&, std::ostream&);
};

constexpr Command kCommands[] = {
    {"run", kRun, "--workflow <name|trace.csv> [--policy NAME] [options]",
     cmd_run},
    {"proto", kProto,
     "--workflow <name|trace.csv> [--transport inproc|tcp] [options]",
     cmd_proto},
    {"grid", kGrid, "[--workflows a,b,...] [--policies x,y,...] [options]",
     cmd_grid},
    {"tenants", kTenants,
     "[--tenants a,b,...] [--arbiter A] [--weights w,...] [options]",
     cmd_tenants},
    {"trace", kTrace, "--workflow <name> [--seed N] [--out FILE]", cmd_trace},
    {"plot", kPlot, "--csv fig5_awe.csv [--resource R] [--filter-workflow W]",
     cmd_plot},
    {"fsck", kFsck, "DIR | --events FILE", cmd_fsck},
    {"list", kList, "", cmd_list},
    {"help", kHelp, "", cmd_help},
};

using Value = const std::string&;

std::uint64_t parse_count(Value v, const char* flag) {
  const std::uint64_t n = parse_u64(v, flag);
  require(n >= 1, std::string(flag) + " must be >= 1");
  return n;
}

double parse_positive(Value v, const char* flag) {
  const double x = parse_f64(v, flag);
  require(x > 0.0, std::string(flag) + " must be > 0");
  return x;
}

// `v` if it is one of `allowed`, else "invalid FLAG 'v' (expected a|b)".
std::string one_of(Value v, const char* flag,
                   const std::vector<std::string>& allowed) {
  if (std::find(allowed.begin(), allowed.end(), v) != allowed.end()) return v;
  std::string expected;
  for (const std::string& a : allowed) {
    expected += (expected.empty() ? "" : "|") + a;
  }
  throw std::invalid_argument(std::string("invalid ") + flag + " '" + v +
                              "' (expected " + expected + ")");
}

// One row per flag: the commands whose handler reads it, one help line, and
// the function that parses and range-checks its value into Options. A row
// without a metavar is a switch and takes no value. usage() prints one
// heading per run of rows with the same commands.
struct Option {
  std::string_view name;
  std::string_view metavar;
  unsigned commands;
  std::string_view help;
  void (*apply)(Options&, Value);
};

const Option kOptions[] = {
    {"--seed", "N", kRun | kProto | kGrid | kTenants | kTrace,
     "workload + simulation seed (default 7)",
     [](Options& o, Value v) { o.seed = parse_u64(v, "--seed"); }},
    {"--workers", "N", kSimulating | kProto,
     "initial worker count (default 35)",
     [](Options& o, Value v) {
       o.workers = parse_count(v, "--workers");
       // The simulator's exact pool totals must hold N default workers.
       core::check_pool_capacity(sim::SimConfig{}.worker_capacity, o.workers,
                                 "--workers");
     }},
    {"--workflow", "W", kRun | kProto | kTrace,
     "workflow name; run and proto also take a trace CSV",
     [](Options& o, Value v) { o.workflow = v; }},
    {"--policy", "NAME", kRun | kProto | kTenants,
     "allocation policy (default exhaustive_bucketing)",
     [](Options& o, Value v) { o.policy = v; }},
    {"--no-churn", "", kSimulating, "fixed pool instead of opportunistic churn",
     [](Options& o, Value) { o.churn = false; }},
    {"--placement", "P", kSimulating, "first|best|worst (default first)",
     [](Options& o, Value v) { o.placement = parse_placement(v); }},
    {"--interval", "S", kSimulating,
     "task submission interval seconds (default 5)",
     [](Options& o, Value v) {
       o.submit_interval_s = parse_f64(v, "--interval");
       require(o.submit_interval_s >= 0.0, "--interval must be >= 0");
     }},
    {"--deadline-quantile", "Q", kSimulating,
     "adaptive attempt deadlines at quantile Q in (0, 1]",
     [](Options& o, Value v) {
       o.resilience.deadlines = true;
       o.resilience.deadline_quantile = parse_f64(v, "--deadline-quantile");
       o.resilience.validate();
     }},
    {"--speculation", "", kSimulating,
     "speculatively re-dispatch straggling attempts",
     [](Options& o, Value) { o.resilience.speculation = true; }},
    {"--storm-threshold", "N", kSimulating,
     "degraded mode after N >= 2 evictions in the storm window",
     [](Options& o, Value v) {
       o.resilience.storm_control = true;
       o.resilience.storm_enter = parse_u64(v, "--storm-threshold");
       // The mode exits at storm_exit (1) evictions, so it must enter above.
       require(o.resilience.storm_enter > o.resilience.storm_exit,
               "--storm-threshold must be >= " +
                   std::to_string(o.resilience.storm_exit + 1));
       o.resilience.validate();
     }},
    {"--storm-interval", "S", kSimulating,
     "scenario: eviction-storm burst every S seconds",
     [](Options& o, Value v) {
       o.storm_interval_s = parse_positive(v, "--storm-interval");
       // Sensible burst defaults; override with the sibling knobs.
       if (o.storm_duration_s == 0.0) o.storm_duration_s = 60.0;
       if (o.storm_fraction == 0.0) o.storm_fraction = 0.5;
     }},
    {"--storm-duration", "S", kSimulating,
     "scenario: burst length (default 60)",
     [](Options& o, Value v) {
       o.storm_duration_s = parse_positive(v, "--storm-duration");
     }},
    {"--storm-fraction", "F", kSimulating,
     "scenario: fraction of pool evicted per burst (0.5)",
     [](Options& o, Value v) {
       o.storm_fraction = parse_f64(v, "--storm-fraction");
       require(o.storm_fraction > 0.0 && o.storm_fraction <= 1.0,
               "--storm-fraction must be in (0, 1]");
     }},
    {"--out", "FILE", kRun | kGrid | kTrace,
     "run: metrics CSV; grid: AWE CSV; trace: task CSV",
     [](Options& o, Value v) { o.output_path = v; }},
    {"--counters-json", "FILE", kRun | kProto,
     "every counter family the run produced, as JSON",
     [](Options& o, Value v) { o.counters_json_path = v; }},
    {"--trace-log", "FILE", kRun, "per-event CSV log of the simulation",
     [](Options& o, Value v) { o.trace_log = v; }},
    {"--workflows", "a,b,...", kGrid, "grid columns (default: every workflow)",
     [](Options& o, Value v) { o.workflows = split_list(v); }},
    {"--policies", "x,y,...", kGrid, "grid rows (default: the paper's seven)",
     [](Options& o, Value v) { o.policies = split_list(v); }},
    {"--replications", "N", kGrid,
     "mean +/- sd over N independently seeded runs",
     [](Options& o, Value v) {
       o.replications = parse_count(v, "--replications");
     }},
    {"--tenants", "a,b,...", kTenants,
     "one workflow per tenant (default: a 4-tenant mix)",
     [](Options& o, Value v) { o.tenant_workflows = split_list(v); }},
    {"--arbiter", "A", kTenants, "fifo|maxmin|drf|karma (default drf)",
     [](Options& o, Value v) {
       o.arbiter = one_of(v, "--arbiter", core::tenancy::arbiter_names());
     }},
    {"--weights", "w,...", kTenants, "per-tenant fair-share weights",
     [](Options& o, Value v) {
       for (const std::string& w : split_list(v)) {
         o.tenant_weights.push_back(parse_f64(w, "--weights"));
         require(o.tenant_weights.back() > 0.0,
                 "--weights entries must be > 0");
       }
     }},
    {"--offsets", "s,...", kTenants, "per-tenant arrival offsets in seconds",
     [](Options& o, Value v) {
       for (const std::string& s : split_list(v)) {
         o.tenant_offsets.push_back(parse_f64(s, "--offsets"));
         require(o.tenant_offsets.back() >= 0.0,
                 "--offsets entries must be >= 0");
       }
     }},
    {"--misreport", "F", kTenants,
     "last tenant inflates reported demand by F (>= 1)",
     [](Options& o, Value v) {
       o.misreport = parse_f64(v, "--misreport");
       require(o.misreport >= 1.0, "--misreport must be >= 1");
     }},
    {"--transport", "T", kProto,
     "inproc (default) or tcp: loopback TCP sessions",
     [](Options& o, Value v) {
       o.transport = one_of(v, "--transport", {"inproc", "tcp"});
     }},
    {"--listen", "HOST:PORT", kProto,
     "tcp: manager address (default 127.0.0.1:0)",
     [](Options& o, Value v) {
       std::tie(o.tcp_host, o.tcp_port) = parse_host_port(v, "--listen");
     }},
    {"--backoff-base", "S", kProto, "tcp: first reconnect delay (default 1)",
     [](Options& o, Value v) {
       o.tcp_backoff_base = parse_positive(v, "--backoff-base");
     }},
    {"--backoff-cap", "S", kProto,
     "tcp: reconnect backoff ceiling (default 16)",
     [](Options& o, Value v) {
       o.tcp_backoff_cap = parse_positive(v, "--backoff-cap");
     }},
    {"--standby", "H:P", kProto,
     "primary: also stream the journal to this standby",
     [](Options& o, Value v) {
       parse_host_port(v, "--standby");
       o.standby_addr = v;
     }},
    {"--standby-serve", "H:P", kProto,
     "standby: mirror one primary's journal stream",
     [](Options& o, Value v) {
       parse_host_port(v, "--standby-serve");
       o.standby_serve_addr = v;
     }},
    {"--commit-mode", "M", kProto,
     "--standby barriers: sync (default) or async",
     [](Options& o, Value v) {
       o.commit_mode = one_of(v, "--commit-mode", {"sync", "async"});
     }},
    {"--replication-lag-cap", "N", kProto,
     "async: max unacked records (default 64)",
     [](Options& o, Value v) {
       o.replication_lag_cap = parse_u64(v, "--replication-lag-cap");
     }},
    {"--csv", "FILE", kPlot, "AWE CSV from bench/fig5_awe or grid --out",
     [](Options& o, Value v) { o.csv_path = v; }},
    {"--resource", "R", kPlot, "only this resource (cores|memory_mb|disk_mb)",
     [](Options& o, Value v) { o.resource_filter = v; }},
    {"--filter-workflow", "W", kPlot, "only this workflow",
     [](Options& o, Value v) { o.workflow_filter = v; }},
    {"--events", "FILE", kFsck,
     "check a sim event-frame snapshot instead of DIR",
     [](Options& o, Value v) { o.fsck_events_path = v; }},
};

// "run, grid and tenants": the commands in `mask`, in table order.
std::string command_list(unsigned mask) {
  std::vector<std::string_view> names;
  for (const Command& c : kCommands) {
    if (mask & c.bit) names.push_back(c.name);
  }
  std::string s;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) s += i + 1 == names.size() ? " and " : ", ";
    s += names[i];
  }
  return s;
}

const Command& find_command(std::string_view name) {
  for (const Command& c : kCommands) {
    if (c.name == name) return c;
  }
  throw std::invalid_argument("unknown command '" + std::string(name) + "'");
}

// The first of `names` that was given, or "" when none was.
std::string first_given(const std::vector<std::string_view>& given,
                        std::initializer_list<std::string_view> names) {
  for (std::string_view g : given) {
    if (std::find(names.begin(), names.end(), g) != names.end()) {
      return std::string(g);
    }
  }
  return {};
}

// The rules that involve two flags, or a command's required input. They run
// after every flag has passed its scope and value checks.
void check_combinations(const Options& opts,
                        const std::vector<std::string_view>& given) {
  if ((opts.storm_duration_s > 0.0 || opts.storm_fraction > 0.0) &&
      opts.storm_interval_s == 0.0) {
    throw std::invalid_argument(
        "--storm-duration/--storm-fraction require --storm-interval");
  }
  // Checked before any socket opens.
  const std::string tcp_flag =
      first_given(given, {"--listen", "--backoff-base", "--backoff-cap"});
  if (!tcp_flag.empty() && opts.transport != "tcp") {
    throw std::invalid_argument(
        "option '" + tcp_flag + "' requires --transport tcp (transport is '" +
        opts.transport + "')");
  }
  if (!opts.standby_addr.empty() && !opts.standby_serve_addr.empty()) {
    throw std::invalid_argument(
        "--standby and --standby-serve are mutually exclusive (one process "
        "is primary OR standby)");
  }
  const std::string commit_flag =
      first_given(given, {"--commit-mode", "--replication-lag-cap"});
  if (!commit_flag.empty() && opts.standby_addr.empty()) {
    throw std::invalid_argument("option '" + commit_flag +
                                "' requires --standby (the primary role)");
  }
  // The replication stream is its own TCP connection, layered on the
  // in-process worker transport.
  if ((!opts.standby_addr.empty() || !opts.standby_serve_addr.empty()) &&
      opts.transport == "tcp") {
    throw std::invalid_argument(
        "replication options require --transport inproc (the journal "
        "stream is its own TCP connection)");
  }
  if (!opts.fsck_events_path.empty() && !opts.fsck_dir.empty()) {
    throw std::invalid_argument(
        "fsck takes either a recovery directory or --events FILE, not both");
  }
  if (opts.tcp_backoff_cap < opts.tcp_backoff_base) {
    throw std::invalid_argument("--backoff-cap must be >= --backoff-base");
  }
  if (opts.replications > 1 && !opts.output_path.empty()) {
    throw std::invalid_argument(
        "--out writes the single-run grid; with --replications > 1 the grid "
        "prints mean +/- sd tables only");
  }
  if ((opts.command == "run" || opts.command == "proto" ||
       opts.command == "trace") &&
      opts.workflow.empty()) {
    throw std::invalid_argument("command '" + opts.command +
                                "' requires --workflow");
  }
  if (opts.command == "plot" && opts.csv_path.empty()) {
    throw std::invalid_argument("command 'plot' requires --csv");
  }
  if (opts.command == "fsck" && opts.fsck_dir.empty() &&
      opts.fsck_events_path.empty()) {
    throw std::invalid_argument(
        "command 'fsck' requires a recovery directory argument or --events");
  }
  // Without --tenants the canonical 4-tenant mix is used.
  const std::size_t tenant_count =
      opts.tenant_workflows.empty() ? 4 : opts.tenant_workflows.size();
  for (const auto& [list, name] :
       {std::pair{&opts.tenant_weights, "weights"},
        std::pair{&opts.tenant_offsets, "offsets"}}) {
    if (!list->empty() && list->size() != tenant_count) {
      throw std::invalid_argument(
          std::string("--") + name + " needs one entry per tenant (" +
          std::to_string(tenant_count) + " tenants, " +
          std::to_string(list->size()) + " " + name + ")");
    }
  }
}

}  // namespace

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    if (end > start) items.push_back(csv.substr(start, end - start));
    if (end == csv.size()) break;
    start = end + 1;
  }
  return items;
}

std::string usage() {
  std::ostringstream u;
  u << "tora — adaptive task-oriented resource allocation (IPDPS'24 "
       "reproduction)\n\nusage:\n";
  for (const Command& c : kCommands) {
    u << "  tora " << std::left << std::setw(c.synopsis.empty() ? 0 : 8)
      << c.name << c.synopsis << "\n";
  }
  std::size_t width = 0;
  for (const Option& o : kOptions) {
    width = std::max(width, o.name.size() + 1 + o.metavar.size());
  }
  unsigned commands = 0;
  for (const Option& o : kOptions) {
    if (o.commands != commands) {
      commands = o.commands;
      u << "\noptions for " << command_list(commands) << ":\n";
    }
    const std::string flag =
        std::string(o.name) + (o.metavar.empty() ? "" : " ") +
        std::string(o.metavar);
    u << "  " << std::setw(static_cast<int>(width + 2)) << flag << o.help
      << "\n";
  }
  return u.str();
}

Options parse_options(const std::vector<std::string>& args) {
  Options opts;
  if (args.empty()) {
    opts.command = "help";
    return opts;
  }
  const Command& command = find_command(args[0]);
  opts.command = command.name;
  std::vector<std::string_view> given;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    const Option* option = std::find_if(
        std::begin(kOptions), std::end(kOptions),
        [&a](const Option& o) { return o.name == a; });
    if (option == std::end(kOptions)) {
      if (command.bit != kFsck || a.starts_with("-") ||
          !opts.fsck_dir.empty()) {
        throw std::invalid_argument("unknown option '" + a + "'");
      }
      opts.fsck_dir = a;  // the one positional argument: the directory
      continue;
    }
    if (!(option->commands & command.bit)) {
      const std::string commands = command_list(option->commands);
      throw std::invalid_argument(
          "option '" + a + "' is only valid for " +
          (std::popcount(option->commands) == 1 ? "command '" + commands + "'"
                                                : "commands " + commands));
    }
    if (option->metavar.empty()) {
      option->apply(opts, {});
    } else if (i + 1 < args.size()) {
      option->apply(opts, args[++i]);
    } else {
      throw std::invalid_argument("missing value for " + a);
    }
    given.push_back(option->name);
  }
  check_combinations(opts, given);
  return opts;
}

int run_command(const Options& opts, std::ostream& out) {
  return find_command(opts.command).handler(opts, out);
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  try {
    return run_command(parse_options(args), out);
  } catch (const std::exception& e) {
    err << "tora: " << e.what() << "\n\n" << usage();
    return 2;
  }
}

}  // namespace tora::cli
