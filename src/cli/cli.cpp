#include "cli/cli.hpp"

#include "cli/plot.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <fstream>
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
#include "sim/observer.hpp"
#include "util/bytes.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "workloads/multi_tenant.hpp"
#include "workloads/trace.hpp"
#include "workloads/workload.hpp"

namespace tora::cli {

namespace {

std::uint64_t parse_u64(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("invalid value for ") + what +
                                ": '" + s + "'");
  }
}

double parse_f64(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("invalid value for ") + what +
                                ": '" + s + "'");
  }
}

// Splits a "HOST:PORT" flag value into its parts; the port must be a
// decimal in [0, 65535] (0 asks the kernel for an ephemeral port). `flag`
// names the option in diagnostics.
void parse_host_port(const std::string& s, const char* flag,
                     std::string* host, std::uint16_t* port) {
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
  *host = s.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
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
  cfg.sim.engine = opts.engine;
  cfg.sim.coarse_stepping = opts.coarse_stepping;
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
// engine-shared format of sim/event.hpp) with the typed SnapshotError
// detail surfaced verbatim. Exit 1 on any violation.
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
    util::ByteReader r(bytes);
    std::uint64_t next_seq = 0;
    const std::vector<sim::Event> events =
        sim::detail::load_events_canonical(r, next_seq);
    if (!r.done()) {
      throw sim::SnapshotError("trailing bytes after the canonical frame");
    }
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
  } catch (const sim::SnapshotError& e) {
    out << "INVALID event frame (SnapshotError): " << e.what() << "\n";
    return 1;
  } catch (const std::runtime_error& e) {
    out << "INVALID event frame (truncated): " << e.what() << "\n";
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

// Writes the unified counter dump (--counters-json) and notes it on `out`.
void write_counters_json(const std::string& path,
                         const exp::CounterSections& sections,
                         std::ostream& out) {
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

int cmd_list(std::ostream& out) {
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
  out << "engine "
      << (cfg.sim.engine == sim::QueueEngine::Heap ? "heap" : "calendar")
      << (cfg.sim.coarse_stepping ? " (coarse stepping)" : "") << ", events "
      << r.events_processed << "\n";

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
  if (!opts.counters_json_path.empty()) {
    // The simulation's only counter family; the protocol/replication
    // sections appear under `tora proto`, which actually produces them.
    exp::CounterSections s;
    s.resilience = &r.resilience;
    write_counters_json(opts.counters_json_path, s, out);
  }
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
  std::string host;
  std::uint16_t port = 0;
  parse_host_port(opts.standby_addr, "--standby", &host, &port);

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
  if (!opts.counters_json_path.empty()) {
    exp::CounterSections s;
    s.chaos = &r.chaos;
    s.resilience = &r.resilience;
    s.recovery = &rt.recovery_counters();
    s.storage_health = &r.storage;
    s.storage_faults = &r.storage_faults;
    s.replication = &rc;
    write_counters_json(opts.counters_json_path, s, out);
  }
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
  std::string host;
  std::uint16_t port = 0;
  parse_host_port(opts.standby_serve_addr, "--standby-serve", &host, &port);

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
  if (!opts.counters_json_path.empty()) {
    exp::CounterSections s;
    s.replication = &rc;
    write_counters_json(opts.counters_json_path, s, out);
  }
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
    if (!opts.counters_json_path.empty()) {
      exp::CounterSections s;
      s.chaos = &r.chaos;
      s.resilience = &r.resilience;
      s.transport = &t;
      write_counters_json(opts.counters_json_path, s, out);
    }
    return 0;
  }
  proto::ProtocolRuntime rt(workload.tasks, allocator, opts.workers,
                            cfg.sim.worker_capacity);
  const proto::ProtocolRunResult r = rt.run();
  print_proto_report(opts, workload.name, workload.tasks.size(), r, out);
  if (!opts.counters_json_path.empty()) {
    exp::CounterSections s;
    s.chaos = &r.chaos;
    s.resilience = &r.resilience;
    write_counters_json(opts.counters_json_path, s, out);
  }
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
  return R"(tora — adaptive task-oriented resource allocation (IPDPS'24 reproduction)

usage:
  tora run   --workflow <name|trace.csv> [--policy NAME] [options]
  tora proto --workflow <name|trace.csv> [--transport inproc|tcp] [options]
  tora grid  [--workflows a,b,...] [--policies x,y,...] [options]
  tora tenants [--tenants a,b,...] [--arbiter A] [--weights w,...] [options]
  tora trace --workflow <name> [--out FILE]
  tora plot  --csv fig5_awe.csv [--resource R] [--filter-workflow W]
  tora fsck  DIR | --events FILE
  tora list
  tora help

options:
  --policy NAME        allocation policy (default exhaustive_bucketing)
  --seed N             workload + simulation seed (default 7)
  --workers N          initial worker count (default 35)
  --no-churn           fixed pool instead of opportunistic churn
  --placement P        first|best|worst (default first)
  --interval S         task submission interval seconds (default 5)
  --replications N     grid: mean +/- sd over N independently seeded runs
  --engine E           run/grid/tenants: event queue driving the simulation —
                       calendar (default) or heap (the legacy baseline);
                       identical results, different speed (docs/engine.md)
  --coarse-stepping    run/grid/tenants: skip the per-worker accounting scan
                       across provably-idle churn stretches (docs/engine.md)
  --out FILE           run: metrics CSV; trace: destination file
  --trace-log FILE     run: per-event CSV log of the simulation
  --counters-json F    run/proto: dump every counter family the run
                       produced (chaos, resilience, recovery, storage,
                       transport, replication) as one JSON object
  --csv FILE           plot: AWE CSV produced by bench/fig5_awe
  --resource R         plot: only this resource (cores|memory_mb|disk_mb)
  --filter-workflow W  plot: only this workflow

fsck (offline recovery-directory check; see docs/recovery.md):
  DIR                  a recoverable runtime's storage directory; prints
                       per-generation snapshot/journal health (with a
                       record-type census and the failover term chain) and
                       the generation recovery would seed from, or
                       UNRECOVERABLE (exit 1, typed StorageError detail)
                       when salvage would refuse
  --events FILE        validate a canonical sim event-frame snapshot
                       instead; prints the typed SnapshotError on exit 1

tenants (multi-tenant fair sharing; see docs/tenancy.md):
  --tenants a,b,...    workflows sharing the pool, one tenant each
                       (default: topeft,colmena_xtb,bimodal,exponential)
  --arbiter A          fifo|maxmin|drf|karma (default drf)
  --weights w,...      per-tenant fair-share weights (one per tenant)
  --offsets s,...      per-tenant arrival offsets in seconds
  --misreport F        last tenant inflates reported demand by F (>= 1)

proto transport (see docs/transport.md):
  --transport T        inproc (default) or tcp — same manager and workers,
                       but every message crosses a loopback TCP session
  --listen HOST:PORT   tcp: manager listen address (default 127.0.0.1:0,
                       port 0 picks an ephemeral port)
  --backoff-base S     tcp: first reconnect delay (default 1)
  --backoff-cap S      tcp: reconnect backoff ceiling (default 16)

proto replication (hot standby; see docs/replication.md):
  --standby H:P        primary role: journal to local storage AND stream
                       every record to the standby at HOST:PORT; exit 1 if
                       the standby is lost or this primary gets fenced
  --standby-serve H:P  standby role: listen on HOST:PORT, mirror one
                       primary's journal stream, ack durability barriers,
                       then report the promotable state fingerprint
  --commit-mode M      sync (barriers wait for the standby ack; default)
                       or async (bounded lag, no per-barrier round trip)
  --replication-lag-cap N  async: max shipped-but-unacked records before
                       a barrier blocks (default 64)

resilience (default off; see docs/resilience.md):
  --deadline-quantile Q  adaptive attempt deadlines at quantile Q (0 < Q <= 1)
  --speculation          speculatively re-dispatch straggling attempts
  --storm-threshold N    degraded mode after N evictions in the storm window
  --probation S          reliability scoring; first quarantine sentence S
  --storm-interval S     scenario: eviction-storm burst every S seconds
  --storm-duration S     scenario: burst length (default 60)
  --storm-fraction F     scenario: fraction of pool evicted per burst (0.5)
)";
}

Options parse_options(const std::vector<std::string>& args) {
  Options opts;
  if (args.empty()) {
    opts.command = "help";
    return opts;
  }
  opts.command = args[0];
  if (opts.command != "run" && opts.command != "proto" &&
      opts.command != "grid" && opts.command != "tenants" &&
      opts.command != "trace" && opts.command != "plot" &&
      opts.command != "fsck" && opts.command != "list" &&
      opts.command != "help") {
    throw std::invalid_argument("unknown command '" + opts.command + "'");
  }
  // First transport flag seen, for the contradiction diagnostics below
  // (flag order must not matter, so checks run after the loop).
  std::string transport_flag;
  std::string tcp_only_flag;
  // --arbiter has a non-empty default, so "was it passed?" needs tracking
  // to reject it on non-tenants commands like the other tenant flags.
  bool arbiter_flag = false;
  // First engine flag seen: simulation-only, rejected on other commands.
  std::string engine_flag;
  // First replication flag seen (proto-only), and the first commit-mode
  // knob (which additionally requires --standby, the primary role).
  std::string replication_flag;
  std::string commit_flag;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("missing value for " + a);
      }
      return args[++i];
    };
    if (a == "--workflow") opts.workflow = value();
    else if (a == "--policy") opts.policy = value();
    else if (a == "--workflows") opts.workflows = split_list(value());
    else if (a == "--policies") opts.policies = split_list(value());
    else if (a == "--seed") opts.seed = parse_u64(value(), "--seed");
    else if (a == "--workers") {
      opts.workers = static_cast<std::size_t>(parse_u64(value(), "--workers"));
      if (opts.workers == 0) {
        throw std::invalid_argument("--workers must be >= 1");
      }
    } else if (a == "--no-churn") opts.churn = false;
    else if (a == "--placement") opts.placement = parse_placement(value());
    else if (a == "--interval") {
      opts.submit_interval_s = parse_f64(value(), "--interval");
      if (opts.submit_interval_s < 0.0) {
        throw std::invalid_argument("--interval must be >= 0");
      }
    } else if (a == "--out") opts.output_path = value();
    else if (a == "--trace-log") opts.trace_log = value();
    else if (a == "--csv") opts.csv_path = value();
    else if (a == "--replications") {
      opts.replications =
          static_cast<std::size_t>(parse_u64(value(), "--replications"));
      if (opts.replications == 0) {
        throw std::invalid_argument("--replications must be >= 1");
      }
    }
    else if (a == "--transport") {
      opts.transport = value();
      if (opts.transport != "inproc" && opts.transport != "tcp") {
        throw std::invalid_argument("invalid --transport '" + opts.transport +
                                    "' (expected inproc|tcp)");
      }
      if (transport_flag.empty()) transport_flag = a;
    } else if (a == "--listen") {
      parse_host_port(value(), "--listen", &opts.tcp_host, &opts.tcp_port);
      if (tcp_only_flag.empty()) tcp_only_flag = a;
    } else if (a == "--backoff-base") {
      opts.tcp_backoff_base = parse_f64(value(), "--backoff-base");
      if (opts.tcp_backoff_base <= 0.0) {
        throw std::invalid_argument("--backoff-base must be > 0");
      }
      if (tcp_only_flag.empty()) tcp_only_flag = a;
    } else if (a == "--backoff-cap") {
      opts.tcp_backoff_cap = parse_f64(value(), "--backoff-cap");
      if (opts.tcp_backoff_cap <= 0.0) {
        throw std::invalid_argument("--backoff-cap must be > 0");
      }
      if (tcp_only_flag.empty()) tcp_only_flag = a;
    }
    else if (a == "--standby") {
      opts.standby_addr = value();
      std::string h;
      std::uint16_t p = 0;
      parse_host_port(opts.standby_addr, "--standby", &h, &p);
      if (replication_flag.empty()) replication_flag = a;
    } else if (a == "--standby-serve") {
      opts.standby_serve_addr = value();
      std::string h;
      std::uint16_t p = 0;
      parse_host_port(opts.standby_serve_addr, "--standby-serve", &h, &p);
      if (replication_flag.empty()) replication_flag = a;
    } else if (a == "--commit-mode") {
      opts.commit_mode = value();
      if (opts.commit_mode != "sync" && opts.commit_mode != "async") {
        throw std::invalid_argument("invalid --commit-mode '" +
                                    opts.commit_mode +
                                    "' (expected sync|async)");
      }
      if (replication_flag.empty()) replication_flag = a;
      if (commit_flag.empty()) commit_flag = a;
    } else if (a == "--replication-lag-cap") {
      opts.replication_lag_cap =
          static_cast<std::size_t>(parse_u64(value(), "--replication-lag-cap"));
      if (replication_flag.empty()) replication_flag = a;
      if (commit_flag.empty()) commit_flag = a;
    } else if (a == "--counters-json") {
      opts.counters_json_path = value();
    } else if (a == "--events") {
      opts.fsck_events_path = value();
    }
    else if (a == "--tenants") opts.tenant_workflows = split_list(value());
    else if (a == "--arbiter") {
      opts.arbiter = value();
      arbiter_flag = true;
      if (!core::tenancy::is_arbiter_name(opts.arbiter)) {
        std::string names;
        for (const auto& n : core::tenancy::arbiter_names()) {
          if (!names.empty()) names += "|";
          names += n;
        }
        throw std::invalid_argument("invalid --arbiter '" + opts.arbiter +
                                    "' (expected " + names + ")");
      }
    } else if (a == "--weights") {
      for (const std::string& w : split_list(value())) {
        const double v = parse_f64(w, "--weights");
        if (!(v > 0.0)) {
          throw std::invalid_argument("--weights entries must be > 0");
        }
        opts.tenant_weights.push_back(v);
      }
    } else if (a == "--offsets") {
      for (const std::string& o : split_list(value())) {
        const double v = parse_f64(o, "--offsets");
        if (v < 0.0) {
          throw std::invalid_argument("--offsets entries must be >= 0");
        }
        opts.tenant_offsets.push_back(v);
      }
    } else if (a == "--misreport") {
      opts.misreport = parse_f64(value(), "--misreport");
      if (opts.misreport < 1.0) {
        throw std::invalid_argument("--misreport must be >= 1");
      }
    }
    else if (a == "--engine") {
      const std::string& v = value();
      if (v == "heap") opts.engine = sim::QueueEngine::Heap;
      else if (v == "calendar") opts.engine = sim::QueueEngine::Calendar;
      else {
        throw std::invalid_argument("invalid --engine '" + v +
                                    "' (expected calendar|heap)");
      }
      if (engine_flag.empty()) engine_flag = a;
    } else if (a == "--coarse-stepping") {
      opts.coarse_stepping = true;
      if (engine_flag.empty()) engine_flag = a;
    }
    else if (a == "--resource") opts.resource_filter = value();
    else if (a == "--filter-workflow") opts.workflow_filter = value();
    else if (a == "--deadline-quantile") {
      opts.resilience.deadlines = true;
      opts.resilience.deadline_quantile =
          parse_f64(value(), "--deadline-quantile");
    } else if (a == "--speculation") {
      opts.resilience.speculation = true;
    } else if (a == "--storm-threshold") {
      opts.resilience.storm_control = true;
      opts.resilience.storm_enter =
          static_cast<std::size_t>(parse_u64(value(), "--storm-threshold"));
    } else if (a == "--probation") {
      opts.resilience.reliability = true;
      opts.resilience.probation_sentence = parse_f64(value(), "--probation");
    } else if (a == "--storm-interval") {
      opts.storm_interval_s = parse_f64(value(), "--storm-interval");
      if (opts.storm_interval_s <= 0.0) {
        throw std::invalid_argument("--storm-interval must be > 0");
      }
      // Sensible burst defaults; override with the sibling knobs.
      if (opts.storm_duration_s == 0.0) opts.storm_duration_s = 60.0;
      if (opts.storm_fraction == 0.0) opts.storm_fraction = 0.5;
    } else if (a == "--storm-duration") {
      opts.storm_duration_s = parse_f64(value(), "--storm-duration");
      if (opts.storm_duration_s <= 0.0) {
        throw std::invalid_argument("--storm-duration must be > 0");
      }
    } else if (a == "--storm-fraction") {
      opts.storm_fraction = parse_f64(value(), "--storm-fraction");
      if (opts.storm_fraction <= 0.0 || opts.storm_fraction > 1.0) {
        throw std::invalid_argument("--storm-fraction must be in (0, 1]");
      }
    }
    else if (opts.command == "fsck" && !a.starts_with("-") &&
             opts.fsck_dir.empty()) {
      opts.fsck_dir = a;  // the one positional argument: the directory
    }
    else throw std::invalid_argument("unknown option '" + a + "'");
  }
  // Fail on a bad resilience knob here, before any work starts (the same
  // validate() the runtimes call at construction).
  opts.resilience.validate();
  if ((opts.storm_duration_s > 0.0 || opts.storm_fraction > 0.0) &&
      opts.storm_interval_s == 0.0) {
    throw std::invalid_argument(
        "--storm-duration/--storm-fraction require --storm-interval");
  }
  // Transport flags are proto-only, and the TCP knobs contradict the
  // in-process transport — fail here, before any sockets open.
  const std::string& any_transport_flag =
      !transport_flag.empty() ? transport_flag : tcp_only_flag;
  if (!any_transport_flag.empty() && opts.command != "proto") {
    throw std::invalid_argument("option '" + any_transport_flag +
                                "' is only valid for command 'proto'");
  }
  // The engine knobs configure the simulator; commands that never build a
  // Simulation (proto, trace, plot, fsck, list) must reject them.
  if (!engine_flag.empty() && opts.command != "run" &&
      opts.command != "grid" && opts.command != "tenants") {
    throw std::invalid_argument(
        "option '" + engine_flag +
        "' is only valid for commands run, grid and tenants");
  }
  if (!tcp_only_flag.empty() && opts.transport != "tcp") {
    throw std::invalid_argument(
        "option '" + tcp_only_flag +
        "' requires --transport tcp (transport is '" + opts.transport + "')");
  }
  // Replication flags configure the proto deployment only, and the
  // replication stream is its own TCP connection layered on the in-process
  // worker transport — combining it with --transport tcp is unsupported.
  if (!replication_flag.empty() && opts.command != "proto") {
    throw std::invalid_argument("option '" + replication_flag +
                                "' is only valid for command 'proto'");
  }
  if (!opts.standby_addr.empty() && !opts.standby_serve_addr.empty()) {
    throw std::invalid_argument(
        "--standby and --standby-serve are mutually exclusive (one process "
        "is primary OR standby)");
  }
  if (!commit_flag.empty() && opts.standby_addr.empty()) {
    throw std::invalid_argument("option '" + commit_flag +
                                "' requires --standby (the primary role)");
  }
  if (!replication_flag.empty() && opts.transport == "tcp") {
    throw std::invalid_argument(
        "replication options require --transport inproc (the journal "
        "stream is its own TCP connection)");
  }
  if (!opts.counters_json_path.empty() && opts.command != "run" &&
      opts.command != "proto") {
    throw std::invalid_argument(
        "option '--counters-json' is only valid for commands run and proto");
  }
  if (!opts.fsck_events_path.empty() && opts.command != "fsck") {
    throw std::invalid_argument(
        "option '--events' is only valid for command 'fsck'");
  }
  if (!opts.fsck_events_path.empty() && !opts.fsck_dir.empty()) {
    throw std::invalid_argument(
        "fsck takes either a recovery directory or --events FILE, not both");
  }
  if (opts.tcp_backoff_cap < opts.tcp_backoff_base) {
    throw std::invalid_argument("--backoff-cap must be >= --backoff-base");
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
  // Tenant lists must agree in length before any workload is generated.
  // Without --tenants the canonical 4-tenant mix is used.
  const std::size_t tenant_count =
      opts.tenant_workflows.empty() ? 4 : opts.tenant_workflows.size();
  if (!opts.tenant_weights.empty() &&
      opts.tenant_weights.size() != tenant_count) {
    throw std::invalid_argument(
        "--weights needs one entry per tenant (" +
        std::to_string(tenant_count) + " tenants, " +
        std::to_string(opts.tenant_weights.size()) + " weights)");
  }
  if (!opts.tenant_offsets.empty() &&
      opts.tenant_offsets.size() != tenant_count) {
    throw std::invalid_argument(
        "--offsets needs one entry per tenant (" +
        std::to_string(tenant_count) + " tenants, " +
        std::to_string(opts.tenant_offsets.size()) + " offsets)");
  }
  if (opts.command != "tenants" &&
      (!opts.tenant_workflows.empty() || !opts.tenant_weights.empty() ||
       !opts.tenant_offsets.empty() || opts.misreport != 1.0 ||
       arbiter_flag)) {
    throw std::invalid_argument(
        "--tenants/--arbiter/--weights/--offsets/--misreport are only valid "
        "for command 'tenants'");
  }
  return opts;
}

int run_command(const Options& opts, std::ostream& out) {
  if (opts.command == "help") {
    out << usage();
    return 0;
  }
  if (opts.command == "list") return cmd_list(out);
  if (opts.command == "trace") return cmd_trace(opts, out);
  if (opts.command == "run") return cmd_run(opts, out);
  if (opts.command == "proto") return cmd_proto(opts, out);
  if (opts.command == "grid") return cmd_grid(opts, out);
  if (opts.command == "tenants") return cmd_tenants(opts, out);
  if (opts.command == "plot") return cmd_plot(opts, out);
  if (opts.command == "fsck") return cmd_fsck(opts, out);
  throw std::logic_error("unreachable command");
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
