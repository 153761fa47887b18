#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/resilience/resilience.hpp"
#include "sim/worker_pool.hpp"

namespace tora::cli {

/// Parsed command-line options for the `tora` driver binary.
///
/// Subcommands:
///   run     — simulate one workflow under one policy, print the report
///   proto   — drive the manager/worker wire protocol (inproc or TCP)
///   grid    — the full Fig. 5-style AWE grid
///   tenants — multi-tenant fair-sharing run: several workflows share the
///             pool through a pluggable arbiter; per-tenant report
///   trace   — dump a generated workload as CSV
///   plot    — render an AWE CSV (fig5_awe.csv / `grid --out`) as ASCII bars
///   fsck    — offline inspection of a recovery directory: per-generation
///             CRC/journal health and which generation recovery would use
///   list    — print known policies, workflows and arbiters
struct Options {
  std::string command;  // "run"|"proto"|"grid"|"tenants"|"trace"|"plot"|
                        // "fsck"|"list"|"help"
  std::string workflow;             // name or path to a trace CSV
  std::string policy = "exhaustive_bucketing";
  std::string csv_path;             // plot: input CSV
  std::string resource_filter;      // plot: e.g. "memory_mb"
  std::string workflow_filter;      // plot: e.g. "topeft"
  std::vector<std::string> workflows;  // grid
  std::vector<std::string> policies;   // grid
  std::uint64_t seed = 7;
  std::size_t workers = 35;
  bool churn = true;
  sim::Placement placement = sim::Placement::FirstFit;
  double submit_interval_s = 5.0;
  std::size_t replications = 1;     // grid: >1 prints mean +/- sd cells
  std::string output_path;  // trace: destination; run: optional CSV metrics
  std::string trace_log;    // run: optional per-event CSV log
  /// Churn-adaptive resilience layer (--deadline-quantile, --speculation,
  /// --storm-threshold). Validated at parse time, so a bad knob fails
  /// before any work starts.
  core::resilience::ResilienceConfig resilience;
  /// Eviction-storm scenario knobs for the simulated pool (--storm-interval
  /// / --storm-duration / --storm-fraction).
  double storm_interval_s = 0.0;
  double storm_duration_s = 0.0;
  double storm_fraction = 0.0;
  /// proto: "inproc" pumps manager and agents over in-process channels;
  /// "tcp" runs the same pair over loopback sockets through the session
  /// layer. The TCP-only knobs (--listen / --backoff-*) contradict
  /// --transport inproc and are rejected at parse time.
  std::string transport = "inproc";
  std::string tcp_host = "127.0.0.1";  // --listen HOST:PORT
  std::uint16_t tcp_port = 0;          // 0 picks an ephemeral port
  double tcp_backoff_base = 1.0;       // --backoff-base
  double tcp_backoff_cap = 16.0;       // --backoff-cap
  /// tenants: workflow names sharing the pool (--tenants a,b,...; empty =
  /// the canonical topeft/colmena/synthetic mix), the arbiter, and the
  /// optional per-tenant weight/arrival lists (must match --tenants in
  /// length; validated at parse).
  std::vector<std::string> tenant_workflows;
  std::string arbiter = "drf";
  std::vector<double> tenant_weights;
  std::vector<double> tenant_offsets;
  /// tenants: the LAST tenant inflates its reported demand by this factor
  /// (>= 1; 1 = everyone honest) — the misreporting stress knob.
  double misreport = 1.0;
  /// fsck: the recovery directory to inspect (positional argument).
  std::string fsck_dir;
  /// fsck: validate a canonical sim event-frame snapshot file instead of a
  /// recovery directory (--events FILE; typed SnapshotError detail).
  std::string fsck_events_path;
  /// proto: replicate the journal to a hot standby at HOST:PORT
  /// (--standby; primary role) or serve as that standby (--standby-serve).
  /// Mutually exclusive; both imply journaling and require the in-process
  /// worker transport.
  std::string standby_addr;
  std::string standby_serve_addr;
  /// proto --standby: commit mode at durability barriers
  /// (--commit-mode sync|async) and the async bounded-lag cap
  /// (--replication-lag-cap N records).
  std::string commit_mode = "sync";
  std::size_t replication_lag_cap = 64;
  /// run|proto: dump every counter family the run produced as one JSON
  /// object to this path (--counters-json).
  std::string counters_json_path;
};

/// Parses argv (excluding argv[0]) against the option table in cli.cpp:
/// each flag is valid only for the commands that read it. Throws
/// std::invalid_argument with a user-facing message on malformed input.
Options parse_options(const std::vector<std::string>& args);

/// Splits a comma-separated list, dropping empty items.
std::vector<std::string> split_list(const std::string& csv);

/// Executes a parsed command, writing human output to `out`.
/// Returns a process exit code.
int run_command(const Options& opts, std::ostream& out);

/// Full driver: parse + execute, reporting errors on `err`.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// The usage/help text.
std::string usage();

}  // namespace tora::cli
