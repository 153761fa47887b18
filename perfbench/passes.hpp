#pragma once

// The benchmark's two workloads. A pass generates one workload's inputs
// from a seed, builds the runtime (set-up), runs it to completion (the
// timed phase), and returns what the output checks and metrics need. The
// traced twin of a pass runs the same program on the same inputs with
// spans and timing decorators attached (trace.hpp).

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Workload { PaperGrid, ProtoTopeft };

std::optional<Workload> parse_workload(std::string_view name);

/// Distinct workload seeds one run cycles through (seed, seed + 1, ...).
/// Every run covers each of them at least twice.
std::size_t seed_cycle(Workload w);

/// One simulation cell, or the one protocol run of a proto_topeft pass.
struct Cell {
  std::string label;
  std::size_t tasks = 0;
  std::size_t completed = 0;
  std::size_t fatal = 0;
  std::array<double, 3> awe{};  ///< cores, memory, disk
  /// Per resource: allocation = consumption + fragmentation + failed
  /// allocation, and 0 <= AWE <= 1.
  bool accounting_ok = false;
  // Fidelity keys compared between the untraced and the traced pass.
  double makespan_s = 0.0;
  std::uint64_t events = 0;
  std::string fingerprint;  ///< proto: ProtocolManager::snapshot_body()
};

struct PassResult {
  std::uint64_t seed = 0;
  double setup_s = 0.0;  ///< input generation + runtime construction
  double run_s = 0.0;    ///< the timed phase
  std::vector<Cell> cells;

  std::size_t tasks() const noexcept;
  std::size_t completed() const noexcept;
  /// Mean AWE over the cells.
  std::array<double, 3> awe() const noexcept;
};

/// Per-layer state of a traced run: the tracer, the hot layers, and the
/// counters read from the program's own results.
struct TraceContext {
  TraceContext();

  Tracer tracer;
  AllocLayers alloc{tracer};
  StorageLayers storage{tracer};
  HotLayer agent_pump{tracer, "agent.pump"};

  // Span names.
  std::uint32_t pass_span, generate_span, setup_span, run_span, step_span,
      pump_span;

  // Counters summed over traced passes.
  std::size_t passes = 0;
  std::uint64_t tasks = 0;
  std::uint64_t ready_samples = 0;
  double ready_sum = 0.0;
  std::uint64_t ready_max = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t sim_attempts = 0;
  std::uint64_t sim_failed_attempts = 0;
  std::uint64_t sim_evictions = 0;
  std::uint64_t mgr_dispatches = 0;
  std::uint64_t wire_messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t codec_messages = 0;
  std::int64_t decode_ns = 0;
  std::int64_t encode_ns = 0;
  /// Passes whose wire lines did not all decode and re-encode to themselves.
  std::uint64_t codec_failures = 0;
  core::RecoveryCounters recovery;

  void note_ready(std::size_t ready_len) noexcept;
};

/// Runs one pass of `w` on the inputs made from `seed`. With `trace`, runs
/// the traced twin instead. With `setup_only`, does the set-up and stops.
PassResult run_pass(Workload w, std::uint64_t seed, TraceContext* trace,
                    bool setup_only = false);

/// Why a pass's outputs are wrong, or empty when they pass: every cell's
/// accounting identity and AWE range hold, and its AWE equals `reference`'s
/// (an earlier pass on the same seed) when one is given.
std::string check_pass(const PassResult& pass, const PassResult* reference);

/// Why a traced pass measured a different program than the untraced pass
/// on the same seed, or empty when the results agree exactly.
std::string check_fidelity(const PassResult& untraced,
                           const PassResult& traced);

}  // namespace perfbench
