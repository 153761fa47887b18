// The end-to-end benchmark binary. Runs one workload for a fixed time and
// prints its metrics; the last line of stdout is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). See README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans F]

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "passes.hpp"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::PaperGrid;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) throw std::invalid_argument("unknown workload: " + value);
      a.workload = *w;
      a.workload_name = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = a.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--spans FILE]");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// VmHWM, the peak resident set of this process image. getrusage's
// ru_maxrss would not do: Linux carries it across exec, so it starts at the
// launching process's own peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Moves this single-threaded process onto cpus[i % size], best effort. On a
// shared host the other tenants load each virtual CPU differently: at one
// moment the same pass ran up to 40% slower on one CPU than on another. A
// run that stayed wherever the scheduler first put it would report that
// CPU's speed, so runs rotate their passes over every allowed CPU instead.
void move_to_cpu(const std::vector<int>& cpus, std::size_t i) {
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[i % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Metrics in print order, with their units.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  void print(const Args& args, const std::string& header, bool correct,
             std::uint64_t attempted, std::uint64_t failed) const {
    std::cout << header << "\n";
    for (const Row& r : rows_) {
      std::printf("  %-28s %18.6f %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
    std::cout << "  seed " << args.seed << ", correct "
              << (correct ? "true" : "false") << ", tasks attempted "
              << attempted << ", failed " << failed << "\n";
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      json << (i ? ", " : "") << '"' << rows_[i].name << "\": {\"value\": "
           << rows_[i].value << ", \"unit\": \"" << rows_[i].unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Outcome bookkeeping shared by both kinds of run.
struct Tally {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts a pass; a pass that failed a check counts all its tasks failed.
  void add(const PassResult& r, const std::string& error) {
    attempted += r.tasks();
    if (error.empty()) {
      failed += r.tasks() - r.completed();
    } else {
      failed += r.tasks();
      correct = false;
      std::cerr << "perfbench: seed " << r.seed << ": " << error << "\n";
    }
  }
};

constexpr std::size_t kMinSetupSamples = 7;

double elapsed_s(std::int64_t since) {
  return 1e-9 * static_cast<double>(now_ns() - since);
}

// The end-to-end run: passes on seeds seed, seed+1, .., seed+K-1, seed, ..
// until `seconds` have passed and every seed of the cycle ran at least
// twice. Every repeat of a seed is checked for AWE identical to its first
// pass.
int run_untraced(const Args& args) {
  const std::size_t cycle = seed_cycle(args.workload);
  struct PerSeed {
    PassResult first;  ///< the seed's first pass (reference for re-runs)
    double fastest_run_s = std::numeric_limits<double>::infinity();
  };
  std::vector<PerSeed> per_seed(cycle);
  std::vector<double> setup_s;
  Tally tally;
  const std::vector<int> cpus = allowed_cpus();
  const std::int64_t start = now_ns();
  std::size_t i = 0;
  for (; i < 2 * cycle || elapsed_s(start) < args.seconds; ++i) {
    // Round r of the cycle runs seed k on CPU k + r, so each seed visits
    // every CPU.
    move_to_cpu(cpus, i % cycle + i / cycle);
    PerSeed& s = per_seed[i % cycle];
    PassResult r = run_pass(args.workload, args.seed + i % cycle, nullptr);
    tally.add(r, check_pass(r, i < cycle ? nullptr : &s.first));
    const auto awe = r.awe();
    std::fprintf(stderr,
                 "pass %zu seed %llu: set-up %.4f s, run %.4f s, AWE %.4f "
                 "%.4f %.4f\n",
                 i, static_cast<unsigned long long>(r.seed), r.setup_s,
                 r.run_s, awe[0], awe[1], awe[2]);
    setup_s.push_back(r.setup_s);
    s.fastest_run_s = std::min(s.fastest_run_s, r.run_s);
    if (i < cycle) {
      for (Cell& c : r.cells) c.fingerprint = std::string();
      s.first = std::move(r);
    }
  }
  const std::size_t passes = i;
  // More set-up samples when the passes were too few to give a median.
  for (; setup_s.size() < kMinSetupSamples; ++i) {
    setup_s.push_back(
        run_pass(args.workload, args.seed + i % cycle, nullptr, true).setup_s);
  }

  // Each seed of the cycle counts once: its tasks over the time of its
  // fastest pass. Other tenants of a shared host only ever slow a pass
  // down, often for tens of seconds at a time, so the fastest of a seed's
  // repeats is the steadiest estimate of the program's own speed.
  double tasks = 0.0, seconds = 0.0;
  std::array<double, 3> awe{};
  for (const PerSeed& s : per_seed) {
    tasks += static_cast<double>(s.first.completed());
    seconds += s.fastest_run_s;
    const auto a = s.first.awe();
    for (std::size_t k = 0; k < awe.size(); ++k) {
      awe[k] += a[k] / static_cast<double>(cycle);
    }
  }

  Report report;
  report.add("tasks_per_s", ratio(tasks, seconds), "1/s");
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("awe_cores", awe[0], "ratio");
  report.add("awe_memory", awe[1], "ratio");
  report.add("awe_disk", awe[2], "ratio");
  report.add("success_frac",
             1.0 - ratio(static_cast<double>(tally.failed),
                         static_cast<double>(tally.attempted)),
             "ratio");
  std::ostringstream header;
  header << "perfbench " << args.workload_name << ": " << passes
         << " passes on seeds " << args.seed << ".." << args.seed + cycle - 1
         << ", " << setup_s.size() << " set-ups, "
         << elapsed_s(start) << " s";
  report.print(args, header.str(), tally.correct, tally.attempted,
               tally.failed);
  return 0;
}

// The traced run: pairs of an untraced pass and its traced twin on the same
// seed, until `seconds` have passed. Per-pass figures are means over the
// traced passes; the tracing overhead is the median over the pairs, whose
// twins run back to back.
int run_traced(const Args& args) {
  const std::size_t cycle = seed_cycle(args.workload);
  TraceContext ctx;
  Tally tally;
  std::vector<double> slowdown;  ///< traced / untraced time, per pair
  const std::vector<int> cpus = allowed_cpus();
  const std::int64_t start = now_ns();
  std::size_t i = 0;
  for (; i == 0 || elapsed_s(start) < args.seconds; ++i) {
    move_to_cpu(cpus, i);
    // Alternate which twin runs first, so drift in machine speed within a
    // pair does not bias trace.overhead_frac.
    const std::uint64_t seed = args.seed + i % cycle;
    const std::uint64_t codec_failures = ctx.codec_failures;
    PassResult plain, traced;
    if (i % 2 == 0) plain = run_pass(args.workload, seed, nullptr);
    traced = run_pass(args.workload, seed, &ctx);
    if (i % 2 == 1) plain = run_pass(args.workload, seed, nullptr);
    tally.add(plain, check_pass(plain, nullptr));
    std::string error = check_fidelity(plain, traced);
    if (error.empty()) error = check_pass(traced, &plain);
    if (error.empty() && ctx.codec_failures > codec_failures) {
      error = "captured wire lines do not round-trip through the codec";
    }
    tally.add(traced, error);
    slowdown.push_back(ratio(traced.run_s, plain.run_s));
  }

  // Fold span totals and hot layers into per-layer figures.
  const SpanTotals step = ctx.tracer.totals("sim.step");
  const SpanTotals pump = ctx.tracer.totals("mgr.pump");
  const auto num = [](auto v) { return static_cast<double>(v); };
  const auto secs = [&](std::int64_t ns) { return 1e-9 * num(ns); };
  const auto per_pass = [&](double v) { return ratio(v, num(ctx.passes)); };
  const auto per_task = [&](double v) { return ratio(v, num(ctx.tasks)); };
  const CallStats predict = ctx.alloc.predict.total();
  const CallStats retry = ctx.alloc.retry.total();
  const CallStats append = ctx.storage.append.total();
  const CallStats sync = ctx.storage.sync.total();
  const CallStats snap = ctx.storage.snapshot_write.total();

  Report r;
  r.add("workloads.generate_s",
        per_pass(secs(ctx.tracer.totals("generate").busy_ns)), "s");
  r.add("alloc.predict.calls", per_pass(num(predict.calls)), "count");
  r.add("alloc.predict.busy_s", per_pass(predict.busy_s()), "s");
  r.add("alloc.predict.p50_us", 1e-3 * predict.hist.quantile(0.50), "us");
  r.add("alloc.predict.p99_us", 1e-3 * predict.hist.quantile(0.99), "us");
  r.add("alloc.retry.calls", per_pass(num(retry.calls)), "count");
  r.add("alloc.retry.busy_s", per_pass(retry.busy_s()), "s");
  r.add("alloc.retry.p99_us", 1e-3 * retry.hist.quantile(0.99), "us");
  r.add("alloc.observe.busy_s",
        per_pass(ctx.alloc.observe.total().busy_s()), "s");
  r.add("alloc.predicts_per_task", per_task(num(predict.calls)), "count");
  r.add("lifecycle.ready_len.mean",
        ratio(ctx.ready_sum, num(ctx.ready_samples)), "count");
  r.add("lifecycle.ready_len.max", num(ctx.ready_max), "count");
  r.add("sim.step.calls", per_pass(num(step.count)), "count");
  r.add("sim.step.busy_s", per_pass(secs(step.busy_ns)), "s");
  r.add("sim.self_s", per_pass(secs(step.self_ns)), "s");
  r.add("sim.self_ns_per_event", ratio(num(step.self_ns), num(ctx.sim_events)),
        "ns");
  r.add("sim.events", per_pass(num(ctx.sim_events)), "count");
  r.add("sim.attempts", per_pass(num(ctx.sim_attempts)), "count");
  r.add("sim.failed_attempts", per_pass(num(ctx.sim_failed_attempts)),
        "count");
  r.add("sim.evictions", per_pass(num(ctx.sim_evictions)), "count");
  r.add("mgr.pump.calls", per_pass(num(pump.count)), "count");
  r.add("mgr.pump.busy_s", per_pass(secs(pump.busy_ns)), "s");
  r.add("mgr.self_s", per_pass(secs(pump.self_ns)), "s");
  r.add("mgr.pump.max_ms", 1e-6 * num(pump.max_ns), "ms");
  r.add("mgr.dispatches_per_task", per_task(num(ctx.mgr_dispatches)),
        "count");
  r.add("agent.pump.busy_s", per_pass(ctx.agent_pump.total().busy_s()), "s");
  r.add("wire.messages", per_pass(num(ctx.wire_messages)), "count");
  r.add("wire.bytes_per_task", per_task(num(ctx.wire_bytes)), "B");
  r.add("codec.decode_ns_per_msg",
        ratio(num(ctx.decode_ns), num(ctx.codec_messages)), "ns");
  r.add("codec.encode_ns_per_msg",
        ratio(num(ctx.encode_ns), num(ctx.codec_messages)), "ns");
  r.add("journal.records_per_task", per_task(num(ctx.recovery.journal_records)),
        "count");
  r.add("journal.bytes", per_pass(num(ctx.recovery.journal_bytes)), "B");
  r.add("journal.append.busy_s", per_pass(append.busy_s()), "s");
  r.add("journal.sync.calls", per_pass(num(sync.calls)), "count");
  r.add("journal.sync.busy_s", per_pass(sync.busy_s()), "s");
  r.add("snapshot.writes", per_pass(num(snap.calls)), "count");
  r.add("snapshot.bytes", per_pass(num(ctx.storage.snapshot_bytes)), "B");
  r.add("snapshot.write.busy_s", per_pass(snap.busy_s()), "s");
  r.add("trace.overhead_frac", median(slowdown) - 1.0, "ratio");

  if (!args.spans_path.empty()) {
    std::ofstream out(args.spans_path);
    ctx.tracer.write_tsv(out);
    if (!out) {
      std::cerr << "perfbench: cannot write " << args.spans_path << "\n";
    }
  }
  std::ostringstream header;
  header << "perfbench " << args.workload_name << " traced: " << i
         << " untraced + traced pass pairs from seed " << args.seed << ", "
         << ctx.tracer.span_count() << " spans, " << elapsed_s(start)
         << " s";
  r.print(args, header.str(), tally.correct, tally.attempted, tally.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    return args.trace ? perfbench::run_traced(args)
                      : perfbench::run_untraced(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
