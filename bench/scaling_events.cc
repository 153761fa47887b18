// Engine scaling headline: the calendar queue vs the binary heap it replaced
// (the test oracle tests/oracles/heap_queue.hpp) on a queue-storm shaped
// like the paper's large dynamic workflows — one
// million task submissions spread over the run plus ten thousand workers'
// churn events, then a sustained hold pattern (every pop schedules a
// successor, the steady state of a simulation where each attempt finish
// books the next one). The classic hold model keeps the pending set at full
// size for the whole measurement, which is exactly where a binary heap's
// O(log n) levels of cache-missing sift dominate and the calendar's
// banded O(1) routing pays off.
//
// Both queues consume the identical push schedule and must pop the
// bit-identical (time, seq) sequence — an FNV checksum over every popped
// event gates the binary.
//
// Emits BENCH_events.json (uploaded by the Release CI job) and, when given
// a committed baseline, enforces a 3x regression guard on the calendar
// engine's events/s at full scale.
//
// Usage: scaling_events [--smoke] [out.json [baseline.json]]
//   --smoke: parity-only quick pass (~50k events) for the sanitizer jobs;
//            no JSON, no guard, no speedup assertion.

#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "oracles/heap_queue.hpp"
#include "sim/calendar_queue.hpp"
#include "util/rng.hpp"

#include "guard.hpp"

namespace {

using tora::oracles::BinaryHeapQueue;
using tora::sim::CalendarQueue;
using tora::sim::Event;
using tora::sim::EventKind;
using tora::util::Rng;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

std::uint64_t event_mix(std::uint64_t h, const Event& e) {
  h = mix(h, std::bit_cast<std::uint64_t>(e.time));
  h = mix(h, static_cast<std::uint64_t>(e.kind));
  h = mix(h, e.a);
  return mix(h, e.seq);
}

struct StormShape {
  std::size_t tasks = 0;       ///< submit events prefilled
  std::size_t workers = 0;     ///< join/leave pairs prefilled
  std::size_t hold_ops = 0;    ///< pop+push cycles at steady state
  double horizon_s = 0.0;      ///< prefill spread
};

struct StormResult {
  double wall_s = 0.0;
  double events_per_s = 0.0;   ///< pops per wall second
  std::uint64_t checksum = 0;
  std::uint64_t pops = 0;
};

/// Drives one engine through the storm: prefill the full pending set, then
/// hold (each pop books a successor a bit later), then drain. The push
/// schedule is derived deterministically from the POPPED events, so both
/// engines — which must pop identically — see the identical schedule.
template <typename Queue>
StormResult run_storm(const StormShape& s) {
  Queue q;
  StormResult r;
  std::uint64_t h = 1469598103934665603ull;
  Rng rng(4242);
  const auto t0 = std::chrono::steady_clock::now();
  // Prefill: task submits spread over the horizon (a manager flooding a
  // large dynamic workflow in) plus per-worker join/leave pairs.
  for (std::size_t i = 0; i < s.tasks; ++i) {
    q.push(rng.uniform(0.0, s.horizon_s), EventKind::TaskSubmit, i);
  }
  for (std::size_t w = 0; w < s.workers; ++w) {
    const double join = rng.uniform(0.0, s.horizon_s * 0.5);
    q.push(join, EventKind::WorkerJoin, w);
    q.push(join + rng.exponential(1.0 / (s.horizon_s * 0.25)),
           EventKind::WorkerLeave, w);
  }
  // Hold: steady state at full queue size. The successor offset is a cheap
  // hash of the popped event's seq (not a draw from the shared rng), so the
  // schedule depends only on pop order — identical across engines — and the
  // per-op overhead outside the queue stays negligible next to the queue
  // operations being measured.
  for (std::size_t i = 0; i < s.hold_ops; ++i) {
    const Event e = q.pop();
    h = event_mix(h, e);
    ++r.pops;
    const std::uint64_t z = (e.seq + 1) * 0x9e3779b97f4a7c15ull;
    const double offset =
        1.0 + static_cast<double>(z >> 40) * (60.0 / 16777216.0);
    q.push(e.time + offset, EventKind::AttemptFinish, e.a, e.b, e.epoch);
  }
  // Drain what remains.
  while (!q.empty()) {
    h = event_mix(h, q.pop());
    ++r.pops;
  }
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.events_per_s = static_cast<double>(r.pops) / r.wall_s;
  r.checksum = h;
  return r;
}

struct ScaleRow {
  StormShape shape;
  StormResult heap, calendar;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool smoke = false;
  if (!args.empty() && args[0] == "--smoke") {
    smoke = true;
    args.erase(args.begin());
  }
  const std::string out_path = !args.empty() ? args[0] : "BENCH_events.json";
  const std::string baseline_path = args.size() > 1 ? args[1] : "";

  // The ladder up to the headline: 1M tasks x 10k workers held at full
  // queue size. Smoke keeps only a ~50k-event parity pass.
  std::vector<StormShape> shapes;
  if (smoke) {
    shapes.push_back({20000, 500, 25000, 1e5});
  } else {
    shapes.push_back({10000, 100, 100000, 1e4});
    shapes.push_back({100000, 1000, 400000, 1e5});
    shapes.push_back({1000000, 10000, 2000000, 1e6});
  }

  std::vector<ScaleRow> rows;
  bool all_match = true;
  for (const StormShape& s : shapes) {
    ScaleRow row;
    row.shape = s;
    row.heap = run_storm<BinaryHeapQueue>(s);
    row.calendar = run_storm<CalendarQueue>(s);
    const bool match = row.heap.checksum == row.calendar.checksum &&
                       row.heap.pops == row.calendar.pops;
    if (!match) {
      std::cerr << "tasks " << s.tasks
                << ": calendar pop sequence DIVERGED from the heap\n";
      all_match = false;
    }
    std::cout << "storm " << s.tasks << " tasks x " << s.workers
              << " workers (" << row.heap.pops << " events)\n"
              << "  heap:     " << row.heap.events_per_s / 1e6
              << " M events/s  (" << row.heap.wall_s << " s)\n"
              << "  calendar: " << row.calendar.events_per_s / 1e6
              << " M events/s  (" << row.calendar.wall_s << " s), order "
              << (match ? "match" : "MISMATCH") << ", speedup "
              << row.calendar.events_per_s / row.heap.events_per_s << "x\n";
    rows.push_back(row);
  }

  if (!all_match) return 1;
  if (smoke) {
    std::cout << "smoke parity OK\n";
    return 0;
  }

  const ScaleRow& top = rows.back();
  const double speedup = top.calendar.events_per_s / top.heap.events_per_s;
  const double guard = top.calendar.events_per_s;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"benchmark\": \"scaling_events\",\n"
      << "  \"series\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    out << "    {\"tasks\": " << r.shape.tasks
        << ", \"workers\": " << r.shape.workers
        << ", \"events\": " << r.heap.pops << ",\n"
        << "     \"heap_events_per_s\": " << r.heap.events_per_s
        << ", \"calendar_events_per_s\": " << r.calendar.events_per_s << ",\n"
        << "     \"speedup\": "
        << r.calendar.events_per_s / r.heap.events_per_s
        << ", \"order_matches\": true}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n"
      << "  \"speedup_at_max_scale\": " << speedup << ",\n"
      << "  \"guard_events_per_s\": " << guard << "\n"
      << "}\n";

  // The committed BENCH_events.json demonstrates the >= 3x headline on a
  // quiet machine; the in-binary floor is looser (2x) so shared CI runners
  // with noisy neighbours don't flake on the margin. A real engine
  // regression lands far below 2x (the heap itself is 1.0x).
  if (speedup < 2.0) {
    std::cerr << "headline speedup " << speedup
              << "x at full scale is below the 2x sanity floor\n";
    return 1;
  }

  if (!baseline_path.empty()) {
    const double base =
        tora::bench::read_guard(baseline_path, "guard_events_per_s");
    if (!tora::bench::within_guard(guard, base, tora::bench::Better::Higher)) {
      std::cerr << "perf regression: calendar engine " << guard
                << " events/s at full scale is below 1/3 of the committed "
                << "baseline (" << base << " events/s)\n";
      return 1;
    }
    std::cout << "regression guard: " << guard << " events/s vs baseline "
              << base << " events/s (limit 1/3)\n";
  }
  return 0;
}
