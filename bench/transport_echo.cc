// Transport perf smoke: the loopback TCP session layer vs the in-process
// channels it must be interchangeable with.
//
//   1. ECHO RTT: one worker endpoint pings the manager endpoint through
//      the full stack (line framing, session sequencing, acks, epoll) and
//      the manager echoes every frame back. Reports the mean round trip.
//   2. DISPATCH THROUGHPUT: the same workload is run to completion by
//      ProtocolRuntime (in-process links) and TcpProtocolRuntime
//      (lockstep sockets); reports wall time and tasks/second for each.
//
// Emits BENCH_transport.json; given a committed baseline json, enforces a
// 3x guard on the echo RTT and on the TCP dispatch wall time — loose
// enough for a busy CI box, tight enough to catch an accidental busy-wait
// or per-frame allocation storm in the session layer.
//
// Usage: transport_echo [out.json] [baseline.json]

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/task.hpp"
#include "exp/report.hpp"
#include "proto/manager.hpp"
#include "proto/net/endpoint.hpp"
#include "proto/net/tcp_runtime.hpp"

#include "guard.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::TaskSpec;

constexpr std::size_t kEchoFrames = 2000;
constexpr std::size_t kDispatchTasks = 200;
constexpr std::size_t kWorkers = 4;
constexpr ResourceVector kCapacity{16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Mean round-trip time (microseconds) of kEchoFrames application frames
/// worker -> manager -> worker through established sessions.
double echo_rtt_us() {
  tora::proto::net::TcpTransportConfig cfg;  // port 0: ephemeral
  tora::proto::net::ManagerEndpoint mgr(1, cfg);
  tora::proto::net::TcpTransportConfig wcfg = cfg;
  wcfg.port = mgr.port();
  tora::proto::net::WorkerEndpoint wep(0, wcfg);

  double now = 0.0;
  while (!wep.established() || !mgr.worker_connected(0)) {
    mgr.pump_io(now, 0);
    wep.pump_io(now, 0);
    now += 0.01;
  }

  const std::string payload =
      "ping seq=0 pad=0123456789abcdef0123456789abcdef";
  const auto& link = mgr.links()[0];
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kEchoFrames; ++i) {
    wep.link()->to_manager.send(payload);
    for (;;) {
      wep.pump_io(now, 0);
      mgr.pump_io(now, 0);
      if (auto f = link->to_manager.poll()) {
        link->to_worker.send(std::move(*f));
        break;
      }
    }
    for (;;) {
      mgr.pump_io(now, 0);
      wep.pump_io(now, 0);
      if (wep.link()->to_worker.poll()) break;
    }
    now += 1e-4;  // keep backoff/keepalive clocks moving, far below windows
  }
  return seconds_since(t0) * 1e6 / static_cast<double>(kEchoFrames);
}

std::vector<TaskSpec> dispatch_workload() {
  std::vector<TaskSpec> tasks(kDispatchTasks);
  for (std::size_t i = 0; i < kDispatchTasks; ++i) {
    tasks[i].id = i;
    tasks[i].category = "mix";
    tasks[i].demand = ResourceVector{2.0, 4000.0, 2000.0, 0.0};
    tasks[i].duration_s = 30.0;
  }
  return tasks;
}

struct DispatchResult {
  double wall_s = 0.0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
};

DispatchResult run_inproc(const std::vector<TaskSpec>& tasks) {
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7, kCapacity);
  tora::proto::ProtocolRuntime rt(tasks, alloc, kWorkers, kCapacity);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = rt.run();
  DispatchResult d;
  d.wall_s = seconds_since(t0);
  d.messages = r.messages;
  d.bytes = r.bytes;
  if (r.tasks_completed != tasks.size()) {
    throw std::runtime_error("inproc dispatch run did not complete");
  }
  return d;
}

DispatchResult run_tcp(const std::vector<TaskSpec>& tasks) {
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7, kCapacity);
  tora::proto::net::TcpProtocolRuntime rt(tasks, alloc, kWorkers, kCapacity);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = rt.run();
  DispatchResult d;
  d.wall_s = seconds_since(t0);
  d.messages = r.messages;
  d.bytes = r.bytes;
  if (r.tasks_completed != tasks.size()) {
    throw std::runtime_error("tcp dispatch run did not complete");
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_transport.json";
  const std::string baseline_path = argc > 2 ? argv[2] : "";

  std::cout << "Transport perf smoke: " << kEchoFrames
            << "-frame loopback echo + " << kDispatchTasks << "-task / "
            << kWorkers << "-worker dispatch, inproc vs tcp\n\n";

  const double rtt_us = echo_rtt_us();
  const DispatchResult inproc = run_inproc(dispatch_workload());
  const DispatchResult tcp = run_tcp(dispatch_workload());
  const double tcp_tasks_per_s =
      tcp.wall_s > 0.0 ? static_cast<double>(kDispatchTasks) / tcp.wall_s : 0.0;

  tora::exp::TextTable table(
      {"metric", "inproc", "tcp", "tcp/inproc"});
  table.add_row({"dispatch wall (ms)", tora::exp::fmt(inproc.wall_s * 1e3, 2),
                 tora::exp::fmt(tcp.wall_s * 1e3, 2),
                 inproc.wall_s > 0.0
                     ? tora::exp::fmt(tcp.wall_s / inproc.wall_s, 1) + "x"
                     : "-"});
  table.add_row({"messages", std::to_string(inproc.messages),
                 std::to_string(tcp.messages), "-"});
  table.add_row({"bytes", std::to_string(inproc.bytes),
                 std::to_string(tcp.bytes), "-"});
  table.print(std::cout);
  std::cout << "\necho RTT mean " << tora::exp::fmt(rtt_us, 2)
            << " us over " << kEchoFrames << " frames; tcp dispatch "
            << tora::exp::fmt(tcp_tasks_per_s, 0) << " tasks/s\n";

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"benchmark\": \"transport_echo\",\n"
       << "  \"echo_frames\": " << kEchoFrames << ",\n"
       << "  \"dispatch_tasks\": " << kDispatchTasks << ",\n"
       << "  \"workers\": " << kWorkers << ",\n"
       << "  \"guard_echo_rtt_us\": " << rtt_us << ",\n"
       << "  \"guard_tcp_dispatch_s\": " << tcp.wall_s << ",\n"
       << "  \"inproc_dispatch_s\": " << inproc.wall_s << ",\n"
       << "  \"tcp_tasks_per_s\": " << tcp_tasks_per_s << ",\n"
       << "  \"inproc_messages\": " << inproc.messages << ",\n"
       << "  \"tcp_messages\": " << tcp.messages << ",\n"
       << "  \"tcp_bytes\": " << tcp.bytes << "\n"
       << "}\n";

  // Wall-clock guard: 3x headroom absorbs CI noise; an accidental
  // busy-wait, sleep, or per-frame allocation storm blows straight past it.
  bool ok = true;
  if (!baseline_path.empty()) {
    using tora::bench::Better;
    const double base_rtt =
        tora::bench::read_guard(baseline_path, "guard_echo_rtt_us");
    const double base_dispatch =
        tora::bench::read_guard(baseline_path, "guard_tcp_dispatch_s");
    if (!tora::bench::within_guard(rtt_us, base_rtt, Better::Lower)) {
      std::cerr << "regression: echo RTT " << rtt_us
                << " us exceeds 3x the committed baseline (" << base_rtt
                << " us)\n";
      ok = false;
    }
    if (!tora::bench::within_guard(tcp.wall_s, base_dispatch, Better::Lower)) {
      std::cerr << "regression: tcp dispatch " << tcp.wall_s
                << " s exceeds 3x the committed baseline (" << base_dispatch
                << " s)\n";
      ok = false;
    }
    if (ok) {
      std::cout << "regression guard: rtt " << tora::exp::fmt(rtt_us, 2)
                << " us vs " << tora::exp::fmt(base_rtt, 2)
                << " us, dispatch " << tora::exp::fmt(tcp.wall_s, 3)
                << " s vs " << tora::exp::fmt(base_dispatch, 3)
                << " s (limit 3x)\n";
    }
  }
  return ok ? 0 : 1;
}
