// Hostile-network coverage for the TCP transport: wire-level faults
// through the deterministic FaultProxy (latency, byte corruption,
// mid-frame truncation, RST storms, accept refusal), the
// reconnect-during-in-flight-result window with exactly-once accounting,
// handshake fuzzing (no manager state mutation on garbage hellos), and
// manager crash + connection loss + session resume through
// RecoverableTcpRuntime, and the storage-failure guards both journaled
// runtimes share.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/recovery/crash.hpp"
#include "core/recovery/faulty_storage.hpp"
#include "core/recovery/storage.hpp"
#include "core/registry.hpp"
#include "core/task.hpp"
#include "oracles/v1_formats.hpp"
#include "proto/manager.hpp"
#include "proto/net/endpoint.hpp"
#include "proto/net/fault_proxy.hpp"
#include "proto/net/session.hpp"
#include "proto/net/socket.hpp"
#include "proto/net/tcp_runtime.hpp"
#include "proto/recovery_runtime.hpp"
#include "proto/worker_agent.hpp"
#include "util/io.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::TaskSpec;
using tora::core::recovery::CrashSchedule;
using tora::core::recovery::FaultyStorage;
using tora::core::recovery::ManagerCrashPoint;
using tora::core::recovery::MemStorage;
using tora::core::recovery::RecoveryConfig;
using tora::core::recovery::ScheduledCrash;
using tora::core::recovery::Storage;
using tora::core::recovery::StorageFaultPlan;
using tora::proto::ChaosConfig;
using tora::proto::LivenessConfig;
using tora::proto::ProtocolManager;
using tora::proto::RecoverableProtocolRuntime;
using tora::proto::RecoveryRunResult;
using tora::proto::WorkerAgent;
using tora::proto::net::connect_start;
using tora::proto::net::Fd;
using tora::proto::net::ManagerEndpoint;
using tora::proto::net::RecoverableTcpRuntime;
using tora::proto::net::TcpProtocolRuntime;
using tora::proto::net::TcpTransportConfig;
using tora::proto::net::WireFaultPlan;
using tora::proto::net::WorkerEndpoint;
namespace io = tora::util::io;

constexpr ResourceVector kCapacity{16.0, 65536.0, 65536.0, 0.0};

std::vector<TaskSpec> mixed_tasks(std::size_t n) {
  std::vector<TaskSpec> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    TaskSpec t;
    t.id = i;
    t.category = i % 3 == 0 ? "heavy" : "light";
    t.demand = i % 3 == 0 ? ResourceVector{2.0, 3000.0, 200.0}
                          : ResourceVector{1.0, 400.0, 40.0};
    t.duration_s = 10.0 + static_cast<double>(i % 5);
    t.peak_fraction = 0.5;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

/// Fast reconnects + wide liveness windows: chaos runs should spend their
/// rounds completing work, not aging tick-denominated detectors.
TcpTransportConfig chaos_tcp(std::uint64_t seed) {
  TcpTransportConfig cfg;
  cfg.backoff_base = 0.25;
  cfg.backoff_cap = 2.0;
  cfg.seed = seed;
  return cfg;
}

ChaosConfig wide_liveness() {
  ChaosConfig chaos;
  chaos.liveness.silence_ticks = 64;
  chaos.liveness.attempt_timeout_ticks = 96;
  chaos.liveness.worker_failure_limit = 64;
  return chaos;
}

// ------------------------------------------------------------ proxy runs

/// Runs `task_count` mixed tasks on 2 workers through the proxy and returns
/// the number of faults it injected.
std::size_t expect_chaos_run_completes(const WireFaultPlan& plan,
                                       std::uint64_t seed,
                                       std::size_t task_count = 18) {
  const auto tasks = mixed_tasks(task_count);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  TcpProtocolRuntime runtime(tasks, alloc, 2, kCapacity, chaos_tcp(seed),
                             wide_liveness(), plan);
  const auto result = runtime.run();
  EXPECT_EQ(result.tasks_completed, tasks.size());
  EXPECT_EQ(result.tasks_fatal, 0u);
  return runtime.proxy()->faults_injected();
}

TEST(TcpChaos, PureLatencyStillCompletes) {
  WireFaultPlan plan;
  plan.latency_steps = 3;
  expect_chaos_run_completes(plan, 11);
}

TEST(TcpChaos, ByteCorruptionIsDetectedAndSurvived) {
  WireFaultPlan plan;
  plan.corrupt_chunk_prob = 0.02;
  expect_chaos_run_completes(plan, 12);
}

TEST(TcpChaos, MidFrameTruncationIsSurvived) {
  WireFaultPlan plan;
  plan.truncate_prob = 0.01;
  expect_chaos_run_completes(plan, 13);
}

TEST(TcpChaos, RstStormsAreSurvived) {
  WireFaultPlan plan;
  plan.rst_prob = 0.002;
  expect_chaos_run_completes(plan, 14);
}

TEST(TcpChaos, EverythingAtOnceIsSurvived) {
  WireFaultPlan plan;
  plan.latency_steps = 1;
  plan.corrupt_chunk_prob = 0.01;
  plan.truncate_prob = 0.005;
  plan.rst_prob = 0.001;
  const auto tasks = mixed_tasks(18);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  TcpProtocolRuntime runtime(tasks, alloc, 2, kCapacity, chaos_tcp(15),
                             wide_liveness(), plan);
  const auto result = runtime.run();
  EXPECT_EQ(result.tasks_completed, tasks.size());
  EXPECT_EQ(result.tasks_fatal, 0u);
  ASSERT_NE(runtime.proxy(), nullptr);
  EXPECT_GT(runtime.proxy()->faults_injected(), 0u)
      << "the plan must actually have fired for this run to mean anything";
}

// The transport soak's exact configuration (bench/transport_chaos) on the
// seeds that once stalled: the proxy labeled each connection's fault stream
// by the number of live pairs, so every reconnect replayed its
// predecessor's stream and died the same way. Streams keyed by accept
// order let these runs complete.
TEST(TcpChaos, SoakSeedsWithReconnectStormsComplete) {
  WireFaultPlan plan;
  plan.latency_steps = 2;
  plan.corrupt_chunk_prob = 0.05;
  plan.truncate_prob = 0.02;
  plan.rst_prob = 0.01;
  for (std::uint64_t seed : {2, 15, 37, 39, 61, 127}) {
    SCOPED_TRACE(seed);
    EXPECT_GT(expect_chaos_run_completes(plan, seed, 24), 0u)
        << "the plan must actually have fired for this run to mean anything";
  }
}

TEST(TcpChaos, SameSeedSameFaultTrajectory) {
  WireFaultPlan plan;
  plan.corrupt_chunk_prob = 0.02;
  plan.rst_prob = 0.001;
  std::size_t completed[2];
  std::size_t resumed[2];
  for (int i = 0; i < 2; ++i) {
    const auto tasks = mixed_tasks(14);
    auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
    TcpProtocolRuntime runtime(tasks, alloc, 2, kCapacity, chaos_tcp(99),
                               wide_liveness(), plan);
    const auto result = runtime.run();
    completed[i] = result.tasks_completed;
    resumed[i] = result.transport.sessions_resumed;
  }
  EXPECT_EQ(completed[0], completed[1]);
  EXPECT_EQ(resumed[0], resumed[1]);
}

// ------------------------- reconnect during in-flight result (satellite)

// The classic window: the worker has executed a task and its TaskResult is
// queued (or on the wire) when the connection dies. After reconnect +
// session resume the result must be delivered EXACTLY once — completion
// counted once, no duplicate/stale result absorbed as new state — and a
// worker the manager briefly gave up on must charge the eviction ledger
// exactly once.
TEST(TcpChaos, InFlightResultAcrossReconnectCompletesExactlyOnce) {
  const auto tasks = mixed_tasks(8);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);

  TcpTransportConfig cfg = chaos_tcp(21);
  ManagerEndpoint mgr_ep(1, cfg);
  TcpTransportConfig wcfg = cfg;
  wcfg.port = mgr_ep.port();
  WorkerEndpoint wep(0, wcfg);
  WorkerAgent agent(0, kCapacity, tasks, wep.link());
  LivenessConfig liveness;
  liveness.silence_ticks = 64;
  liveness.attempt_timeout_ticks = 96;
  ProtocolManager manager(tasks, alloc, mgr_ep.links(), liveness);

  double now = 0.0;
  auto settle = [&] {
    for (int i = 0; i < 100000; ++i) {
      mgr_ep.pump_io(now, 0);
      wep.pump_io(now, 0);
      if (mgr_ep.quiesced() && wep.quiesced()) return;
      now += 0.01;
    }
    FAIL() << "network failed to settle";
  };

  agent.announce();
  settle();
  manager.start();
  manager.pump();  // register + dispatch the first wave
  settle();
  agent.pump();  // execute: results now sit in the worker's send queue

  // Flush the results onto the wire (the manager endpoint has NOT read
  // them), then kill the connection: sent but unacknowledged — the
  // in-flight window. The RST discards them from the manager's receive
  // buffer, so only the session replay can save them.
  ASSERT_GT(agent.tasks_executed(), 0u);
  wep.pump_io(now, 0);
  wep.kill_connection();

  // Drive to completion; the worker reconnects, resumes, and replays.
  for (int round = 0; round < 5000 && !manager.done(); ++round) {
    now += 1.0;
    manager.pump();
    settle();
    agent.pump();
    settle();
  }
  ASSERT_TRUE(manager.done());
  manager.shutdown_workers();
  settle();
  agent.pump();

  EXPECT_EQ(manager.tasks_completed(), tasks.size());
  EXPECT_EQ(manager.tasks_fatal(), 0u);
  EXPECT_EQ(wep.counters().sessions_resumed, 1u);
  EXPECT_GE(wep.counters().frames_replayed, 1u)
      << "the unacked results must have replayed on resume";
  // The cut healed before any liveness window expired, so the eviction
  // ledger was never charged for this blip...
  EXPECT_DOUBLE_EQ(manager.evicted_alloc().cores(), 0.0);
}

TEST(TcpChaos, SlowReconnectChargesEvictionExactlyOnce) {
  // Same window, but now the reconnect is SLOWER than the silence window:
  // the manager declares the worker dead (one eviction charge for the
  // in-flight attempt), the worker later resumes and replays a result for
  // an attempt the manager already wrote off — which must be absorbed as
  // stale, not double-completed and not double-charged.
  std::vector<TaskSpec> tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    TaskSpec t;
    t.id = i;
    t.category = "serial";
    t.demand = ResourceVector{9.0, 20000.0, 4000.0};  // one at a time
    t.duration_s = 10.0;
    t.peak_fraction = 0.5;
    tasks.push_back(std::move(t));
  }
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);

  TcpTransportConfig cfg = chaos_tcp(22);
  ManagerEndpoint mgr_ep(1, cfg);
  TcpTransportConfig wcfg = cfg;
  wcfg.port = mgr_ep.port();
  WorkerEndpoint wep(0, wcfg);
  WorkerAgent agent(0, kCapacity, tasks, wep.link());
  LivenessConfig liveness;
  liveness.silence_ticks = 4;
  liveness.attempt_timeout_ticks = 6;
  liveness.worker_failure_limit = 64;
  ProtocolManager manager(tasks, alloc, mgr_ep.links(), liveness);

  double now = 0.0;
  auto pump_net = [&](int n) {
    for (int i = 0; i < n; ++i) {
      mgr_ep.pump_io(now, 0);
      wep.pump_io(now, 0);
    }
  };

  agent.announce();
  pump_net(50);
  manager.start();
  manager.pump();
  pump_net(50);
  agent.pump();  // first result queued, unacked
  ASSERT_EQ(agent.tasks_executed(), 1u);
  // Kill the connection AND refuse re-accepts: kill_connection alone
  // retries immediately (it is the fast-reconnect hook), so the refusal is
  // what holds the worker out past the silence window.
  wep.pump_io(now, 0);  // result onto the wire, unread and unacked
  wep.kill_connection();
  mgr_ep.refuse_accepts(true);

  EXPECT_DOUBLE_EQ(manager.evicted_alloc().cores(), 0.0);

  // Age the manager past the silence window: it declares the worker dead
  // and charges the one in-flight attempt to the eviction ledger.
  for (int round = 0; round < 50 && manager.chaos().workers_declared_dead == 0;
       ++round) {
    now += 1.0;
    manager.pump();
    pump_net(5);
  }
  ASSERT_GE(manager.chaos().workers_declared_dead, 1u);
  const double evicted_at_death = manager.evicted_alloc().cores();
  EXPECT_GT(evicted_at_death, 0.0) << "the in-flight attempt must be charged";

  // Let the worker back in; it resumes the session and replays the
  // pre-death result — which the manager must swallow as stale.
  mgr_ep.refuse_accepts(false);
  bool done = false;
  for (int round = 0; round < 4000 && !done; ++round) {
    now += 1.0;
    manager.pump();
    pump_net(20);
    agent.pump();
    pump_net(20);
    done = manager.done();
  }
  ASSERT_TRUE(done);

  EXPECT_EQ(manager.tasks_completed(), tasks.size());
  EXPECT_EQ(manager.tasks_fatal(), 0u);
  // Exactly ONE eviction charge: the requeued attempt completed normally
  // after resume, and the stale replayed result never double-charged.
  EXPECT_EQ(manager.chaos().protocol_evictions, 1u);
  EXPECT_DOUBLE_EQ(manager.evicted_alloc().cores(), evicted_at_death);
  // The replayed pre-death result arrived after the requeue and was
  // swallowed by the staleness gate.
  EXPECT_GE(manager.chaos().stale_or_duplicate_results, 1u);
  EXPECT_EQ(wep.counters().sessions_resumed, 1u);
}

// ----------------------------------------------- handshake fuzz (satellite)

/// Sends raw bytes as a would-be worker, pumps the endpoint, and reports
/// whether the endpoint closed the connection.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port)
      : fd_(connect_start("127.0.0.1", port)) {
    // Loopback connects complete in the kernel (listen backlog) without
    // the endpoint accepting; spin briefly until the socket is bound.
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    for (int i = 0; i < 100000 && fd_.valid(); ++i) {
      if (::getpeername(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                        &len) == 0) {
        break;
      }
    }
  }

  bool connected() const noexcept { return fd_.valid(); }

  void send(std::string_view bytes) {
    std::string pending(bytes);
    for (int i = 0; i < 1000 && !pending.empty(); ++i) {
      const auto r = io::send_some(fd_.get(), pending);
      if (r.status == io::IoStatus::Ok) {
        pending.erase(0, r.bytes);
      } else if (r.status != io::IoStatus::WouldBlock) {
        return;  // peer already closed on us — that is a valid rejection
      }
    }
  }

  /// True when the peer has closed (read sees EOF or reset).
  bool peer_closed() {
    std::string buf;
    for (;;) {
      const auto r = io::recv_some(fd_.get(), buf, 4096);
      if (r.status == io::IoStatus::Eof) return true;
      if (r.status == io::IoStatus::Error) return true;
      if (r.status == io::IoStatus::WouldBlock) return false;
      buf.clear();  // discard whatever the endpoint sent (welcome etc.)
    }
  }

 private:
  Fd fd_;
};

struct EndpointStateProbe {
  std::size_t handshakes_ok;
  std::uint64_t rx0;
  bool connected0;

  static EndpointStateProbe capture(const ManagerEndpoint& ep) {
    return {ep.counters().handshakes_ok, ep.rx_count(0),
            ep.worker_connected(0)};
  }
  bool operator==(const EndpointStateProbe&) const = default;
};

// A worker of another transport version is refused and counted as a
// version mismatch: a version 1 hello (16-digit FNV-1a seal, which no
// version 2 decoder accepts) and a well-sealed hello that says v=1.
TEST(TcpFuzz, OtherVersionHellosAreRefusedAsVersionMismatches) {
  TcpTransportConfig cfg;
  cfg.handshake_timeout = 1.0;
  ManagerEndpoint mgr_ep(1, cfg);
  const std::string hellos[] = {
      tora::oracles::v1::sealed_line("tora!hello",
                                     " v=1 worker=0 token=0 rx=0"),
      tora::proto::net::encode_hello(tora::proto::net::HelloFrame{1, 0, 0, 0}),
  };
  double now = 0.0;
  std::size_t sent = 0;
  for (const std::string& hello : hellos) {
    RawClient client(mgr_ep.port());
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < 20; ++i) mgr_ep.pump_io(now, 0);
    client.send(hello + "\n");
    ++sent;
    now += 0.1;
    for (int i = 0; i < 50; ++i) mgr_ep.pump_io(now, 0);
    const tora::core::TransportCounters& c = mgr_ep.counters();
    EXPECT_EQ(c.version_mismatches, sent) << hello;
    EXPECT_EQ(c.handshakes_rejected, sent) << hello;
    EXPECT_EQ(c.handshakes_ok, 0u) << hello;
    EXPECT_EQ(mgr_ep.connections(), 0u) << hello;
  }
  // Garbage is rejected but is no version mismatch.
  RawClient client(mgr_ep.port());
  for (int i = 0; i < 20; ++i) mgr_ep.pump_io(now, 0);
  client.send("tora!hello crc=0123 v=2 worker=0 token=0 rx=0\n");
  for (int i = 0; i < 50; ++i) mgr_ep.pump_io(now, 0);
  EXPECT_EQ(mgr_ep.counters().version_mismatches, sent);
  EXPECT_EQ(mgr_ep.counters().handshakes_rejected, sent + 1);
}

// A worker that reaches a transport version 1 manager gets a welcome it
// cannot decode: it counts a version mismatch, not a corrupt frame, and
// does not establish the session.
TEST(TcpFuzz, WorkerRefusesAVersionOneWelcome) {
  tora::proto::net::TcpListener listener("127.0.0.1", 0);
  TcpTransportConfig cfg;
  cfg.port = listener.port();
  WorkerEndpoint worker(0, cfg);
  std::optional<Fd> conn;
  for (int i = 0; i < 100000 && !conn; ++i) {
    worker.pump_io(0.0, 0);
    conn = listener.accept();
  }
  ASSERT_TRUE(conn);
  std::string hello;
  for (int i = 0; i < 100000 && hello.find('\n') == std::string::npos; ++i) {
    worker.pump_io(0.0, 0);
    io::recv_some(conn->get(), hello, 4096);
  }
  ASSERT_EQ(hello.rfind("tora!hello crc=", 0), 0u) << hello;
  std::string welcome = tora::oracles::v1::sealed_line(
                            "tora!welcome", " v=1 token=5 rx=0 resume=0") +
                        "\n";
  for (int i = 0; i < 1000 && !welcome.empty(); ++i) {
    const auto r = io::send_some(conn->get(), welcome);
    if (r.status == io::IoStatus::Ok) welcome.erase(0, r.bytes);
  }
  for (int i = 0; i < 200; ++i) worker.pump_io(0.0, 0);
  EXPECT_EQ(worker.counters().version_mismatches, 1u);
  EXPECT_EQ(worker.counters().corrupt_control_frames, 0u);
  EXPECT_FALSE(worker.established());
}

TEST(TcpFuzz, GarbageHellosNeverMutateManagerState) {
  TcpTransportConfig cfg;
  cfg.handshake_timeout = 1.0;
  // The forced-fresh-resume attack legitimately completes a handshake and
  // then goes silent; the keepalive window is what reaps it.
  cfg.session.keepalive_window = 1.0;
  ManagerEndpoint mgr_ep(1, cfg);
  const auto tasks = mixed_tasks(2);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  ProtocolManager manager(tasks, alloc, mgr_ep.links());
  manager.start();

  constexpr std::uint32_t kVersion = tora::proto::net::kTransportVersion;
  const std::string valid = tora::proto::net::encode_hello(
      tora::proto::net::HelloFrame{kVersion, 0, 0, 0});

  std::vector<std::string> attacks;
  // Every strict prefix of a valid hello, framed (broken crc => reject).
  for (std::size_t len = 0; len < valid.size(); ++len) {
    attacks.push_back(valid.substr(0, len) + "\n");
  }
  // Oversized hello: blows past max_hello_bytes.
  attacks.push_back("tora!hello " + std::string(1024, 'x') + "\n");
  // Unframed oversized garbage: must poison the frame reader.
  attacks.push_back(std::string(128 * 1024, 'z'));
  // Binary garbage.
  attacks.push_back(std::string("\x00\xff\x7f\n\n\x01\n", 7));
  // Valid CRC discipline but wrong verb (an app frame before handshake).
  attacks.push_back("heartbeat worker=0\n");
  // Wrong version.
  attacks.push_back(tora::proto::net::encode_hello(
                        tora::proto::net::HelloFrame{7, 0, 0, 0}) +
                    "\n");
  // Out-of-range worker id.
  attacks.push_back(tora::proto::net::encode_hello(
                        tora::proto::net::HelloFrame{kVersion, 999, 0, 0}) +
                    "\n");
  // Impossible resume claim: token nobody minted, absurd rx. (The endpoint
  // answers with a FRESH session rather than rejecting — livelock safety —
  // but the fuzz invariant holds: no app frame crossed, rx stays 0.)
  attacks.push_back(tora::proto::net::encode_hello(
                        tora::proto::net::HelloFrame{kVersion, 0, 0xabcdef, 1000}) +
                    "\n");

  const std::string manager_before = manager.snapshot_body();
  double now = 0.0;
  for (const auto& attack : attacks) {
    const auto before = EndpointStateProbe::capture(mgr_ep);
    RawClient client(mgr_ep.port());
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < 20; ++i) mgr_ep.pump_io(now, 0);
    client.send(attack);
    now += 0.1;
    for (int i = 0; i < 50; ++i) mgr_ep.pump_io(now, 0);
    // Age out anything the deadline enforcement should reap.
    now += 2.0;
    for (int i = 0; i < 50; ++i) mgr_ep.pump_io(now, 0);

    const auto after = EndpointStateProbe::capture(mgr_ep);
    // The forced-fresh resume case legitimately mints a session; every
    // other attack must leave the handshake counter untouched.
    if (after.handshakes_ok == before.handshakes_ok) {
      EXPECT_EQ(after.rx0, before.rx0) << "attack leaked an app frame";
    }
    EXPECT_EQ(after.rx0, 0u);
    EXPECT_EQ(mgr_ep.connections(), 0u)
        << "fuzzed connection must be reaped, attack size " << attack.size();
    // And the manager itself never saw a byte of any of it.
    manager.pump();
    EXPECT_EQ(manager.chaos().malformed_lines, 0u);
  }
  EXPECT_GT(mgr_ep.counters().handshakes_rejected +
                mgr_ep.counters().oversized_frames,
            attacks.size() / 2);
  // Bit-exact: thousands of hostile bytes, zero manager state mutation
  // beyond its own tick counter advancing.
  auto alloc2 = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  (void)manager_before;  // tick advanced via pump; compare a fresh twin
  ProtocolManager twin(tasks, alloc2, mgr_ep.links());
  twin.start();
  for (std::size_t i = 0; i < attacks.size(); ++i) twin.pump();
  EXPECT_EQ(manager.snapshot_body(), twin.snapshot_body());
}

TEST(TcpFuzz, LegitimateWorkerStillConnectsAfterTheStorm) {
  TcpTransportConfig cfg;
  cfg.handshake_timeout = 1.0;
  ManagerEndpoint mgr_ep(1, cfg);
  double now = 0.0;

  // A wave of garbage first.
  for (int i = 0; i < 10; ++i) {
    RawClient client(mgr_ep.port());
    client.send("not a hello at all\n");
    for (int j = 0; j < 20; ++j) mgr_ep.pump_io(now, 0);
    now += 2.0;
    for (int j = 0; j < 20; ++j) mgr_ep.pump_io(now, 0);
  }
  ASSERT_EQ(mgr_ep.connections(), 0u);

  TcpTransportConfig wcfg = cfg;
  wcfg.port = mgr_ep.port();
  WorkerEndpoint wep(0, wcfg);
  for (int i = 0; i < 100000 && !wep.established(); ++i) {
    mgr_ep.pump_io(now, 0);
    wep.pump_io(now, 0);
    now += 0.01;
  }
  EXPECT_TRUE(wep.established());
  EXPECT_TRUE(mgr_ep.worker_connected(0));
}

// ------------------------------------------- accept refusal and recovery

TEST(TcpChaos, AcceptRefusalDelaysButDoesNotKillTheRun) {
  TcpTransportConfig cfg = chaos_tcp(31);
  ManagerEndpoint mgr_ep(1, cfg);
  mgr_ep.refuse_accepts(true);
  TcpTransportConfig wcfg = cfg;
  wcfg.port = mgr_ep.port();
  WorkerEndpoint wep(0, wcfg);
  double now = 0.0;
  for (int i = 0; i < 3000; ++i) {
    mgr_ep.pump_io(now, 0);
    wep.pump_io(now, 0);
    now += 0.01;
  }
  EXPECT_FALSE(wep.established());
  // The refusal is counted on the manager side (the worker's connect
  // "succeeds" at the kernel level before the endpoint slams it shut).
  EXPECT_GE(mgr_ep.counters().connect_failures, 1u);

  mgr_ep.refuse_accepts(false);
  for (int i = 0; i < 100000 && !wep.established(); ++i) {
    mgr_ep.pump_io(now, 0);
    wep.pump_io(now, 0);
    now += 0.01;
  }
  EXPECT_TRUE(wep.established());
}

// --------------------------------------- manager crash + connection loss

RecoverableTcpRuntime::Result run_recoverable(
    const std::vector<TaskSpec>& tasks, CrashSchedule crashes,
    bool drop_connections, Storage& storage) {
  RecoveryConfig recovery;
  recovery.snapshot_every_ticks = 4;
  auto factory = [] {
    return std::make_unique<tora::core::TaskAllocator>(
        tora::core::make_allocator("greedy_bucketing", 7, kCapacity));
  };
  RecoverableTcpRuntime runtime(tasks, factory, 2, kCapacity, chaos_tcp(41),
                                wide_liveness(), storage, recovery,
                                std::move(crashes), drop_connections);
  return runtime.run();
}

RecoverableTcpRuntime::Result run_recoverable(
    const std::vector<TaskSpec>& tasks, CrashSchedule crashes,
    bool drop_connections) {
  MemStorage storage;
  return run_recoverable(tasks, std::move(crashes), drop_connections, storage);
}

/// run_recoverable's in-process twin: the same tasks, policy, journal
/// cadence and liveness through RecoverableProtocolRuntime.
RecoveryRunResult run_recoverable_in_process(
    const std::vector<TaskSpec>& tasks, CrashSchedule crashes,
    Storage& storage) {
  RecoveryConfig recovery;
  recovery.snapshot_every_ticks = 4;
  auto factory = [] {
    return std::make_unique<tora::core::TaskAllocator>(
        tora::core::make_allocator("greedy_bucketing", 7, kCapacity));
  };
  RecoverableProtocolRuntime runtime(tasks, factory, 2, kCapacity,
                                     wide_liveness(), storage, recovery,
                                     std::move(crashes));
  return runtime.run();
}

TEST(TcpRecovery, CrashWithoutConnectionLossIsBitSafe) {
  const auto tasks = mixed_tasks(12);
  const auto baseline = run_recoverable(tasks, CrashSchedule{}, false);
  ASSERT_EQ(baseline.tasks_completed, tasks.size());

  // Early ticks: a calm 12-task run on 2 workers finishes in a handful of
  // pumps, so later crash points would never fire.
  CrashSchedule crashes({{2, ManagerCrashPoint::PumpEnd},
                         {3, ManagerCrashPoint::AfterDrain}});
  const auto crashed = run_recoverable(tasks, std::move(crashes), false);
  EXPECT_EQ(crashed.tasks_completed, tasks.size());
  EXPECT_EQ(crashed.recovery.recoveries, 2u);
  // Loss-free crash points + surviving connections: bit-identical outcome.
  EXPECT_EQ(crashed.state_fingerprint, baseline.state_fingerprint);
}

TEST(TcpRecovery, CrashDroppingConnectionsForcesResumeAndStillCompletes) {
  const auto tasks = mixed_tasks(12);
  CrashSchedule crashes({{2, ManagerCrashPoint::PumpEnd},
                         {4, ManagerCrashPoint::PumpBegin}});
  const auto result = run_recoverable(tasks, std::move(crashes), true);
  EXPECT_EQ(result.tasks_completed, tasks.size());
  EXPECT_EQ(result.tasks_fatal, 0u);
  EXPECT_EQ(result.recovery.recoveries, 2u);
  // The manager host "died": every worker reconnected and resumed.
  EXPECT_GE(result.transport.reconnects, 2u);
  EXPECT_GE(result.transport.sessions_resumed, 2u);
}

// ------------------------- storage faults under both journaled runtimes

/// A disk that is full at first and clears after three ENOSPC hits.
StorageFaultPlan enospc_that_clears() {
  StorageFaultPlan plan;
  plan.capacity_bytes = 1;
  plan.enospc_clears_after = 3;
  return plan;
}

// The first journal open hits ENOSPC: the run starts storage-degraded,
// holds dispatches through quiet rounds until a disk retry succeeds, and
// completes. Both runtimes share the guard through RebuildFromLog.
TEST(JournaledStorage, EnospcThatClearsCompletesInProcess) {
  const auto tasks = mixed_tasks(12);
  MemStorage mem;
  FaultyStorage storage(mem, enospc_that_clears());
  const auto result = run_recoverable_in_process(tasks, CrashSchedule{},
                                                 storage);
  EXPECT_EQ(result.tasks_completed, tasks.size());
  EXPECT_GE(result.storage.degraded_entries, 1u);
}

TEST(JournaledStorage, EnospcThatClearsCompletesOverTcp) {
  const auto tasks = mixed_tasks(12);
  MemStorage mem;
  FaultyStorage storage(mem, enospc_that_clears());
  const auto result = run_recoverable(tasks, CrashSchedule{}, true, storage);
  EXPECT_EQ(result.tasks_completed, tasks.size());
  EXPECT_GE(result.storage.degraded_entries, 1u);
}

// EIO on appends plus a manager crash: the rebuilt manager's first rotate
// can fail too, and the run must come back degraded rather than die.
TEST(JournaledStorage, EioWithACrashRecoversOverTcp) {
  const auto tasks = mixed_tasks(12);
  StorageFaultPlan plan;
  plan.seed = 3;
  plan.write_eio_prob = 0.3;
  MemStorage mem;
  FaultyStorage storage(mem, plan);
  const auto result = run_recoverable(
      tasks, CrashSchedule({{2, ManagerCrashPoint::PumpEnd}}), true, storage);
  EXPECT_EQ(result.tasks_completed, tasks.size());
  EXPECT_EQ(result.recovery.recoveries, 1u);
}

TEST(JournaledStorage, EioWithACrashRecoversInProcess) {
  const auto tasks = mixed_tasks(12);
  StorageFaultPlan plan;
  plan.seed = 3;
  plan.write_eio_prob = 0.3;
  MemStorage mem;
  FaultyStorage storage(mem, plan);
  const auto result = run_recoverable_in_process(
      tasks, CrashSchedule({{2, ManagerCrashPoint::PumpEnd}}), storage);
  EXPECT_EQ(result.tasks_completed, tasks.size());
  EXPECT_EQ(result.recovery.recoveries, 1u);
}

}  // namespace
