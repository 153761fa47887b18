// The shared protocol drive loop's stall path: a run that cannot make
// progress ends in a StallError whose report counts what was left, in
// process and over TCP, and names a disk that never came back.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/recovery/faulty_storage.hpp"
#include "core/recovery/storage.hpp"
#include "core/registry.hpp"
#include "core/task.hpp"
#include "proto/drive.hpp"
#include "proto/manager.hpp"
#include "proto/net/tcp_runtime.hpp"
#include "proto/recovery_runtime.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::TaskSpec;
using tora::core::recovery::FaultyStorage;
using tora::core::recovery::MemStorage;
using tora::core::recovery::StorageFaultPlan;
using tora::proto::ChaosConfig;
using tora::proto::CrashPoint;
using tora::proto::ProtocolRuntime;
using tora::proto::RecoverableProtocolRuntime;
using tora::proto::StallError;
using tora::proto::StallReport;
using tora::proto::WorkerFaultConfig;
using tora::proto::net::TcpProtocolRuntime;

constexpr ResourceVector kCapacity{16.0, 65536.0, 65536.0, 0.0};

std::vector<TaskSpec> light_tasks(std::size_t n) {
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].category = "light";
    tasks[i].demand = ResourceVector{1.0, 400.0, 40.0};
    tasks[i].duration_s = 10.0;
    tasks[i].peak_fraction = 0.5;
  }
  return tasks;
}

/// Both workers announce, then die before taking any dispatch.
ChaosConfig every_worker_dies() {
  ChaosConfig chaos;
  chaos.worker_faults.assign(2, WorkerFaultConfig{CrashPoint::AfterAnnounce});
  return chaos;
}

/// Runs `body`, which must throw StallError, and returns the report.
template <typename F>
StallReport expect_stall(F&& body) {
  try {
    body();
  } catch (const StallError& e) {
    EXPECT_EQ(std::string(e.what()), e.report().to_string());
    return e.report();
  }
  ADD_FAILURE() << "the run did not stall";
  return {};
}

void expect_lost_pool(const StallReport& report) {
  EXPECT_GT(report.rounds, 0u);
  EXPECT_EQ(report.pending + report.queued + report.running, 6u);
  EXPECT_EQ(report.workers_registered, 0u);
  EXPECT_EQ(report.agents_crashed, 2u);
  EXPECT_FALSE(report.storage_degraded);
}

TEST(DriveLoopStall, LostPoolInProcess) {
  const auto tasks = light_tasks(6);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  ProtocolRuntime runtime(tasks, alloc, 2, kCapacity, every_worker_dies());
  const StallReport report = expect_stall([&] { runtime.run(); });
  expect_lost_pool(report);
  EXPECT_FALSE(report.sockets);
}

TEST(DriveLoopStall, LostPoolOverTcp) {
  const auto tasks = light_tasks(6);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  TcpProtocolRuntime runtime(tasks, alloc, 2, kCapacity, {},
                             every_worker_dies());
  const StallReport report = expect_stall([&] { runtime.run(); });
  expect_lost_pool(report);
  EXPECT_TRUE(report.sockets);
  // The sockets outlive the agents: both connections are still up.
  EXPECT_EQ(report.endpoints_established, 2u);
  EXPECT_EQ(report.endpoints_idle + report.endpoints_connecting +
                report.endpoints_hello_sent,
            0u);
  EXPECT_TRUE(report.backoff_failed_connects.empty());
}

// A proxy that never forwards a byte: every worker connects and sends its
// hello, and no welcome ever comes back. The report counts them all as
// mid-handshake, none established or in backoff.
TEST(DriveLoopStall, WorkersMidHandshakeOverTcp) {
  const auto tasks = light_tasks(6);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  tora::proto::net::TcpTransportConfig tcp;
  tcp.handshake_timeout = 1e9;  // neither side gives up on the handshake
  tora::proto::net::WireFaultPlan blackhole;
  blackhole.latency_steps = std::size_t{1} << 40;
  TcpProtocolRuntime runtime(tasks, alloc, 3, kCapacity, tcp, {}, blackhole);
  const StallReport report = expect_stall([&] { runtime.run(); });
  EXPECT_TRUE(report.sockets);
  EXPECT_EQ(report.endpoints_hello_sent, 3u);
  EXPECT_EQ(report.endpoints_idle, 0u);
  EXPECT_EQ(report.endpoints_connecting, 0u);
  EXPECT_EQ(report.endpoints_established, 0u);
  EXPECT_TRUE(report.backoff_failed_connects.empty());
  EXPECT_EQ(report.workers_registered, 0u);
  EXPECT_EQ(report.pending + report.queued + report.running, 6u);
  EXPECT_NE(report.to_string().find("endpoints 0 idle, 0 connecting, 3 hello "
                                    "sent, 0 established, 0 in backoff"),
            std::string::npos)
      << report.to_string();
}

TEST(DriveLoopStall, DiskThatStaysFullReportsDegradedStorage) {
  const auto tasks = light_tasks(6);
  StorageFaultPlan plan;
  plan.capacity_bytes = 1;
  plan.enospc_clears_after = 0;  // never frees space
  MemStorage mem;
  FaultyStorage storage(mem, plan);
  auto factory = [] {
    return std::make_unique<tora::core::TaskAllocator>(
        tora::core::make_allocator(tora::core::kMaxSeen, 1));
  };
  RecoverableProtocolRuntime runtime(tasks, factory, 2, kCapacity,
                                     ChaosConfig{}, storage);
  const StallReport report = expect_stall([&] { runtime.run(); });
  EXPECT_TRUE(report.storage_degraded);
  EXPECT_EQ(report.pending + report.queued + report.running, 6u);
  EXPECT_EQ(report.workers_registered, 2u);
  EXPECT_EQ(report.agents_crashed, 0u);
}

TEST(DriveLoopStall, ReportPrintsOnOneLine) {
  StallReport report;
  report.rounds = 7;
  report.queued = 3;
  report.sockets = true;
  report.backoff_failed_connects = {4677};
  const std::string line = report.to_string();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("7 rounds"), std::string::npos);
  EXPECT_NE(line.find("3 queued"), std::string::npos);
  EXPECT_NE(line.find("1 in backoff (failed connects 4677)"),
            std::string::npos);
}

}  // namespace
