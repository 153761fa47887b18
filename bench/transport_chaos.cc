// TCP chaos soak: the socket transport is driven through the in-process
// fault proxy with everything enabled at once — latency, byte corruption,
// mid-frame truncation, RST storms — plus worker crash/flap faults, and
// must still complete every task exactly once.
//
// Invariants enforced per round (exit non-zero on any violation):
//
//   1. COMPLETION: every task completes, none go fatal, despite the wire
//      being actively hostile.
//   2. EXACTLY-ONCE: completions never exceed the task count — replayed
//      results after reconnect/resume are absorbed by the dedup gate (the
//      stale_or_duplicate_results counter absorbs them, the ledger not).
//   3. FAULTS FIRED: across all rounds the proxy actually injected
//      faults, so a green soak means "survived", not "nothing happened"
//      (per-round counts can be zero on an unlucky seed — runs are short).
//   4. DETERMINISM: a calm lockstep run repeated with the same seed must
//      produce a byte-identical manager state fingerprint.
//
// Set TORA_TRANSPORT_SEED to randomize (the CI soak derives a fresh seed
// per run from the run id); the seed is printed so a failing round can be
// replayed exactly.
//
// Usage: transport_chaos [rounds]

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/task.hpp"
#include "proto/net/tcp_runtime.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::TaskSpec;
using tora::proto::ChaosConfig;
using tora::proto::net::TcpProtocolRuntime;
using tora::proto::net::TcpTransportConfig;
using tora::proto::net::WireFaultPlan;

constexpr std::size_t kTasks = 24;
constexpr ResourceVector kCapacity{16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0};

std::vector<TaskSpec> mixed_tasks() {
  std::vector<TaskSpec> tasks(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks[i].id = i;
    tasks[i].category = i % 3 == 0 ? "heavy" : "light";
    tasks[i].demand = i % 3 == 0 ? ResourceVector{2.0, 3000.0, 200.0}
                                 : ResourceVector{1.0, 400.0, 40.0};
    tasks[i].duration_s = 10.0 + static_cast<double>(i % 5);
    tasks[i].peak_fraction = 0.5;
  }
  return tasks;
}

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

WireFaultPlan hostile_wire() {
  WireFaultPlan plan;
  plan.latency_steps = 2;
  plan.corrupt_chunk_prob = 0.05;
  plan.truncate_prob = 0.02;
  plan.rst_prob = 0.01;
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rounds =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;

  std::uint64_t base_seed = 1009;
  bool randomized = false;
  if (const char* env = std::getenv("TORA_TRANSPORT_SEED")) {
    base_seed = std::strtoull(env, nullptr, 10);
    randomized = true;
  }
  const auto tasks = mixed_tasks();
  std::cout << "TCP chaos soak: " << rounds << " rounds x " << kTasks
            << " tasks through a hostile fault proxy, base seed " << base_seed
            << (randomized ? " (randomized via TORA_TRANSPORT_SEED)" : "")
            << "\n";

  bool ok = true;
  const auto violation = [&](std::uint64_t seed, const std::string& what) {
    std::cerr << "VIOLATION [seed " << seed << "]: " << what << "\n";
    ok = false;
  };

  // A round whose runtime throws (e.g. a stall it gives up on) is a
  // violation of that round's seed, not an abort of the soak.
  const auto guarded = [&](std::uint64_t seed, const auto& body) {
    try {
      body();
    } catch (const std::exception& e) {
      violation(seed, std::string("uncaught exception: ") + e.what());
    }
  };

  std::size_t total_faults = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t seed = base_seed + round;
    auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
    std::optional<TcpProtocolRuntime> runtime;
    guarded(seed, [&] {
      runtime.emplace(tasks, alloc, 2, kCapacity, chaos_tcp(seed),
                      wide_liveness(), hostile_wire());
      const auto r = runtime->run();
      if (r.tasks_completed != kTasks) {
        violation(seed, "completed " + std::to_string(r.tasks_completed) +
                            " of " + std::to_string(kTasks) + " tasks");
      }
      if (r.tasks_fatal != 0) {
        violation(seed, std::to_string(r.tasks_fatal) + " tasks went fatal");
      }
      const std::size_t faults =
          runtime->proxy() ? runtime->proxy()->faults_injected() : 0;
      std::cout << "round " << round << " [seed " << seed << "]: completed "
                << r.tasks_completed << "/" << kTasks << ", reconnects "
                << r.transport.reconnects << ", resumes "
                << r.transport.sessions_resumed << ", replayed "
                << r.transport.frames_replayed << ", stale/dup absorbed "
                << r.chaos.stale_or_duplicate_results << ", faults " << faults
                << "\n";
    });
    // Counted outside the guard, so the faults of a round that threw count.
    if (runtime && runtime->proxy()) {
      total_faults += runtime->proxy()->faults_injected();
    }
  }
  if (total_faults == 0) {
    violation(base_seed, "the fault plan never fired in any round — the "
                         "soak proves nothing");
  }

  // Calm determinism leg: same seed, same bytes, twice.
  std::string fingerprints[2];
  for (int leg = 0; leg < 2; ++leg) {
    guarded(base_seed, [&] {
      auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
      TcpProtocolRuntime runtime(tasks, alloc, 2, kCapacity,
                                 chaos_tcp(base_seed));
      const auto r = runtime.run();
      if (r.tasks_completed != kTasks) {
        violation(base_seed, "calm leg failed to complete");
      }
      fingerprints[leg] = r.state_fingerprint;
    });
  }
  if (fingerprints[0] != fingerprints[1]) {
    violation(base_seed,
              "calm lockstep runs with one seed diverged bit-wise");
  } else {
    std::cout << "calm determinism: two same-seed runs are bit-identical ("
              << fingerprints[0].size() << "-byte fingerprint)\n";
  }

  std::cout << (ok ? "all transport chaos invariants held.\n"
                   : "TRANSPORT CHAOS VIOLATIONS — see stderr above (replay "
                     "with TORA_TRANSPORT_SEED=" +
                         std::to_string(base_seed) + ").\n");
  return ok ? 0 : 1;
}
