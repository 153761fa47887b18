// Storage-fault torture harness (ALICE-style): one reference run of the
// journaled protocol manager produces a durable-storage image at EVERY sync
// barrier; the harness then enumerates fault schedules over those images —
// bit flips at every record boundary of the live journal, sealed-journal
// and snapshot corruption, generation deletions, orphaned tmp files, junk
// objects and double faults — and recovers each mutated image from scratch.
//
// The oracle is differential: every mutation canonicalizes (per the scan
// contract) to a CONTROL image built from pristine objects — the chosen
// base snapshot plus the journal chain, with the final journal truncated at
// the damage cut — and the mutated recovery must produce a fingerprint
// byte-identical to the control recovery. Full-chain recoveries must
// additionally match the reference fingerprint captured at the barrier
// (exact/salvaged), and schedules the scan policy cannot reach must refuse
// with a typed StorageError{EBADMSG, Salvage} — NEVER a silent divergent
// rebuild and never an uncaught foreign exception.
//
// A second section soaks the full RecoverableProtocolRuntime over a
// FaultyStorage decorator: a disabled plan must be byte-transparent, and
// write-fault / fsync-lie-plus-crash / ENOSPC-fill plans must all complete
// every task with deterministic same-seed replays (the ENOSPC plan must
// enter and exit storage_degraded). Emits BENCH_recovery_torture.json with
// a 3x schedules/s regression guard against a committed baseline:
//
//   ./recovery_torture [out.json [baseline.json]]
//
// Set TORA_STORAGE_SEED to randomize the top-up mutations and the soak
// fault seeds (CI soak does; the failing seed is printed).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/recovery/crash.hpp"
#include "core/recovery/faulty_storage.hpp"
#include "core/recovery/journal.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/recovery/storage.hpp"
#include "core/registry.hpp"
#include "exp/report.hpp"
#include "proto/manager.hpp"
#include "proto/recovery_runtime.hpp"
#include "proto/worker_agent.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

#include "guard.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::TaskAllocator;
using tora::core::TaskSpec;
using tora::core::recovery::CrashSchedule;
using tora::core::recovery::FaultyStorage;
using tora::core::recovery::JournalReadResult;
using tora::core::recovery::kLossFreeCrashPoints;
using tora::core::recovery::MemStorage;
using tora::core::recovery::ObjectName;
using tora::core::recovery::open_snapshot;
using tora::core::recovery::parse_object_name;
using tora::core::recovery::read_journal;
using tora::core::recovery::RecordType;
using tora::core::recovery::RecoveryConfig;
using tora::core::recovery::RecoveryLog;
using tora::core::recovery::StorageError;
using tora::core::recovery::StorageFaultPlan;
using tora::core::recovery::StorageOp;
using tora::proto::build_chaos_links;
using tora::proto::ChaosConfig;
using tora::proto::LivenessConfig;
using tora::proto::ProtocolManager;
using tora::proto::RecoverableProtocolRuntime;
using tora::proto::RecoveryRunResult;
using tora::proto::WorkerAgent;

constexpr std::size_t kTasks = 72;
constexpr std::size_t kWorkers = 5;
constexpr std::uint64_t kAllocatorSeed = 7;
constexpr std::size_t kSnapshotEvery = 4;
constexpr ResourceVector kCapacity{16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0};
const std::string kPolicy = "greedy_bucketing";
constexpr std::size_t kScheduleTarget = 10000;

// ------------------------------------------------------------ reference run

/// One durability barrier of the reference run: the exact durable bytes a
/// crash at this instant would leave behind, plus the manager state they
/// must rebuild to.
struct Barrier {
  MemStorage durable;
  std::string fingerprint;
};

TaskAllocator make_alloc() {
  return tora::core::make_allocator(kPolicy, kAllocatorSeed, kCapacity);
}

std::vector<Barrier> reference_run(const std::vector<TaskSpec>& tasks) {
  MemStorage storage;
  tora::core::RecoveryCounters counters;
  RecoveryLog log(storage, &counters, nullptr);
  auto links = build_chaos_links(kWorkers, ChaosConfig{});
  std::vector<WorkerAgent> agents;
  agents.reserve(kWorkers);
  for (std::size_t i = 0; i < kWorkers; ++i) {
    agents.emplace_back(i, kCapacity, tasks, links[i]);
  }
  TaskAllocator alloc = make_alloc();
  ProtocolManager manager(tasks, alloc, links, LivenessConfig{});
  RecoveryConfig recovery;
  recovery.snapshot_every_ticks = kSnapshotEvery;
  manager.attach_recovery(&log, nullptr, recovery, &counters);

  log.open_fresh();
  for (auto& agent : agents) agent.announce();
  manager.start();

  std::vector<Barrier> barriers;
  barriers.push_back({storage.durable_copy(), manager.snapshot_body()});
  for (std::size_t round = 0; round < 10000 && !manager.done(); ++round) {
    manager.pump();
    for (auto& agent : agents) agent.pump();
    barriers.push_back({storage.durable_copy(), manager.snapshot_body()});
  }
  if (!manager.done()) {
    throw std::runtime_error("recovery_torture: reference run did not finish");
  }
  return barriers;
}

// ---------------------------------------------------------------- recovery

struct RecoverOutcome {
  bool refused = false;
  bool salvage_typed = false;  ///< refusal carried {EBADMSG, Salvage}
  std::string error;
  std::string fingerprint;
};

/// Full from-scratch recovery of a storage image: scan, rebuild a fresh
/// allocator + manager pair, replay. A typed StorageError is the ONLY legal
/// refusal; anything else propagates and fails the harness.
RecoverOutcome recover_once(const std::vector<TaskSpec>& tasks,
                            MemStorage& storage) {
  RecoverOutcome out;
  tora::core::RecoveryCounters counters;
  RecoveryLog log(storage, &counters, nullptr);
  RecoveryLog::ScanResult scan;
  try {
    scan = log.scan();
  } catch (const StorageError& e) {
    out.refused = true;
    out.salvage_typed =
        e.op() == StorageOp::Salvage && e.code() == EBADMSG;
    out.error = e.what();
    return out;
  }
  auto links = build_chaos_links(kWorkers, ChaosConfig{});
  TaskAllocator alloc = make_alloc();
  ProtocolManager manager(tasks, alloc, links, LivenessConfig{});
  RecoveryConfig recovery;
  recovery.snapshot_every_ticks = kSnapshotEvery;
  manager.attach_recovery(&log, nullptr, recovery, &counters);
  manager.recover(scan);
  out.fingerprint = manager.snapshot_body();
  return out;
}

// ------------------------------------------------------------------ oracle

/// Object-level prediction of what scan() must do with a mutated image,
/// phrased through the same primitives (open_snapshot / read_journal) the
/// log uses. The prediction does NOT compute the expected state — that
/// comes from recovering the canonical control image — it only decides
/// refuse-vs-proceed and the canonical (base, chain, cut).
struct Prediction {
  bool refuse = false;
  bool has_snapshot = false;
  std::uint64_t base = 0;
  std::uint64_t last = 0;
  bool has_final_journal = false;
  std::size_t final_cut = 0;  ///< surviving prefix of journal-<last>
};

Prediction predict(const MemStorage& m) {
  Prediction p;
  std::vector<std::uint64_t> snaps;
  std::vector<std::uint64_t> journals;
  for (const std::string& name : m.list()) {
    const auto parsed = parse_object_name(name);
    if (!parsed) continue;
    if (parsed->kind == ObjectName::Kind::Snapshot) snaps.push_back(parsed->epoch);
    if (parsed->kind == ObjectName::Kind::Journal) {
      journals.push_back(parsed->epoch);
    }
  }
  std::sort(snaps.rbegin(), snaps.rend());
  const auto has_journal = [&](std::uint64_t e) {
    return std::find(journals.begin(), journals.end(), e) != journals.end();
  };
  const auto has_journal_after = [&](std::uint64_t e) {
    return std::any_of(journals.begin(), journals.end(),
                       [e](std::uint64_t j) { return j > e; });
  };
  for (std::uint64_t e : snaps) {
    const auto file = m.read_file(RecoveryLog::snapshot_name(e));
    if (file && open_snapshot(*file)) {
      p.base = e;
      p.has_snapshot = true;
      break;
    }
  }
  if (!p.has_snapshot) {
    if (!snaps.empty() && !has_journal(0)) {
      p.refuse = true;
      return p;
    }
    p.base = 0;
  }
  p.last = p.base;
  for (std::uint64_t e = p.base;; ++e) {
    const auto bytes = m.read_file(RecoveryLog::journal_name(e));
    if (!bytes) {
      if (has_journal_after(e)) p.refuse = true;
      break;
    }
    const JournalReadResult r = read_journal(*bytes);
    if (r.mid_corruption) {
      p.refuse = true;
      break;
    }
    if (!r.records.empty()) {
      const auto& head = r.records.front();
      bool ok = head.type == RecordType::Epoch && head.payload.size() >= 16;
      if (ok) {
        tora::util::ByteReader header(head.payload);
        ok = header.u64() == e;
      }
      if (!ok) {
        p.refuse = true;
        break;
      }
    }
    const bool final_journal = !has_journal(e + 1);
    if (r.torn && !final_journal) {
      p.refuse = true;
      break;
    }
    p.last = e;
    p.has_final_journal = true;
    if (final_journal) {
      p.final_cut = r.bytes_consumed;
      break;
    }
  }
  return p;
}

/// Canonical damage-equivalent image from PRISTINE objects: the predicted
/// base snapshot, the journal chain, the final journal truncated at the
/// cut. Recovering this must equal recovering the mutated image.
MemStorage build_control(const MemStorage& pristine, const Prediction& p) {
  MemStorage control;
  if (p.has_snapshot) {
    const std::string name = RecoveryLog::snapshot_name(p.base);
    control.write_file_durable(name, *pristine.read_file(name));
  }
  if (p.has_final_journal) {
    for (std::uint64_t e = p.base; e <= p.last; ++e) {
      const std::string name = RecoveryLog::journal_name(e);
      std::string bytes = *pristine.read_file(name);
      if (e == p.last) bytes.resize(std::min(bytes.size(), p.final_cut));
      control.write_file_durable(name, bytes);
    }
  }
  return control;
}

// -------------------------------------------------------------- enumeration

struct Mutation {
  enum class Kind { Flip, Delete, Junk } kind = Kind::Flip;
  std::string object;
  std::size_t offset = 0;
  unsigned char mask = 1;
  std::string junk_bytes;
};

Mutation flip_at(std::string object, std::size_t offset, unsigned char mask) {
  Mutation m;
  m.kind = Mutation::Kind::Flip;
  m.object = std::move(object);
  m.offset = offset;
  m.mask = mask;
  return m;
}

Mutation delete_of(std::string object) {
  Mutation m;
  m.kind = Mutation::Kind::Delete;
  m.object = std::move(object);
  return m;
}

Mutation junk_object(std::string object, std::string bytes) {
  Mutation m;
  m.kind = Mutation::Kind::Junk;
  m.object = std::move(object);
  m.junk_bytes = std::move(bytes);
  return m;
}

void apply(MemStorage& storage, const Mutation& m) {
  switch (m.kind) {
    case Mutation::Kind::Flip:
      storage.corrupt(m.object, m.offset, m.mask);
      break;
    case Mutation::Kind::Delete:
      storage.remove(m.object);
      break;
    case Mutation::Kind::Junk:
      storage.write_file_durable(m.object, m.junk_bytes);
      break;
  }
}

std::string describe(const std::vector<Mutation>& muts) {
  std::string out;
  for (const Mutation& m : muts) {
    if (!out.empty()) out += " + ";
    switch (m.kind) {
      case Mutation::Kind::Flip:
        out += "flip " + m.object + "@" + std::to_string(m.offset) + "^" +
               std::to_string(static_cast<unsigned>(m.mask));
        break;
      case Mutation::Kind::Delete:
        out += "delete " + m.object;
        break;
      case Mutation::Kind::Junk:
        out += "junk " + m.object;
        break;
    }
  }
  return out.empty() ? "pristine" : out;
}

/// Byte offsets of every record frame start in a journal, plus the total
/// size. Frame: [u32 len][u8 type][payload][u32 crc].
std::vector<std::size_t> record_offsets(const std::string& bytes) {
  std::vector<std::size_t> offs;
  std::size_t at = 0;
  while (at + 9 <= bytes.size()) {
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<unsigned char>(bytes[at + i]);
    }
    if (at + 9 + len > bytes.size()) break;
    offs.push_back(at);
    at += 9 + std::size_t{len};
  }
  return offs;
}

struct TortureStats {
  std::size_t schedules = 0;
  std::size_t exact = 0;
  std::size_t salvaged = 0;
  std::size_t truncated = 0;
  std::size_t refused = 0;
  std::size_t violations = 0;
};

class Torture {
 public:
  Torture(const std::vector<TaskSpec>& tasks, std::vector<Barrier> barriers)
      : tasks_(tasks), barriers_(std::move(barriers)) {}

  /// Applies `muts` to a fresh copy of barrier `b` and checks the recovery
  /// against the differential oracle. One call == one schedule.
  void check(std::size_t b, const std::vector<Mutation>& muts) {
    ++stats_.schedules;
    const Barrier& barrier = barriers_[b];
    MemStorage mutated = barrier.durable.durable_copy();
    for (const Mutation& m : muts) apply(mutated, m);

    const Prediction p = predict(mutated);
    RecoverOutcome actual;
    try {
      actual = recover_once(tasks_, mutated);
    } catch (const std::exception& e) {
      violation(b, muts, std::string("uncaught exception: ") + e.what());
      return;
    }

    if (p.refuse != actual.refused) {
      violation(b, muts,
                actual.refused
                    ? "unexpected refusal: " + actual.error
                    : "recovered where the scan contract demands refusal — "
                      "silent wrong rebuild");
      return;
    }
    if (actual.refused) {
      if (!actual.salvage_typed) {
        violation(b, muts, "refusal not typed {EBADMSG, Salvage}: " +
                               actual.error);
        return;
      }
      ++stats_.refused;
      return;
    }

    const std::string& control_fp = control_fingerprint(b, p);
    if (control_fp.empty()) {
      violation(b, muts, "control image itself refused recovery");
      return;
    }
    if (actual.fingerprint != control_fp) {
      violation(b, muts,
                "fingerprint diverged from the canonical-damage control");
      return;
    }

    // Full-chain recoveries are EXACT: byte-identical to the state the
    // reference run held at this barrier.
    const auto [max_snap, max_journal, final_size] = pristine_shape(b);
    const bool full_chain = p.has_final_journal && p.last == max_journal &&
                            p.final_cut == final_size;
    if (full_chain) {
      if (actual.fingerprint != barrier.fingerprint) {
        violation(b, muts,
                  "full-chain recovery diverged from the reference state");
        return;
      }
      const bool fell_back =
          max_snap.has_value() &&
          (!p.has_snapshot || p.base < *max_snap);
      if (fell_back) {
        ++stats_.salvaged;
      } else {
        ++stats_.exact;
      }
    } else {
      ++stats_.truncated;
    }
  }

  const TortureStats& stats() const noexcept { return stats_; }
  std::size_t barrier_count() const noexcept { return barriers_.size(); }
  const MemStorage& barrier_storage(std::size_t b) const {
    return barriers_[b].durable;
  }

 private:
  void violation(std::size_t b, const std::vector<Mutation>& muts,
                 const std::string& what) {
    ++stats_.violations;
    std::cerr << "VIOLATION [barrier " << b << ", " << describe(muts)
              << "]: " << what << "\n";
  }

  /// (max snapshot epoch, max journal epoch, final journal size) of the
  /// pristine barrier image.
  std::tuple<std::optional<std::uint64_t>, std::uint64_t, std::size_t>
  pristine_shape(std::size_t b) {
    std::optional<std::uint64_t> max_snap;
    std::uint64_t max_journal = 0;
    for (const std::string& name : barriers_[b].durable.list()) {
      const auto parsed = parse_object_name(name);
      if (!parsed) continue;
      if (parsed->kind == ObjectName::Kind::Snapshot) {
        max_snap = max_snap ? std::max(*max_snap, parsed->epoch)
                            : parsed->epoch;
      } else if (parsed->kind == ObjectName::Kind::Journal) {
        max_journal = std::max(max_journal, parsed->epoch);
      }
    }
    const auto final_bytes = barriers_[b].durable.read_file(
        RecoveryLog::journal_name(max_journal));
    return {max_snap, max_journal, final_bytes ? final_bytes->size() : 0};
  }

  /// Recover the canonical control image, memoized per (barrier, shape) —
  /// many mutations canonicalize to the same control.
  const std::string& control_fingerprint(std::size_t b, const Prediction& p) {
    const std::string key =
        std::to_string(b) + ":" + (p.has_snapshot ? "s" : "-") +
        std::to_string(p.base) + ":" + (p.has_final_journal ? "j" : "-") +
        std::to_string(p.last) + ":" + std::to_string(p.final_cut);
    auto it = controls_.find(key);
    if (it == controls_.end()) {
      MemStorage control = build_control(barriers_[b].durable, p);
      const RecoverOutcome out = recover_once(tasks_, control);
      it = controls_.emplace(key, out.refused ? "" : out.fingerprint).first;
    }
    return it->second;
  }

  const std::vector<TaskSpec>& tasks_;
  std::vector<Barrier> barriers_;
  std::map<std::string, std::string> controls_;
  TortureStats stats_;
};

/// The deterministic enumerated schedules for one barrier.
void enumerate_barrier(Torture& torture, std::size_t b) {
  const MemStorage& image = torture.barrier_storage(b);
  std::vector<std::string> snapshots;
  std::vector<std::string> journals;
  std::uint64_t max_journal = 0;
  for (const std::string& name : image.list()) {
    const auto parsed = parse_object_name(name);
    if (!parsed) continue;
    if (parsed->kind == ObjectName::Kind::Snapshot) snapshots.push_back(name);
    if (parsed->kind == ObjectName::Kind::Journal) {
      journals.push_back(name);
      max_journal = std::max(max_journal, parsed->epoch);
    }
  }
  const std::string final_journal = RecoveryLog::journal_name(max_journal);

  // 1. Pristine: recovery must reproduce the reference state exactly.
  torture.check(b, {});

  // 2. Every object deleted, one at a time.
  for (const std::string& name : snapshots) {
    torture.check(b, {delete_of(name)});
  }
  for (const std::string& name : journals) {
    torture.check(b, {delete_of(name)});
  }

  // 3. Orphaned tmp + junk objects are ignored.
  torture.check(b, {junk_object("snapshot-7.tmp", "half"),
                    junk_object("claims.bin", "junk")});

  // 4. Journal bit flips. The FINAL journal gets a flip in the type byte
  // and in the last CRC byte of EVERY record (plus one length-field flip);
  // sealed journals get first/middle/last — any flip there must refuse.
  for (const std::string& name : journals) {
    const std::string bytes = *image.read_file(name);
    std::vector<std::size_t> offs = record_offsets(bytes);
    if (offs.empty()) continue;
    const bool is_final = name == final_journal;
    if (!is_final && offs.size() > 3) {
      offs = {offs.front(), offs[offs.size() / 2], offs.back()};
    }
    for (std::size_t o : offs) {
      std::uint32_t len = 0;
      for (int i = 3; i >= 0; --i) {
        len = (len << 8) | static_cast<unsigned char>(bytes[o + i]);
      }
      torture.check(b, {flip_at(name, o + 4, 0x01)});
      torture.check(b, {flip_at(name, o + 8 + len, 0x80)});
    }
    torture.check(b, {flip_at(name, offs.front(), 0x10)});
  }

  // 5. Snapshot damage: magic, version, mid-body, CRC.
  for (const std::string& name : snapshots) {
    const std::size_t size = image.read_file(name)->size();
    for (std::size_t off : {std::size_t{0}, std::size_t{9}, size / 2,
                            size - 1}) {
      torture.check(b, {flip_at(name, off, 0x01)});
    }
  }

  // 6. Double faults: damage BOTH generations (or a generation plus its
  // bridge journal) — salvage must refuse, never guess.
  if (snapshots.size() >= 2) {
    const std::string& older = snapshots.front();
    const std::string& newer = snapshots.back();
    torture.check(b, {flip_at(newer, 0, 0x01), flip_at(older, 0, 0x01)});
  }
  if (!snapshots.empty() && journals.size() >= 2) {
    torture.check(b, {flip_at(snapshots.back(), 0, 0x01),
                      delete_of(journals.front())});
  }
}

// -------------------------------------------------------------------- soak

ChaosConfig soak_chaos() {
  // Mild channel chaos: keeps the runtime's stall allowance generous while
  // the manager sits out storage-degradation backoff windows.
  ChaosConfig c;
  c.seed = 21;
  c.to_worker.drop_prob = 0.01;
  c.to_manager.drop_prob = 0.01;
  return c;
}

RecoverableProtocolRuntime::AllocatorFactory soak_factory() {
  return [] {
    return std::make_unique<TaskAllocator>(make_alloc());
  };
}

struct SoakRun {
  enum class End { Completed, Refused, Died };
  End end = End::Completed;
  std::string error;
  RecoveryRunResult result;
  std::map<std::string, std::string> files;
};

SoakRun soak_run(const std::vector<TaskSpec>& tasks,
                 const StorageFaultPlan* plan, CrashSchedule crashes) {
  MemStorage mem;
  std::unique_ptr<FaultyStorage> faulty;
  tora::core::recovery::Storage* storage = &mem;
  if (plan) {
    faulty = std::make_unique<FaultyStorage>(mem, *plan);
    storage = faulty.get();
  }
  RecoveryConfig recovery;
  recovery.snapshot_every_ticks = kSnapshotEvery;
  RecoverableProtocolRuntime runtime(tasks, soak_factory(), kWorkers,
                                     kCapacity, soak_chaos(), *storage,
                                     recovery, std::move(crashes));
  SoakRun out;
  try {
    out.result = runtime.run();
  } catch (const StorageError& e) {
    // A crash-time salvage refusal: the disk genuinely lost committed
    // history (fsync lies + crash). Terminal but typed and diagnosable.
    out.end = e.op() == StorageOp::Salvage && e.code() == EBADMSG
                  ? SoakRun::End::Refused
                  : SoakRun::End::Died;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.end = SoakRun::End::Died;
    out.error = e.what();
  }
  for (const std::string& name : mem.list()) {
    out.files[name] = *mem.read_file(name);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_recovery_torture.json";
  const std::string baseline_path = argc > 2 ? argv[2] : "";

  std::uint64_t soak_seed = 0;
  if (const char* env = std::getenv("TORA_STORAGE_SEED")) {
    soak_seed = std::strtoull(env, nullptr, 10);
  }
  const bool randomized = soak_seed != 0;
  const std::uint64_t seed = randomized ? soak_seed : 1234;

  auto workload = tora::workloads::make_workload("trimodal", 11);
  workload.tasks.resize(kTasks);
  const std::vector<TaskSpec>& tasks = workload.tasks;

  std::cout << "Storage torture: " << kTasks << "-task trimodal workflow, "
            << kWorkers << " workers, snapshot every " << kSnapshotEvery
            << " ticks, policy " << kPolicy << "\n"
            << "mutation seed " << seed
            << (randomized ? " (randomized via TORA_STORAGE_SEED)" : " (fixed)")
            << "\n\n";

  std::vector<Barrier> barriers = reference_run(tasks);
  std::cout << "reference run: " << barriers.size()
            << " durability barriers captured\n";

  Torture torture(tasks, std::move(barriers));
  const auto t0 = std::chrono::steady_clock::now();

  // Enumerated schedules: every barrier x the deterministic catalog.
  for (std::size_t b = 0; b < torture.barrier_count(); ++b) {
    enumerate_barrier(torture, b);
  }
  const std::size_t enumerated = torture.stats().schedules;
  std::cout << "enumerated schedules: " << enumerated << "\n";

  // Randomized top-up to the schedule target: arbitrary flips (and the odd
  // deletion) anywhere in any barrier image, same differential oracle.
  tora::util::Rng rng(seed);
  while (torture.stats().schedules < kScheduleTarget) {
    const std::size_t b = static_cast<std::size_t>(
        rng.uniform_int(0, torture.barrier_count() - 1));
    const std::vector<std::string> names = torture.barrier_storage(b).list();
    if (names.empty()) {
      torture.check(b, {});
      continue;
    }
    std::vector<Mutation> muts;
    const std::size_t count = rng.bernoulli(0.2) ? 2 : 1;
    for (std::size_t i = 0; i < count; ++i) {
      const std::string& name =
          names[static_cast<std::size_t>(rng.uniform_int(0, names.size() - 1))];
      const bool already_deleted = std::any_of(
          muts.begin(), muts.end(), [&](const Mutation& prev) {
            return prev.kind == Mutation::Kind::Delete && prev.object == name;
          });
      const auto bytes = torture.barrier_storage(b).read_file(name);
      if (already_deleted || !bytes || bytes->empty() || rng.bernoulli(0.1)) {
        muts.push_back(delete_of(name));
        continue;
      }
      Mutation m;
      m.kind = Mutation::Kind::Flip;
      m.object = name;
      m.offset = static_cast<std::size_t>(
          rng.uniform_int(0, bytes->size() - 1));
      m.mask = static_cast<unsigned char>(
          1u << rng.uniform_int(0, 7));
      muts.push_back(m);
    }
    // A duplicate delete of the same object is fine (remove is idempotent);
    // a duplicate flip would cancel itself out, so re-point it.
    if (muts.size() == 2 && muts[0].kind == Mutation::Kind::Flip &&
        muts[1].kind == Mutation::Kind::Flip &&
        muts[0].object == muts[1].object &&
        muts[0].offset == muts[1].offset) {
      muts[1].mask = static_cast<unsigned char>(muts[1].mask ^ 0x0f ^ 0x01);
      if (muts[1].mask == muts[0].mask) muts[1].mask ^= 0x02;
    }
    torture.check(b, muts);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double torture_s =
      std::chrono::duration<double>(t1 - t0).count();
  const TortureStats& stats = torture.stats();
  const double per_s =
      torture_s > 0 ? static_cast<double>(stats.schedules) / torture_s : 0.0;

  bool ok = stats.violations == 0;
  tora::exp::TextTable classes({"outcome class", "schedules"});
  classes.add_row({"exact", std::to_string(stats.exact)});
  classes.add_row({"salvaged (older generation, exact)",
                   std::to_string(stats.salvaged)});
  classes.add_row({"truncated (announced torn tail)",
                   std::to_string(stats.truncated)});
  classes.add_row({"refused (typed StorageError)",
                   std::to_string(stats.refused)});
  classes.add_row({"VIOLATIONS", std::to_string(stats.violations)});
  std::cout << "\n";
  classes.print(std::cout);
  std::cout << "\n" << stats.schedules << " schedules in "
            << tora::exp::fmt(torture_s, 2) << " s ("
            << tora::exp::fmt(per_s, 0) << " schedules/s)\n";
  if (stats.salvaged == 0 || stats.refused == 0 || stats.truncated == 0) {
    std::cerr << "VIOLATION: degenerate schedule mix — some outcome class "
                 "never occurred\n";
    ok = false;
  }

  // ------------------------------------------------------------------ soak
  std::cout << "\nFaultyStorage soak through RecoverableProtocolRuntime:\n";
  const auto soak_violation = [&ok](const std::string& round,
                                    const std::string& what) {
    std::cerr << "VIOLATION [soak " << round << "]: " << what << "\n";
    ok = false;
  };

  // Calm transparency: a disabled plan is byte-invisible.
  const SoakRun raw = soak_run(tasks, nullptr, CrashSchedule{});
  {
    StorageFaultPlan calm;
    calm.seed = seed;
    const SoakRun calm_run = soak_run(tasks, &calm, CrashSchedule{});
    if (calm_run.result.state_fingerprint != raw.result.state_fingerprint) {
      soak_violation("calm", "disabled plan changed the run fingerprint");
    }
    if (calm_run.files != raw.files) {
      soak_violation("calm", "disabled plan changed the stored bytes");
    }
    const auto& f = calm_run.result.storage_faults;
    if (f.short_writes + f.write_errors + f.sync_errors + f.fsync_lies +
            f.read_errors + f.objects_rotted + f.enospc_hits !=
        0) {
      soak_violation("calm", "disabled plan counted injected faults");
    }
  }

  std::size_t calm_bytes = 0;
  for (const auto& [name, bytes] : raw.files) calm_bytes += bytes.size();

  struct SoakSpec {
    std::string name;
    StorageFaultPlan plan;
    CrashSchedule crashes;
    bool expect_degraded = false;
  };
  std::vector<SoakSpec> specs;
  {
    SoakSpec s;
    s.name = "write-faults";
    s.plan.seed = seed + 1;
    s.plan.short_write_prob = 0.05;
    s.plan.write_eio_prob = 0.03;
    s.plan.sync_eio_prob = 0.03;
    specs.push_back(s);
  }
  {
    SoakSpec s;
    s.name = "fsync-lies+crashes";
    s.plan.seed = seed + 2;
    s.plan.fsync_lie_prob = 0.05;
    s.crashes = CrashSchedule::random(seed + 3, 4, 10, kLossFreeCrashPoints);
    specs.push_back(s);
  }
  {
    SoakSpec s;
    s.name = "enospc-fill";
    s.plan.seed = seed + 4;
    s.plan.capacity_bytes = std::max<std::size_t>(1, calm_bytes / 2);
    s.plan.enospc_clears_after = 3;
    s.expect_degraded = true;
    specs.push_back(s);
  }

  tora::exp::TextTable soak_table(
      {"round", "completed", "faults", "degraded in/out", "retry fails",
       "deterministic"});
  RecoveryRunResult last;
  for (const SoakSpec& spec : specs) {
    const SoakRun first = soak_run(tasks, &spec.plan, spec.crashes);
    const SoakRun replay = soak_run(tasks, &spec.plan, spec.crashes);
    const RecoveryRunResult& r = first.result;
    if (first.end == SoakRun::End::Died) {
      soak_violation(spec.name, "untyped terminal failure: " + first.error);
    } else if (first.end == SoakRun::End::Refused) {
      // Only a plan that LIES about durability and then crashes may reach
      // an honestly-unsalvageable disk; everything else must complete.
      if (spec.plan.fsync_lie_prob == 0.0) {
        soak_violation(spec.name, "unexpected salvage refusal: " + first.error);
      }
    } else if (r.tasks_completed != kTasks || r.tasks_fatal != 0) {
      soak_violation(spec.name,
                     "only " + std::to_string(r.tasks_completed) + "/" +
                         std::to_string(kTasks) + " tasks completed");
    }
    const bool deterministic =
        replay.end == first.end && replay.error == first.error &&
        replay.result.state_fingerprint == r.state_fingerprint &&
        replay.files == first.files;
    if (!deterministic) {
      soak_violation(spec.name, "same-seed replay diverged");
    }
    if (first.end != SoakRun::End::Completed) {
      soak_table.add_row({spec.name, "refused", "-", "-", "-",
                          deterministic ? "yes" : "NO"});
      continue;
    }
    // A run may legitimately FINISH while degraded (completion does not
    // wait for the disk to heal) — but the ledger must balance: every
    // entry is matched by an exit except the one still open.
    if (r.storage.degraded_entries !=
        r.storage.degraded_exits + (r.storage.degraded ? 1 : 0)) {
      soak_violation(spec.name, "degradation entry/exit ledger unbalanced");
    }
    if (spec.expect_degraded &&
        (r.storage.degraded_entries == 0 || r.storage.degraded)) {
      soak_violation(spec.name,
                     "ENOSPC fill schedule must degrade AND exit once the "
                     "operator frees space");
    }
    if (!randomized) {
      const auto& f = r.storage_faults;
      if (f.short_writes + f.write_errors + f.sync_errors + f.fsync_lies +
              f.enospc_hits ==
          0) {
        soak_violation(spec.name, "fault plan injected nothing (fixed seed)");
      }
    }
    const auto& f = r.storage_faults;
    soak_table.add_row(
        {spec.name, std::to_string(r.tasks_completed),
         std::to_string(f.short_writes + f.write_errors + f.sync_errors +
                        f.fsync_lies + f.read_errors + f.enospc_hits),
         std::to_string(r.storage.degraded_entries) + "/" +
             std::to_string(r.storage.degraded_exits),
         std::to_string(r.storage.retry_failures),
         deterministic ? "yes" : "NO"});
    last = r;
  }
  soak_table.print(std::cout);
  std::cout << "\nstorage counters of the last soak round:\n";
  tora::exp::storage_table(last.storage_faults, last.storage)
      .print(std::cout);

  // ------------------------------------------------------------------ json
  std::ofstream json(out_path);
  json << "{\n"
       << "  \"benchmark\": \"recovery_torture\",\n"
       << "  \"tasks\": " << kTasks << ",\n"
       << "  \"workers\": " << kWorkers << ",\n"
       << "  \"barriers\": " << torture.barrier_count() << ",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"schedules\": " << stats.schedules << ",\n"
       << "  \"enumerated\": " << enumerated << ",\n"
       << "  \"exact\": " << stats.exact << ",\n"
       << "  \"salvaged\": " << stats.salvaged << ",\n"
       << "  \"truncated\": " << stats.truncated << ",\n"
       << "  \"refused\": " << stats.refused << ",\n"
       << "  \"violations\": " << stats.violations << ",\n"
       << "  \"schedules_per_s\": " << tora::exp::fmt(per_s, 1) << ",\n"
       << "  \"ok\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
  json.close();

  // 3x regression guard against the committed baseline.
  if (!baseline_path.empty()) {
    const double baseline_per_s =
        tora::bench::read_guard(baseline_path, "schedules_per_s");
    if (!tora::bench::within_guard(per_s, baseline_per_s,
                                   tora::bench::Better::Higher)) {
      std::cerr << "VIOLATION: schedules/s regressed more than 3x (" << per_s
                << " vs baseline " << baseline_per_s << ")\n";
      ok = false;
    }
  }

  std::cout << (ok ? "\nall torture invariants held: every mutated image "
                     "either rebuilt bit-exactly\n(reference or canonical-"
                     "damage control) or refused with a typed StorageError.\n"
                   : "\nTORTURE INVARIANT VIOLATIONS — see stderr above.\n");
  return ok ? 0 : 1;
}
