// Each counter family's field list drives merge, the --counters-json
// sections, the text tables and the snapshot frames. These tests pin all of
// them against oracles that spell every member out by hand, so a list line
// that is missing, misnamed or out of order shows up here.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/registry.hpp"
#include "exp/report.hpp"
#include "proto/manager.hpp"
#include "util/bytes.hpp"

namespace {

using tora::core::ChaosCounters;
using tora::core::RecoveryCounters;
using tora::core::ReplicationCounters;
using tora::core::ResilienceCounters;
using tora::core::StorageFaultCounters;
using tora::core::StorageHealth;
using tora::core::TransportCounters;

// Each family with its i-th counter (1-based, declaration order) set to
// i * k; the storage health is also degraded.
ChaosCounters filled_chaos(std::size_t k) {
  ChaosCounters c;
  c.messages_dropped = 1 * k;
  c.messages_duplicated = 2 * k;
  c.messages_corrupted = 3 * k;
  c.messages_severed = 4 * k;
  c.links_severed = 5 * k;
  c.malformed_lines = 6 * k;
  c.stale_or_duplicate_results = 7 * k;
  c.attempt_timeouts = 8 * k;
  c.redispatches = 9 * k;
  c.workers_declared_dead = 10 * k;
  c.workers_quarantined = 11 * k;
  c.protocol_evictions = 12 * k;
  c.heartbeats = 13 * k;
  c.duplicate_dispatches = 14 * k;
  c.misaddressed_messages = 15 * k;
  c.worker_crashes = 16 * k;
  c.dispatches_deferred_backpressure = 17 * k;
  return c;
}

RecoveryCounters filled_recovery(std::size_t k) {
  RecoveryCounters c;
  c.journal_records = 1 * k;
  c.journal_bytes = 2 * k;
  c.journal_syncs = 3 * k;
  c.snapshots_written = 4 * k;
  c.crashes_injected = 5 * k;
  c.recoveries = 6 * k;
  c.torn_records_truncated = 7 * k;
  c.torn_snapshots_discarded = 8 * k;
  c.records_replayed = 9 * k;
  c.ticks_replayed = 10 * k;
  c.inputs_replayed = 11 * k;
  c.generation_fallbacks = 12 * k;
  c.journals_chained = 13 * k;
  c.tmp_files_swept = 14 * k;
  c.salvage_refusals = 15 * k;
  return c;
}

StorageFaultCounters filled_storage_faults(std::size_t k) {
  StorageFaultCounters c;
  c.short_writes = 1 * k;
  c.write_errors = 2 * k;
  c.sync_errors = 3 * k;
  c.fsync_lies = 4 * k;
  c.read_errors = 5 * k;
  c.objects_rotted = 6 * k;
  c.enospc_hits = 7 * k;
  return c;
}

StorageHealth filled_storage_health(std::size_t k) {
  StorageHealth c;
  c.degraded = true;
  c.degraded_entries = 1 * k;
  c.degraded_exits = 2 * k;
  c.retry_failures = 3 * k;
  return c;
}

ResilienceCounters filled_resilience(std::size_t k) {
  ResilienceCounters c;
  c.speculations_launched = 1 * k;
  c.speculations_promoted = 2 * k;
  c.speculations_cancelled = 3 * k;
  c.adaptive_deadlines_used = 4 * k;
  c.storms_entered = 5 * k;
  c.storms_exited = 6 * k;
  c.dispatches_held = 7 * k;
  c.probation_admissions = 8 * k;
  c.requarantines = 9 * k;
  c.quarantine_amnesties = 10 * k;
  return c;
}

TransportCounters filled_transport(std::size_t k) {
  TransportCounters c;
  c.connections_accepted = 1 * k;
  c.connections_opened = 2 * k;
  c.connections_closed = 3 * k;
  c.connect_failures = 4 * k;
  c.keepalive_closes = 5 * k;
  c.reconnects = 6 * k;
  c.handshakes_ok = 7 * k;
  c.handshakes_rejected = 8 * k;
  c.version_mismatches = 22 * k;
  c.sessions_resumed = 9 * k;
  c.frames_replayed = 10 * k;
  c.frames_sent = 11 * k;
  c.frames_received = 12 * k;
  c.bytes_sent = 13 * k;
  c.bytes_received = 14 * k;
  c.partial_writes = 15 * k;
  c.oversized_frames = 16 * k;
  c.corrupt_control_frames = 17 * k;
  c.backpressure_events = 18 * k;
  c.heartbeats_coalesced = 19 * k;
  c.heartbeats_shed = 20 * k;
  c.send_queue_overflows = 21 * k;
  return c;
}

ReplicationCounters filled_replication(std::size_t k) {
  ReplicationCounters c;
  c.records_shipped = 1 * k;
  c.bytes_shipped = 2 * k;
  c.barriers_shipped = 3 * k;
  c.acks_received = 4 * k;
  c.rotations_shipped = 5 * k;
  c.sync_waits = 6 * k;
  c.wait_rounds = 7 * k;
  c.standby_losses = 8 * k;
  c.fences_received = 9 * k;
  c.records_applied = 10 * k;
  c.barriers_acked = 11 * k;
  c.rotations_applied = 12 * k;
  c.rotate_mismatches = 13 * k;
  c.corrupt_frames = 14 * k;
  c.promotions = 15 * k;
  c.records_behind_at_promotion = 16 * k;
  c.fences_sent = 17 * k;
  c.max_observed_lag = 18 * k;
  return c;
}

std::string printed(const tora::exp::TextTable& table) {
  std::ostringstream out;
  table.print(out);
  return out.str();
}

}  // namespace

TEST(CounterMerge, SumsEveryField) {
  ChaosCounters c = filled_chaos(1);
  c.merge(filled_chaos(10));
  EXPECT_EQ(c, filled_chaos(11));
  RecoveryCounters rc = filled_recovery(1);
  rc.merge(filled_recovery(10));
  EXPECT_EQ(rc, filled_recovery(11));
  StorageFaultCounters sf = filled_storage_faults(1);
  sf.merge(filled_storage_faults(10));
  EXPECT_EQ(sf, filled_storage_faults(11));
  ResilienceCounters rs = filled_resilience(1);
  rs.merge(filled_resilience(10));
  EXPECT_EQ(rs, filled_resilience(11));
  TransportCounters t = filled_transport(1);
  t.merge(filled_transport(10));
  EXPECT_EQ(t, filled_transport(11));
}

TEST(CounterMerge, ReplicationTakesTheMaxOfTheLag) {
  ReplicationCounters want = filled_replication(11);
  want.max_observed_lag = 18 * 10;
  ReplicationCounters up = filled_replication(1);
  up.merge(filled_replication(10));
  EXPECT_EQ(up, want);
  ReplicationCounters down = filled_replication(10);
  down.merge(filled_replication(1));
  EXPECT_EQ(down, want);
}

TEST(CounterJson, PrintsEverySectionInFieldOrder) {
  const ChaosCounters c = filled_chaos(1);
  const ResilienceCounters rs = filled_resilience(1);
  const RecoveryCounters rc = filled_recovery(1);
  const StorageFaultCounters sf = filled_storage_faults(1);
  const StorageHealth sh = filled_storage_health(1);
  const TransportCounters t = filled_transport(1);
  const ReplicationCounters rp = filled_replication(1);
  const tora::exp::CounterSections all{&c, &rs, &rc, &sf, &sh, &t, &rp};
  EXPECT_EQ(tora::exp::counters_json(all), R"({
  "chaos": {
    "messages_dropped": 1,
    "messages_duplicated": 2,
    "messages_corrupted": 3,
    "messages_severed": 4,
    "links_severed": 5,
    "malformed_lines": 6,
    "stale_or_duplicate_results": 7,
    "attempt_timeouts": 8,
    "redispatches": 9,
    "workers_declared_dead": 10,
    "workers_quarantined": 11,
    "protocol_evictions": 12,
    "heartbeats": 13,
    "duplicate_dispatches": 14,
    "misaddressed_messages": 15,
    "worker_crashes": 16,
    "dispatches_deferred_backpressure": 17
  },
  "resilience": {
    "speculations_launched": 1,
    "speculations_promoted": 2,
    "speculations_cancelled": 3,
    "adaptive_deadlines_used": 4,
    "storms_entered": 5,
    "storms_exited": 6,
    "dispatches_held": 7,
    "probation_admissions": 8,
    "requarantines": 9,
    "quarantine_amnesties": 10
  },
  "recovery": {
    "journal_records": 1,
    "journal_bytes": 2,
    "journal_syncs": 3,
    "snapshots_written": 4,
    "crashes_injected": 5,
    "recoveries": 6,
    "torn_records_truncated": 7,
    "torn_snapshots_discarded": 8,
    "records_replayed": 9,
    "ticks_replayed": 10,
    "inputs_replayed": 11,
    "generation_fallbacks": 12,
    "journals_chained": 13,
    "tmp_files_swept": 14,
    "salvage_refusals": 15
  },
  "storage_faults": {
    "short_writes": 1,
    "write_errors": 2,
    "sync_errors": 3,
    "fsync_lies": 4,
    "read_errors": 5,
    "objects_rotted": 6,
    "enospc_hits": 7
  },
  "storage_health": {
    "degraded": 1,
    "degraded_entries": 1,
    "degraded_exits": 2,
    "retry_failures": 3
  },
  "transport": {
    "connections_accepted": 1,
    "connections_opened": 2,
    "connections_closed": 3,
    "connect_failures": 4,
    "keepalive_closes": 5,
    "reconnects": 6,
    "handshakes_ok": 7,
    "handshakes_rejected": 8,
    "version_mismatches": 22,
    "sessions_resumed": 9,
    "frames_replayed": 10,
    "frames_sent": 11,
    "frames_received": 12,
    "bytes_sent": 13,
    "bytes_received": 14,
    "partial_writes": 15,
    "oversized_frames": 16,
    "corrupt_control_frames": 17,
    "backpressure_events": 18,
    "heartbeats_coalesced": 19,
    "heartbeats_shed": 20,
    "send_queue_overflows": 21
  },
  "replication": {
    "records_shipped": 1,
    "bytes_shipped": 2,
    "barriers_shipped": 3,
    "acks_received": 4,
    "rotations_shipped": 5,
    "sync_waits": 6,
    "wait_rounds": 7,
    "standby_losses": 8,
    "fences_received": 9,
    "records_applied": 10,
    "barriers_acked": 11,
    "rotations_applied": 12,
    "rotate_mismatches": 13,
    "corrupt_frames": 14,
    "promotions": 15,
    "records_behind_at_promotion": 16,
    "fences_sent": 17,
    "max_observed_lag": 18
  }
}
)");

  tora::exp::CounterSections some;
  some.resilience = &rs;
  some.storage_health = &sh;
  EXPECT_EQ(tora::exp::counters_json(some), R"({
  "resilience": {
    "speculations_launched": 1,
    "speculations_promoted": 2,
    "speculations_cancelled": 3,
    "adaptive_deadlines_used": 4,
    "storms_entered": 5,
    "storms_exited": 6,
    "dispatches_held": 7,
    "probation_admissions": 8,
    "requarantines": 9,
    "quarantine_amnesties": 10
  },
  "storage_health": {
    "degraded": 1,
    "degraded_entries": 1,
    "degraded_exits": 2,
    "retry_failures": 3
  }
}
)");
  EXPECT_EQ(tora::exp::counters_json({}), "{\n}\n");
}

TEST(CounterTable, ListsEveryRecoveryResilienceAndReplicationField) {
  EXPECT_EQ(printed(tora::exp::counter_table(filled_recovery(1))), R"(counter                   count
-------------------------------
journal_records               1
journal_bytes                 2
journal_syncs                 3
snapshots_written             4
crashes_injected              5
recoveries                    6
torn_records_truncated        7
torn_snapshots_discarded      8
records_replayed              9
ticks_replayed               10
inputs_replayed              11
generation_fallbacks         12
journals_chained             13
tmp_files_swept              14
salvage_refusals             15
)");
  EXPECT_EQ(printed(tora::exp::counter_table(filled_resilience(1))), R"(counter                  count
------------------------------
speculations_launched        1
speculations_promoted        2
speculations_cancelled       3
adaptive_deadlines_used      4
storms_entered               5
storms_exited                6
dispatches_held              7
probation_admissions         8
requarantines                9
quarantine_amnesties        10
)");
  EXPECT_EQ(printed(tora::exp::counter_table(filled_replication(1))), R"(counter                      count
----------------------------------
records_shipped                  1
bytes_shipped                    2
barriers_shipped                 3
acks_received                    4
rotations_shipped                5
sync_waits                       6
wait_rounds                      7
standby_losses                   8
fences_received                  9
records_applied                 10
barriers_acked                  11
rotations_applied               12
rotate_mismatches               13
corrupt_frames                  14
promotions                      15
records_behind_at_promotion     16
fences_sent                     17
max_observed_lag                18
)");
}

TEST(CounterTable, ChaosListsTheBackpressureDeferrals) {
  EXPECT_EQ(printed(tora::exp::counter_table(filled_chaos(1))), R"(counter                           count
---------------------------------------
messages_dropped                      1
messages_duplicated                   2
messages_corrupted                    3
messages_severed                      4
links_severed                         5
malformed_lines                       6
stale_or_duplicate_results            7
attempt_timeouts                      8
redispatches                          9
workers_declared_dead                10
workers_quarantined                  11
protocol_evictions                   12
heartbeats                           13
duplicate_dispatches                 14
misaddressed_messages                15
worker_crashes                       16
dispatches_deferred_backpressure     17
)");
}

TEST(CounterTable, StorageUsesTheJsonNamesAndValues) {
  EXPECT_EQ(printed(tora::exp::storage_table(filled_storage_faults(1), filled_storage_health(1))),
            R"(counter           count
-----------------------
short_writes          1
write_errors          2
sync_errors           3
fsync_lies            4
read_errors           5
objects_rotted        6
enospc_hits           7
degraded              1
degraded_entries      1
degraded_exits        2
retry_failures        3
)");
}

TEST(CounterSnapshot, ChaosFrameIsEveryFieldInOrder) {
  tora::util::ByteWriter want;
  for (std::uint64_t v = 1; v <= 17; ++v) want.u64(v);
  tora::util::ByteWriter w;
  tora::core::save_counters(w, filled_chaos(1));
  EXPECT_EQ(w.bytes(), want.bytes());

  tora::util::ByteReader r(w.bytes());
  ChaosCounters back;
  tora::core::load_counters(r, back);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, filled_chaos(1));
}

TEST(CounterSnapshot, ResilienceFrameLeavesOutTheAmnesties) {
  tora::util::ByteWriter want;
  for (std::uint64_t v = 1; v <= 9; ++v) want.u64(v);
  tora::util::ByteWriter w;
  tora::core::save_counters(w, filled_resilience(1));
  EXPECT_EQ(w.bytes(), want.bytes()) << "quarantine_amnesties is not written";

  tora::util::ByteReader r(w.bytes());
  ResilienceCounters back;
  back.quarantine_amnesties = 77;
  tora::core::load_counters(r, back);
  EXPECT_TRUE(r.done());
  ResilienceCounters expected = filled_resilience(1);
  expected.quarantine_amnesties = 77;
  EXPECT_EQ(back, expected) << "a load leaves quarantine_amnesties alone";
}

TEST(CounterSnapshot, ManagerStorageHealthFrameRoundTrips) {
  using tora::core::recovery::MemStorage;
  using tora::core::recovery::RecoveryConfig;
  using tora::core::recovery::RecoveryLog;
  using tora::proto::DuplexLink;
  using tora::proto::ProtocolManager;

  std::vector<tora::core::TaskSpec> tasks(2);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = i;
    tasks[i].category = "c";
    tasks[i].demand = tora::core::ResourceVector{1.0, 100.0, 10.0};
    tasks[i].duration_s = 1.0;
  }
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  MemStorage storage;
  RecoveryLog log(storage);
  log.open_fresh();
  RecoveryConfig cfg;
  cfg.storage_retry_base_ticks = 1;
  ProtocolManager manager(tasks, alloc, {std::make_shared<DuplexLink>()});
  manager.attach_recovery(&log, nullptr, cfg, nullptr);
  manager.start();

  // Degrade, let the healthy disk's retry clear it, then degrade again:
  // two entries, one exit, no failed retry.
  manager.note_storage_failure();
  for (int i = 0; i < 8 && manager.storage_health().degraded; ++i) {
    manager.pump();
  }
  manager.note_storage_failure();
  StorageHealth live;
  live.degraded = true;
  live.degraded_entries = 2;
  live.degraded_exits = 1;
  ASSERT_EQ(manager.storage_health(), live);

  // The body ends with the three counters as u64s, then the term (0).
  const std::string body = manager.snapshot_body();
  tora::util::ByteWriter frame;
  frame.u64(2);
  frame.u64(1);
  frame.u64(0);
  frame.u64(0);
  ASSERT_GE(body.size(), frame.size());
  EXPECT_EQ(body.substr(body.size() - frame.size()), frame.bytes());

  // A restored manager carries the counters over but is healthy: snapshots
  // are only ever cut by a successful rotation.
  auto fresh_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  ProtocolManager restored(tasks, fresh_alloc,
                           {std::make_shared<DuplexLink>()});
  restored.begin_replay(body);
  StorageHealth healthy = live;
  healthy.degraded = false;
  EXPECT_EQ(restored.storage_health(), healthy);
}
