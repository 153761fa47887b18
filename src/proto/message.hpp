#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/resources.hpp"

namespace tora::proto {

/// Message kinds of the manager <-> worker protocol, modelled after Work
/// Queue's line-oriented control protocol (paper Fig. 1: tasks are
/// dispatched to remote workers, results and resource records flow back).
enum class MsgType : std::uint8_t {
  WorkerReady,   ///< worker -> manager: announces itself and its capacity
  TaskDispatch,  ///< manager -> worker: run task `task_id` under `resources`
  TaskResult,    ///< worker -> manager: outcome + measured peak + runtime
  Evict,         ///< worker -> manager: attempt cancelled (worker leaving)
  Shutdown,      ///< manager -> worker: drain and disconnect
  Heartbeat,     ///< worker -> manager: liveness beacon carrying capacity
};

/// How an attempt ended (TaskResult payload).
enum class Outcome : std::uint8_t {
  Success,            ///< ran to completion within its allocation
  ResourceExhausted,  ///< killed for exceeding the allocation
};

/// One protocol message. Field relevance by type:
///  WorkerReady:  worker_id, resources (= capacity)
///  TaskDispatch: worker_id, task_id, attempt, category,
///                resources (= allocation)
///  TaskResult:   worker_id, task_id, attempt, outcome,
///                resources (= measured peak), runtime_s, exceeded_mask
///  Evict:        worker_id, task_id
///  Shutdown:     worker_id
///  Heartbeat:    worker_id, resources (= capacity, so a manager that lost
///                a worker's announcement can still register it)
struct Message {
  MsgType type = MsgType::WorkerReady;
  std::uint64_t worker_id = 0;
  std::uint64_t task_id = 0;
  /// Per-task attempt id, assigned by the manager at dispatch and echoed in
  /// the result. Lets both sides deduplicate replayed or stale messages
  /// idempotently when the transport duplicates or delays them.
  std::uint64_t attempt = 0;
  std::string category;
  core::ResourceVector resources;
  double runtime_s = 0.0;
  Outcome outcome = Outcome::Success;
  unsigned exceeded_mask = 0;

  bool operator==(const Message&) const = default;
};

/// Encodes a message as one line of space-separated `key=value` tokens with
/// a leading verb and an integrity checksum, e.g.
///   `dispatch crc=3f0a9c1e worker=3 task=17 attempt=1 category=proc
///    cores=1 memory=512 disk=64 time=0`
/// Category values are URL-%-escaped so spaces/equals survive. The `crc`
/// token (CRC-32C over the line with the token spliced out, 8 hex digits;
/// proto/checksum.hpp) sits directly after the verb so that corruption OR
/// truncation of the variable-length tail is always detectable.
std::string encode(const Message& msg);

/// Parses one encoded line. Returns nullopt on any malformed input
/// (unknown verb, missing field, bad number, missing or mismatching
/// checksum) — the protocol never throws on remote data. The `crc` token is
/// mandatory: tolerating its absence would let a mutation of the token's
/// key disable verification while other mutations alter the payload.
std::optional<Message> decode(std::string_view line);

std::string_view to_string(MsgType type) noexcept;
std::string_view to_string(Outcome outcome) noexcept;

}  // namespace tora::proto
