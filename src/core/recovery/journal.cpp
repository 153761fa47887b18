#include "core/recovery/journal.hpp"

#include <stdexcept>
#include <utility>

#include "util/bytes.hpp"

namespace tora::core::recovery {

namespace {

constexpr std::size_t kFrameOverhead = 4 + 1 + 4;  // len + type + crc
/// A complete epoch frame: the header every journal opens with.
constexpr std::size_t kEpochFrameSize = kFrameOverhead + 16;

/// The CRC-32C of a frame's type byte and payload: the `1 + len` bytes that
/// follow its length field.
std::uint32_t frame_crc(std::string_view bytes, std::size_t at,
                        std::uint32_t len) {
  return util::crc32c(bytes.substr(at + 4, 1 + std::size_t{len}));
}

void put_u32(char* out, std::uint32_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

std::uint32_t get_u32(std::string_view bytes, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 1]))
             << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 3]))
             << 24;
}

}  // namespace

// to_string's answer for a byte outside the enum; is_record_type compares
// against this very pointer, so the switch is the one list of record types.
constexpr const char* kUnknownRecordType = "unknown";

const char* to_string(RecordType t) noexcept {
  switch (t) {
    case RecordType::Epoch: return "epoch";
    case RecordType::Started: return "started";
    case RecordType::Tick: return "tick";
    case RecordType::Input: return "input";
    case RecordType::LivenessDone: return "liveness-done";
    case RecordType::DispatchDone: return "dispatch-done";
    case RecordType::Backpressure: return "backpressure";
    case RecordType::TermBump: return "term-bump";
    case RecordType::CategoryInterned: return "category-interned";
    case RecordType::TaskSubmitted: return "task-submitted";
    case RecordType::AllocationCommitted: return "allocation-committed";
    case RecordType::TaskDispatched: return "task-dispatched";
    case RecordType::TaskCompleted: return "task-completed";
    case RecordType::TaskAttemptFailed: return "task-attempt-failed";
    case RecordType::TaskRequeued: return "task-requeued";
    case RecordType::TaskEvicted: return "task-evicted";
    case RecordType::TaskFatal: return "task-fatal";
  }
  return kUnknownRecordType;
}

bool is_record_type(std::uint8_t byte) noexcept {
  return to_string(static_cast<RecordType>(byte)) != kUnknownRecordType;
}

JournalWriter::JournalWriter(std::unique_ptr<AppendHandle> out,
                             RecoveryCounters* counters)
    : out_(std::move(out)), counters_(counters) {
  if (!out_) {
    throw std::invalid_argument("JournalWriter: null append handle");
  }
}

void JournalWriter::append(RecordType type, std::string_view payload) {
  frame_.resize(kFrameOverhead + payload.size());
  char* at = frame_.data();
  put_u32(at, static_cast<std::uint32_t>(payload.size()));
  at[4] = static_cast<char>(type);
  payload.copy(at + 5, payload.size());
  put_u32(at + 5 + payload.size(),
          util::crc32c({at + 4, 1 + payload.size()}));
  out_->append(frame_);
  bytes_written_ += frame_.size();
  if (counters_) {
    ++counters_->journal_records;
    counters_->journal_bytes += frame_.size();
  }
}

void JournalWriter::sync() {
  out_->sync();
  if (counters_) ++counters_->journal_syncs;
}

JournalReadResult read_journal(std::string_view bytes) {
  JournalReadResult out;
  std::size_t at = 0;
  while (bytes.size() - at >= kFrameOverhead) {
    const std::uint32_t len = get_u32(bytes, at);
    if (bytes.size() - at < kFrameOverhead + len) break;  // cut mid-payload
    if (get_u32(bytes, at + 5 + len) != frame_crc(bytes, at, len)) break;
    const auto type_byte = static_cast<std::uint8_t>(bytes[at + 4]);
    const RecordType type = static_cast<RecordType>(type_byte);
    const std::string_view payload = bytes.substr(at + 5, len);
    if (!is_record_type(type_byte)) {
      // A tear cannot produce a valid CRC, so an intact frame of no known
      // type is a crafted or buggy body, wherever it sits: refuse.
      out.mid_corruption = true;
      break;
    }
    out.records.push_back({type, std::string(payload)});
    at += kFrameOverhead + len;
  }
  out.bytes_consumed = at;
  out.torn = at != bytes.size();
  if (out.torn) {
    // Resync scan: if any offset past the cut decodes a full CRC-valid
    // frame, the "tear" is really mid-file corruption. A 32-bit CRC makes
    // an accidental resync inside damaged or payload bytes astronomically
    // unlikely, so this is a reliable tear-vs-rot discriminator.
    for (std::size_t probe = at + 1;
         probe + kFrameOverhead <= bytes.size() && !out.mid_corruption;
         ++probe) {
      const std::uint32_t len = get_u32(bytes, probe);
      if (len > bytes.size() - probe - kFrameOverhead) continue;
      if (get_u32(bytes, probe + 5 + len) == frame_crc(bytes, probe, len)) {
        out.mid_corruption = true;
      }
    }
  }
  return out;
}

bool older_format_journal(std::string_view bytes, std::uint64_t epoch) {
  if (bytes.size() < kEpochFrameSize + kFrameOverhead) return false;
  if (get_u32(bytes, 0) != 16 ||
      bytes[4] != static_cast<char>(RecordType::Epoch)) {
    return false;
  }
  util::ByteReader header(bytes.substr(5, 8));
  if (header.u64() != epoch) return false;
  if (get_u32(bytes, kEpochFrameSize - 4) == frame_crc(bytes, 0, 16)) {
    return false;
  }
  const std::uint32_t len = get_u32(bytes, kEpochFrameSize);
  if (len > bytes.size() - kEpochFrameSize - kFrameOverhead) return false;
  if (!is_record_type(static_cast<std::uint8_t>(bytes[kEpochFrameSize + 4]))) {
    return false;
  }
  return get_u32(bytes, kEpochFrameSize + 5 + len) !=
         frame_crc(bytes, kEpochFrameSize, len);
}

}  // namespace tora::core::recovery
