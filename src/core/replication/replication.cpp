#include "core/replication/replication.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/bytes.hpp"

namespace tora::core::replication {

namespace {

/// 'R' + body + u32 crc32c(body), little-endian.
std::string seal(std::string body) {
  const std::uint32_t crc = util::crc32c(body);
  std::string out;
  out.reserve(1 + body.size() + 4);
  out.push_back('R');
  out += body;
  out.push_back(static_cast<char>(crc & 0xff));
  out.push_back(static_cast<char>((crc >> 8) & 0xff));
  out.push_back(static_cast<char>((crc >> 16) & 0xff));
  out.push_back(static_cast<char>((crc >> 24) & 0xff));
  return out;
}

}  // namespace

const char* to_string(ReplicationConfig::CommitMode m) noexcept {
  switch (m) {
    case ReplicationConfig::CommitMode::Sync: return "sync";
    case ReplicationConfig::CommitMode::Async: return "async";
  }
  return "unknown";
}

std::string encode_open_fresh() {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ReplicationFrame::Op::OpenFresh));
  return seal(w.take());
}

std::string encode_record(recovery::RecordType type,
                          std::string_view payload) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ReplicationFrame::Op::Record));
  w.u8(static_cast<std::uint8_t>(type));
  w.str(payload);
  return seal(w.take());
}

std::string encode_barrier(std::uint64_t seq) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ReplicationFrame::Op::Barrier));
  w.u64(seq);
  return seal(w.take());
}

std::string encode_rotate(std::uint64_t epoch, std::string_view snapshot_body,
                          std::uint64_t tick) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ReplicationFrame::Op::Rotate));
  w.u64(epoch);
  w.u64(tick);
  w.str(snapshot_body);
  return seal(w.take());
}

std::string encode_ack(std::uint64_t seq) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ReplicationFrame::Op::Ack));
  w.u64(seq);
  return seal(w.take());
}

std::string encode_fence(std::uint64_t term) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ReplicationFrame::Op::Fence));
  w.u64(term);
  return seal(w.take());
}

std::optional<ReplicationFrame> decode_frame(std::string_view bytes) {
  if (bytes.size() < 1 + 1 + 4 || bytes.front() != 'R') return std::nullopt;
  const std::string_view body = bytes.substr(1, bytes.size() - 5);
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(bytes[bytes.size() - 4 + i]));
  };
  const std::uint32_t crc = b(0) | b(1) << 8 | b(2) << 16 | b(3) << 24;
  if (crc != util::crc32c(body)) return std::nullopt;
  try {
    util::ByteReader r(body);
    ReplicationFrame f;
    f.op = static_cast<ReplicationFrame::Op>(r.u8());
    switch (f.op) {
      case ReplicationFrame::Op::OpenFresh:
        break;
      case ReplicationFrame::Op::Record: {
        // An unknown type would reach the mirror journal and be dropped on
        // replay as if it were an audit record; refuse the frame instead.
        const std::uint8_t type = r.u8();
        if (!recovery::is_record_type(type)) return std::nullopt;
        f.rtype = static_cast<recovery::RecordType>(type);
        f.body = r.str();
        break;
      }
      case ReplicationFrame::Op::Barrier:
      case ReplicationFrame::Op::Ack:
      case ReplicationFrame::Op::Fence:
        f.seq = r.u64();
        break;
      case ReplicationFrame::Op::Rotate:
        f.epoch = r.u64();
        f.tick = r.u64();
        f.body = r.str();
        break;
      default:
        return std::nullopt;
    }
    if (!r.done()) return std::nullopt;
    return f;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

// ----------------------------------------------------------- JournalShipper

JournalShipper::JournalShipper(ReplicationConfig cfg, ReplicationSend send,
                               ReplicationRecv recv,
                               ReplicationCounters* counters)
    : cfg_(cfg),
      send_(std::move(send)),
      recv_(std::move(recv)),
      counters_(counters) {
  if (!send_ || !recv_) {
    throw std::invalid_argument("JournalShipper: null transport adapter");
  }
}

void JournalShipper::ship(std::string frame) {
  if (counters_) counters_->bytes_shipped += frame.size();
  send_(std::move(frame));
}

void JournalShipper::poll_acks() {
  while (auto line = recv_()) {
    const auto frame = decode_frame(*line);
    if (!frame) {
      if (counters_) ++counters_->corrupt_frames;
      continue;
    }
    if (frame->op == ReplicationFrame::Op::Ack) {
      acked_ = std::max(acked_, frame->seq);
      if (counters_) {
        ++counters_->acks_received;
        counters_->max_observed_lag = std::max<std::size_t>(
            counters_->max_observed_lag,
            static_cast<std::size_t>(shipped_ - acked_));
      }
    } else if (frame->op == ReplicationFrame::Op::Fence) {
      fenced_ = true;
      if (counters_) ++counters_->fences_received;
      if (on_fenced_) on_fenced_(frame->seq);
    }
    // Anything else on the ack channel is a peer bug; ignore.
  }
}

void JournalShipper::wait_at_barrier() {
  const auto blocked = [&] {
    switch (cfg_.mode) {
      case ReplicationConfig::CommitMode::Sync:
        return acked_ < shipped_;
      case ReplicationConfig::CommitMode::Async:
        return shipped_ - acked_ > cfg_.lag_cap;
    }
    return false;
  };
  poll_acks();
  if (!blocked() || fenced_) return;
  if (counters_) ++counters_->sync_waits;
  std::size_t rounds = 0;
  while (blocked() && !fenced_) {
    if (++rounds > cfg_.wait_rounds_cap) {
      // The standby stopped answering. The primary must not hang on its
      // own insurance: drop replication and keep serving.
      lost_ = true;
      if (counters_) ++counters_->standby_losses;
      return;
    }
    if (counters_) ++counters_->wait_rounds;
    if (service_) service_();
    poll_acks();
  }
}

void JournalShipper::on_open_fresh() {
  if (lost_) return;
  ship(encode_open_fresh());
}

void JournalShipper::on_record(recovery::RecordType type,
                               std::string_view payload) {
  if (lost_) return;
  ++shipped_;
  if (counters_) {
    ++counters_->records_shipped;
    counters_->max_observed_lag =
        std::max<std::size_t>(counters_->max_observed_lag,
                              static_cast<std::size_t>(shipped_ - acked_));
  }
  ship(encode_record(type, payload));
}

void JournalShipper::on_sync() {
  if (lost_) return;
  if (counters_) ++counters_->barriers_shipped;
  ship(encode_barrier(shipped_));
  wait_at_barrier();
}

void JournalShipper::on_rotate(std::uint64_t epoch, std::string_view body,
                               std::uint64_t tick) {
  if (lost_) return;
  ++shipped_;  // a rotation advances the stream position like a record
  if (counters_) ++counters_->rotations_shipped;
  ship(encode_rotate(epoch, body, tick));
  // A rotation is itself a durability point (the snapshot replaced the
  // journal history), so it gets the same commit-mode treatment as a sync.
  if (counters_) ++counters_->barriers_shipped;
  ship(encode_barrier(shipped_));
  wait_at_barrier();
}

// ----------------------------------------------------------- StandbyReplica

StandbyReplica::StandbyReplica(recovery::Storage& storage,
                               ReplicationSend send_to_primary,
                               ReplicationRecv recv, StandbyApplier* applier,
                               ReplicationCounters* counters)
    : log_(storage, nullptr, nullptr),
      send_(std::move(send_to_primary)),
      recv_(std::move(recv)),
      applier_(applier),
      counters_(counters) {
  if (!send_ || !recv_) {
    throw std::invalid_argument("StandbyReplica: null transport adapter");
  }
}

std::size_t StandbyReplica::pump() {
  std::size_t applied = 0;
  while (auto line = recv_()) {
    const auto frame = decode_frame(*line);
    if (!frame) {
      if (counters_) ++counters_->corrupt_frames;
      continue;
    }
    apply(*frame);
    ++applied;
  }
  return applied;
}

void StandbyReplica::apply(const ReplicationFrame& frame) {
  switch (frame.op) {
    case ReplicationFrame::Op::OpenFresh:
      // Re-perform genesis on the mirror disk: journal-0 + Epoch header,
      // byte-identical to the primary's (the framing is deterministic).
      log_.open_fresh();
      break;
    case ReplicationFrame::Op::Record: {
      if (!log_.writable()) {
        // A record with no open journal means we attached mid-stream
        // without a seeding rotate — refuse to build a silently-diverged
        // mirror; the primary's next rotation re-seeds us.
        if (counters_) ++counters_->corrupt_frames;
        break;
      }
      log_.append(frame.rtype, frame.body);
      if (applier_) {
        applier_->apply_record(
            recovery::JournalRecord{frame.rtype, frame.body});
      }
      ++applied_;
      ++position_;
      if (counters_) ++counters_->records_applied;
      break;
    }
    case ReplicationFrame::Op::Barrier:
      // Never acknowledge what we could not mirror: an unseeded standby
      // stays silent and lets the primary's next rotation (or its standby-
      // lost cap) sort the pairing out.
      if (!log_.writable()) break;
      log_.sync();
      last_acked_ = frame.seq;
      send_(encode_ack(frame.seq));
      if (counters_) ++counters_->barriers_acked;
      break;
    case ReplicationFrame::Op::Rotate: {
      // The three-way oracle's always-on leg: the warm image must already
      // BE the shipped snapshot. A mismatch is counted (tests assert zero)
      // and repaired from the shipped body — the mirror disk is the truth
      // the standby would be promoted from either way.
      if (applier_) {
        const auto warm = applier_->warm_body();
        if (warm && *warm != frame.body && counters_) {
          ++counters_->rotate_mismatches;
        }
        if (!warm || *warm != frame.body) applier_->rebase(frame.body);
      }
      // Mirror the rotation: seal the SHIPPED body as snapshot-<epoch> and
      // open journal-<epoch>, exactly what the primary's rotate() did.
      log_.adopt_epoch(frame.epoch - 1);
      log_.rotate(frame.body, frame.tick);
      ++position_;
      if (counters_) ++counters_->rotations_applied;
      break;
    }
    case ReplicationFrame::Op::Ack:
    case ReplicationFrame::Op::Fence:
      // Primary→standby channel never carries these; ignore.
      break;
  }
}

void StandbyReplica::send_fence(std::uint64_t term) {
  send_(encode_fence(term));
  if (counters_) ++counters_->fences_sent;
}

}  // namespace tora::core::replication
