#include "core/recovery/recovery_log.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <stdexcept>
#include <utility>

#include "core/recovery/snapshot.hpp"
#include "util/bytes.hpp"

namespace tora::core::recovery {

std::optional<ObjectName> parse_object_name(std::string_view name) {
  ObjectName out{};
  std::string_view rest;
  if (name.starts_with("snapshot-")) {
    out.kind = ObjectName::Kind::Snapshot;
    rest = name.substr(9);
    if (rest.ends_with(".tmp")) {
      out.kind = ObjectName::Kind::SnapshotTmp;
      rest = rest.substr(0, rest.size() - 4);
    }
  } else if (name.starts_with("journal-")) {
    out.kind = ObjectName::Kind::Journal;
    rest = name.substr(8);
  } else {
    return std::nullopt;
  }
  const auto [ptr, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), out.epoch);
  if (ec != std::errc{} || ptr != rest.data() + rest.size()) {
    return std::nullopt;
  }
  return out;
}

RecoveryLog::RecoveryLog(Storage& storage, RecoveryCounters* counters,
                         CrashMonitor* crashes)
    : storage_(storage), counters_(counters), crashes_(crashes) {}

std::string RecoveryLog::snapshot_name(std::uint64_t epoch) {
  return "snapshot-" + std::to_string(epoch);
}

std::string RecoveryLog::journal_name(std::uint64_t epoch) {
  return "journal-" + std::to_string(epoch);
}

void RecoveryLog::refuse(const std::string& object, const std::string& why) {
  if (counters_) ++counters_->salvage_refusals;
  throw StorageError(EBADMSG, StorageOp::Salvage, object, why);
}

void RecoveryLog::refuse_format(const std::string& object,
                                const std::string& format) {
  if (counters_) ++counters_->salvage_refusals;
  throw FormatError(object, format);
}

RecoveryLog::ScanResult RecoveryLog::scan() {
  std::vector<std::uint64_t> snapshot_epochs;
  std::vector<std::uint64_t> journal_epochs;
  for (const std::string& name : storage_.list()) {
    const auto parsed = parse_object_name(name);
    if (!parsed) continue;
    if (parsed->kind == ObjectName::Kind::Snapshot) {
      snapshot_epochs.push_back(parsed->epoch);
    } else if (parsed->kind == ObjectName::Kind::Journal) {
      journal_epochs.push_back(parsed->epoch);
    }
  }
  std::sort(snapshot_epochs.rbegin(), snapshot_epochs.rend());
  const auto has_journal = [&](std::uint64_t epoch) {
    return std::find(journal_epochs.begin(), journal_epochs.end(), epoch) !=
           journal_epochs.end();
  };
  const auto has_journal_after = [&](std::uint64_t epoch) {
    return std::any_of(journal_epochs.begin(), journal_epochs.end(),
                       [epoch](std::uint64_t e) { return e > epoch; });
  };

  // Seed: the newest snapshot that seals correctly. A read EIO counts as
  // "this generation is unavailable" and falls back like corruption does.
  ScanResult out;
  bool found = false;
  std::size_t skipped = 0;
  // The newest snapshot in a container version before CRC-32C seals.
  std::optional<std::pair<std::uint64_t, std::uint32_t>> older;
  for (std::uint64_t epoch : snapshot_epochs) {
    std::optional<std::string> file;
    try {
      file = storage_.read_file(snapshot_name(epoch));
    } catch (const StorageError&) {
      file = std::nullopt;
    }
    auto body = file ? open_snapshot(*file) : std::nullopt;
    if (!body) {
      const auto version = file ? older_container_version(*file) : std::nullopt;
      if (version && !older) older.emplace(epoch, *version);
      if (counters_) ++counters_->torn_snapshots_discarded;
      ++skipped;
      continue;
    }
    out.base_epoch = epoch;
    out.snapshot = std::move(body);
    found = true;
    break;
  }
  if (!found) {
    // Genesis rebuild is only legal when genesis history actually exists:
    // if snapshots were written but every one is damaged and journal-0 is
    // long purged, replaying from nothing would be a silent wrong rebuild.
    if (!snapshot_epochs.empty() && !has_journal(0)) {
      // An older build's snapshots, not damaged ones of ours: name the
      // format. (With journal-0 present, the genesis replay below meets the
      // older journal and names it there.) A snapshot whose own journal
      // this build reads is one of ours with a flipped version field.
      if (older && !journal_is_ours(older->first)) {
        refuse_format(snapshot_name(older->first),
                      "snapshot container version " +
                          std::to_string(older->second) + " (CRC-32 seal)");
      }
      refuse(snapshot_name(snapshot_epochs.front()),
             "every snapshot generation is damaged and no genesis journal "
             "remains");
    }
    out.base_epoch = 0;
  }
  if (found ? skipped > 0 : !snapshot_epochs.empty()) {
    out.fell_back = true;
    if (counters_) ++counters_->generation_fallbacks;
  }
  out.epoch = out.base_epoch;

  // Replay the journal chain from the base generation forward. Journals
  // older than the base are stale leftovers; journals past a gap are
  // unreachable history and force a refusal.
  for (std::uint64_t e = out.base_epoch;; ++e) {
    const std::string jname = journal_name(e);
    const auto bytes = storage_.read_file(jname);
    if (!bytes) {
      if (has_journal_after(e)) {
        refuse(jname, "missing link in the journal chain (later journals "
                      "exist)");
      }
      break;  // legal: crash between snapshot commit and journal open
    }
    JournalReadResult r = read_journal(*bytes);
    if (r.records.empty() && !r.mid_corruption &&
        older_format_journal(*bytes, e)) {
      refuse_format(jname, "journal with CRC-32 frames");
    }
    if (r.mid_corruption) {
      refuse(jname,
             "mid-file corruption: intact records follow a damaged one");
    }
    if (!r.records.empty()) {
      const JournalRecord& head = r.records.front();
      bool ok = head.type == RecordType::Epoch && head.payload.size() >= 8;
      if (ok) {
        util::ByteReader header(head.payload);
        ok = header.u64() == e;
      }
      if (!ok) refuse(jname, "journal does not begin with its epoch record");
    }
    const bool final_journal = !has_journal(e + 1);
    if (r.torn && !final_journal) {
      // Sealed journals end at a durability barrier (rotation happens after
      // the tick's last sync), so a torn non-final journal is media damage,
      // not a crash artifact.
      refuse(jname, "sealed journal is torn");
    }
    if (e > out.base_epoch && counters_) ++counters_->journals_chained;
    out.tail.insert(out.tail.end(),
                    std::make_move_iterator(r.records.begin()),
                    std::make_move_iterator(r.records.end()));
    out.epoch = e;
    if (final_journal) {
      out.torn_tail = r.torn;
      if (r.torn && counters_) ++counters_->torn_records_truncated;
      break;
    }
  }
  return out;
}

bool RecoveryLog::journal_is_ours(std::uint64_t epoch) const {
  std::optional<std::string> bytes;
  try {
    bytes = storage_.read_file(journal_name(epoch));
  } catch (const StorageError&) {
    return false;
  }
  return bytes && !read_journal(*bytes).records.empty();
}

void RecoveryLog::open_journal(std::uint64_t epoch, std::uint64_t tick) {
  // Built into a local first: if the open, the Epoch append or its sync
  // fails (ENOSPC/EIO), journal_ stays unset and writable() reports false —
  // the degradation entry condition, not a half-open journal.
  auto writer = std::make_unique<JournalWriter>(
      storage_.open_append(journal_name(epoch)), counters_);
  util::ByteWriter w;
  w.u64(epoch);
  w.u64(tick);
  writer->append(RecordType::Epoch, w.bytes());
  writer->sync();
  journal_ = std::move(writer);
  epoch_ = epoch;
}

void RecoveryLog::open_fresh() {
  sweep_tmp();
  open_journal(0, 0);
  if (observer_) observer_->on_open_fresh();
}

void RecoveryLog::adopt_epoch(std::uint64_t epoch) noexcept { epoch_ = epoch; }

void RecoveryLog::append(RecordType type, std::string_view payload) {
  if (!journal_) {
    throw std::logic_error("RecoveryLog: append before open_fresh/rotate");
  }
  journal_->append(type, payload);
  if (observer_) observer_->on_record(type, payload);
}

void RecoveryLog::sync() {
  if (!journal_) {
    throw std::logic_error("RecoveryLog: sync before open_fresh/rotate");
  }
  journal_->sync();
  if (observer_) observer_->on_sync();
}

void RecoveryLog::rotate(std::string_view body, std::uint64_t tick) {
  sweep_tmp();
  const std::uint64_t next = epoch_ + 1;
  const std::string committed = snapshot_name(next);
  const std::string tmp = committed + ".tmp";
  storage_.write_file_durable(tmp, seal_snapshot(body));
  if (crashes_) {
    crashes_->reach(ManagerCrashPoint::BeforeSnapshotRename, tick);
  }
  storage_.rename(tmp, committed);
  if (counters_) ++counters_->snapshots_written;
  // The rename is the commit point: the old journal handle is dead from
  // here even if opening the new journal fails below (the caller's
  // degradation path retries rotate(), advancing past `next`).
  journal_.reset();
  epoch_ = next;
  if (crashes_) {
    crashes_->reach(ManagerCrashPoint::AfterSnapshotRename, tick);
  }
  open_journal(next, tick);
  purge_older_than(next);
  if (observer_) observer_->on_rotate(next, body, tick);
}

void RecoveryLog::sweep_tmp() {
  for (const std::string& name : storage_.list()) {
    const auto parsed = parse_object_name(name);
    if (parsed && parsed->kind == ObjectName::Kind::SnapshotTmp) {
      storage_.remove(name);
      if (counters_) ++counters_->tmp_files_swept;
    }
  }
}

void RecoveryLog::purge_older_than(std::uint64_t epoch) {
  // Two-generation retention: keep `epoch` and its predecessor so a
  // post-purge corruption of the newest snapshot still salvages exactly
  // (previous snapshot + both journals).
  for (const std::string& name : storage_.list()) {
    const auto parsed = parse_object_name(name);
    if (!parsed) continue;
    if (parsed->kind == ObjectName::Kind::SnapshotTmp ||
        parsed->epoch + 1 < epoch) {
      storage_.remove(name);
    }
  }
}

}  // namespace tora::core::recovery
