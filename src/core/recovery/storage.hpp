#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tora::core::recovery {

/// The storage operation a StorageError occurred in.
enum class StorageOp : std::uint8_t {
  Open,
  Read,
  Write,
  Sync,
  Rename,
  Remove,
  List,
  Mkdir,
  /// Not a syscall: recovery-time salvage found durable history it cannot
  /// reach or verify (both generations damaged, mid-file corruption in a
  /// sealed journal, a gap in the journal chain). Carries EBADMSG.
  Salvage,
};

const char* to_string(StorageOp op) noexcept;

/// A media-level durability failure: errno + operation + object name, so
/// callers can distinguish a full disk (ENOSPC) from dying media (EIO) from
/// unverifiable history (EBADMSG/Salvage) and react — degrade, fall back a
/// generation, or refuse with a diagnosable message — instead of string-
/// matching a runtime_error. Programmer errors (bad object names, appending
/// before open) stay std::invalid_argument/std::logic_error.
class StorageError : public std::runtime_error {
 public:
  StorageError(int code, StorageOp op, std::string object,
               const std::string& detail = {});

  /// The errno value (EBADMSG for salvage refusals).
  int code() const noexcept { return code_; }
  StorageOp op() const noexcept { return op_; }
  /// The object (file) name, or the directory for Mkdir/List.
  const std::string& object() const noexcept { return object_; }

 private:
  int code_;
  StorageOp op_;
  std::string object_;
};

/// A recovery-directory object written in a format this build does not
/// read: a snapshot container or journal sealed with the CRC-32 of builds
/// before container version 3. Refused by name (EBADMSG, op Salvage, like
/// every salvage refusal) instead of being read as damage, which would fall
/// back past its snapshots or read its journal as a tear at byte 0 and
/// restart the manager from nothing.
class FormatError : public StorageError {
 public:
  FormatError(std::string object, std::string format);

  /// The format found, e.g. "snapshot container version 2 (CRC-32 seal)".
  const std::string& format() const noexcept { return format_; }

 private:
  std::string format_;
};

/// Append-only handle to one storage object. Writes are BUFFERED until
/// sync(): a crash between append() and sync() may lose the unsynced tail
/// (that is the torn-tail case the journal reader tolerates).
class AppendHandle {
 public:
  virtual ~AppendHandle() = default;
  virtual void append(std::string_view bytes) = 0;
  /// Durability barrier: everything appended so far survives a crash.
  virtual void sync() = 0;
};

/// The durability substrate under the recovery log. Two implementations:
/// FileStorage (a directory; fsync/rename semantics) for real deployments
/// and MemStorage (an in-memory map with an explicit buffered-vs-durable
/// split) for deterministic crash tests.
///
/// Contract, mirroring POSIX:
///  - open_append truncates/creates and returns a buffered appender;
///  - write_file_durable writes the full content and syncs it before
///    returning (but does NOT rename — callers compose temp+rename);
///  - rename atomically replaces `to` with `from` (the snapshot commit
///    point); the rename itself is treated as durable;
///  - remove is idempotent (missing files are fine);
///  - read_file returns the CURRENT content (buffered included) or nullopt.
class Storage {
 public:
  virtual ~Storage() = default;
  virtual std::unique_ptr<AppendHandle> open_append(const std::string& name) = 0;
  virtual void write_file_durable(const std::string& name,
                                  std::string_view bytes) = 0;
  virtual void rename(const std::string& from, const std::string& to) = 0;
  virtual void remove(const std::string& name) = 0;
  virtual std::optional<std::string> read_file(const std::string& name) const = 0;
  /// Names of all existing objects, sorted.
  virtual std::vector<std::string> list() const = 0;

  /// Notification that the writing process "died" (crash injection).
  /// MemStorage drops every unsynced tail, modeling kernel buffer loss;
  /// FileStorage does nothing (an in-process fake crash cannot un-write OS
  /// buffers — real durability there comes from fsync placement).
  virtual void on_crash() {}
};

/// In-memory storage with an explicit durability model: each file keeps its
/// synced prefix (`durable`) separate from the unsynced tail (`buffered`).
/// crash() drops every unsynced tail — exactly what a kernel buffer-cache
/// loss does — which lets crash tests assert the journal reader's torn-tail
/// handling deterministically instead of hoping a real fs tears where the
/// test wants.
class MemStorage final : public Storage {
 public:
  std::unique_ptr<AppendHandle> open_append(const std::string& name) override;
  void write_file_durable(const std::string& name,
                          std::string_view bytes) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& name) override;
  std::optional<std::string> read_file(const std::string& name) const override;
  std::vector<std::string> list() const override;

  /// Simulate a machine crash: every file loses its unsynced tail.
  void crash();
  void on_crash() override { crash(); }

  /// Test helper: truncate `name`'s durable content to its first `keep`
  /// bytes (and drop any buffered tail), simulating a torn write at an
  /// arbitrary byte offset. Throws std::out_of_range for unknown names.
  void tear(const std::string& name, std::size_t keep);

  /// Deep copy of the DURABLE prefixes only — the exact state a crash at
  /// this instant would preserve. The torture harness forks per-barrier
  /// storage states out of one reference run with this.
  MemStorage durable_copy() const;

  /// Test helper: XOR the byte at `offset` of `name`'s durable content with
  /// `mask`, simulating media bit rot in a sealed object. Throws
  /// std::out_of_range for unknown names or offsets past the durable end.
  void corrupt(const std::string& name, std::size_t offset,
               unsigned char mask);

 private:
  struct File {
    std::string durable;
    std::string buffered;
  };
  class MemAppend;

  std::map<std::string, File> files_;
};

/// Directory-backed storage: open/write/fsync/rename/unlink on files under
/// `root` (created if missing). rename() fsyncs the directory afterwards so
/// the commit point is durable, not just the file content.
class FileStorage final : public Storage {
 public:
  explicit FileStorage(std::string root);

  std::unique_ptr<AppendHandle> open_append(const std::string& name) override;
  void write_file_durable(const std::string& name,
                          std::string_view bytes) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& name) override;
  std::optional<std::string> read_file(const std::string& name) const override;
  std::vector<std::string> list() const override;

  const std::string& root() const noexcept { return root_; }

 private:
  class FileAppend;

  std::string path_for(const std::string& name) const;
  void sync_dir() const;

  std::string root_;
};

}  // namespace tora::core::recovery
