#include "core/recovery/storage.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/io.hpp"

namespace tora::core::recovery {

namespace {

[[noreturn]] void throw_errno(StorageOp op, const std::string& object) {
  throw StorageError(errno, op, object);
}

void check_name(const std::string& name) {
  if (name.empty() || name.find('/') != std::string::npos) {
    throw std::invalid_argument("recovery storage: bad object name '" + name +
                                "'");
  }
}

}  // namespace

const char* to_string(StorageOp op) noexcept {
  switch (op) {
    case StorageOp::Open:
      return "open";
    case StorageOp::Read:
      return "read";
    case StorageOp::Write:
      return "write";
    case StorageOp::Sync:
      return "sync";
    case StorageOp::Rename:
      return "rename";
    case StorageOp::Remove:
      return "remove";
    case StorageOp::List:
      return "list";
    case StorageOp::Mkdir:
      return "mkdir";
    case StorageOp::Salvage:
      return "salvage";
  }
  return "?";
}

namespace {

std::string format_storage_error(int code, StorageOp op,
                                 const std::string& object,
                                 const std::string& detail) {
  std::string msg = "recovery storage: ";
  msg += to_string(op);
  msg += " '" + object + "': ";
  msg += detail.empty() ? std::strerror(code) : detail;
  return msg;
}

}  // namespace

StorageError::StorageError(int code, StorageOp op, std::string object,
                           const std::string& detail)
    : std::runtime_error(format_storage_error(code, op, object, detail)),
      code_(code),
      op_(op),
      object_(std::move(object)) {}

FormatError::FormatError(std::string object, std::string format)
    : StorageError(EBADMSG, StorageOp::Salvage, std::move(object),
                   "written in an older format: " + format +
                       "; this build reads snapshot container version 3 "
                       "and journals sealed with CRC-32C"),
      format_(std::move(format)) {}

// ---------------------------------------------------------------------------
// MemStorage

class MemStorage::MemAppend final : public AppendHandle {
 public:
  explicit MemAppend(File* file) : file_(file) {}
  void append(std::string_view bytes) override { file_->buffered += bytes; }
  void sync() override {
    file_->durable += file_->buffered;
    file_->buffered.clear();
  }

 private:
  File* file_;
};

std::unique_ptr<AppendHandle> MemStorage::open_append(const std::string& name) {
  check_name(name);
  File& f = files_[name];
  f.durable.clear();
  f.buffered.clear();
  return std::make_unique<MemAppend>(&f);
}

void MemStorage::write_file_durable(const std::string& name,
                                    std::string_view bytes) {
  check_name(name);
  File& f = files_[name];
  f.durable = bytes;
  f.buffered.clear();
}

void MemStorage::rename(const std::string& from, const std::string& to) {
  check_name(from);
  check_name(to);
  const auto it = files_.find(from);
  if (it == files_.end()) {
    throw StorageError(ENOENT, StorageOp::Rename, from);
  }
  File moved = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(moved);
}

void MemStorage::remove(const std::string& name) {
  check_name(name);
  files_.erase(name);
}

std::optional<std::string> MemStorage::read_file(
    const std::string& name) const {
  const auto it = files_.find(name);
  if (it == files_.end()) return std::nullopt;
  return it->second.durable + it->second.buffered;
}

std::vector<std::string> MemStorage::list() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) names.push_back(name);
  return names;
}

void MemStorage::crash() {
  for (auto& [name, file] : files_) file.buffered.clear();
}

void MemStorage::tear(const std::string& name, std::size_t keep) {
  const auto it = files_.find(name);
  if (it == files_.end()) {
    throw std::out_of_range("MemStorage::tear: unknown object '" + name + "'");
  }
  File& f = it->second;
  f.buffered.clear();
  if (keep < f.durable.size()) f.durable.resize(keep);
}

MemStorage MemStorage::durable_copy() const {
  MemStorage copy;
  for (const auto& [name, file] : files_) {
    copy.files_[name].durable = file.durable;
  }
  return copy;
}

void MemStorage::corrupt(const std::string& name, std::size_t offset,
                         unsigned char mask) {
  const auto it = files_.find(name);
  if (it == files_.end()) {
    throw std::out_of_range("MemStorage::corrupt: unknown object '" + name +
                            "'");
  }
  std::string& durable = it->second.durable;
  if (offset >= durable.size()) {
    throw std::out_of_range("MemStorage::corrupt: offset past end of '" +
                            name + "'");
  }
  durable[offset] = static_cast<char>(
      static_cast<unsigned char>(durable[offset]) ^ mask);
}

// ---------------------------------------------------------------------------
// FileStorage

class FileStorage::FileAppend final : public AppendHandle {
 public:
  FileAppend(int fd, std::string name) : fd_(fd), name_(std::move(name)) {}
  ~FileAppend() override { util::io::close_fd(fd_); }
  FileAppend(const FileAppend&) = delete;
  FileAppend& operator=(const FileAppend&) = delete;

  void append(std::string_view bytes) override {
    // The shared helper retries EINTR and resumes short writes explicitly;
    // anything else is a real durability failure.
    if (util::io::write_full(fd_, bytes).status != util::io::IoStatus::Ok) {
      throw_errno(StorageOp::Write, name_);
    }
  }

  void sync() override {
    if (!util::io::fsync_retry(fd_)) throw_errno(StorageOp::Sync, name_);
  }

 private:
  int fd_;
  std::string name_;
};

FileStorage::FileStorage(std::string root) : root_(std::move(root)) {
  if (::mkdir(root_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw_errno(StorageOp::Mkdir, root_);
  }
}

std::string FileStorage::path_for(const std::string& name) const {
  check_name(name);
  return root_ + "/" + name;
}

void FileStorage::sync_dir() const {
  const int fd = util::io::open_retry(root_.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno(StorageOp::Open, root_);
  const bool ok = util::io::fsync_retry(fd);
  util::io::close_fd(fd);
  if (!ok) throw_errno(StorageOp::Sync, root_);
}

std::unique_ptr<AppendHandle> FileStorage::open_append(
    const std::string& name) {
  const std::string path = path_for(name);
  const int fd =
      util::io::open_retry(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno(StorageOp::Open, name);
  return std::make_unique<FileAppend>(fd, name);
}

void FileStorage::write_file_durable(const std::string& name,
                                     std::string_view bytes) {
  auto handle = open_append(name);
  handle->append(bytes);
  handle->sync();
}

void FileStorage::rename(const std::string& from, const std::string& to) {
  if (::rename(path_for(from).c_str(), path_for(to).c_str()) != 0) {
    throw_errno(StorageOp::Rename, from + " -> " + to);
  }
  sync_dir();
}

void FileStorage::remove(const std::string& name) {
  if (::unlink(path_for(name).c_str()) != 0 && errno != ENOENT) {
    throw_errno(StorageOp::Remove, name);
  }
}

std::optional<std::string> FileStorage::read_file(
    const std::string& name) const {
  const int fd = util::io::open_retry(path_for(name).c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno(StorageOp::Open, name);
  }
  std::string out;
  const util::io::IoResult r = util::io::read_to_end(fd, out);
  util::io::close_fd(fd);
  if (r.status != util::io::IoStatus::Ok) throw_errno(StorageOp::Read, name);
  return out;
}

std::vector<std::string> FileStorage::list() const {
  DIR* dir = ::opendir(root_.c_str());
  if (!dir) throw_errno(StorageOp::List, root_);
  std::vector<std::string> names;
  while (dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace tora::core::recovery
