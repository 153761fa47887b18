#include "proto/message.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstring>

#include "proto/checksum.hpp"

namespace tora::proto {

namespace {

bool needs_escape(unsigned char c) noexcept {
  return c == ' ' || c == '=' || c == '%' || c == '\n' || c == '\r';
}

std::size_t escaped_size(std::string_view s) noexcept {
  std::size_t n = s.size();
  for (unsigned char c : s) n += needs_escape(c) ? 2 : 0;
  return n;
}

/// Writes `s` to `out` (escaped_size(s) bytes) with every special byte as
/// `%XX` in uppercase hex.
void escape_into(char* out, std::string_view s) noexcept {
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (unsigned char c : s) {
    if (needs_escape(c)) {
      *out++ = '%';
      *out++ = kHex[c >> 4];
      *out++ = kHex[c & 0xFu];
    } else {
      *out++ = static_cast<char>(c);
    }
  }
}

bool unescape_into(std::string_view s, std::string& out) {
  const auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    if (i + 2 >= s.size()) return false;
    const int hi = hex(s[i + 1]);
    const int lo = hex(s[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return true;
}

/// Longest decimal u64 (`18446744073709551615`) and longest `%.17g` double
/// (`-2.2250738585072014e-308`).
constexpr std::size_t kMaxUintChars = 20;
constexpr std::size_t kMaxRealChars = 24;
/// The longest ` key=value` text encode() writes besides the category: a
/// result's fields at those widths take 287 bytes.
constexpr std::size_t kMaxFieldText = 320;

/// Formats ` key=value` fields into a fixed buffer.
class FieldWriter {
 public:
  std::string_view view() const noexcept { return {buf_, n_}; }

  void key(std::string_view k) noexcept {
    buf_[n_++] = ' ';
    std::memcpy(buf_ + n_, k.data(), k.size());
    n_ += k.size();
    buf_[n_++] = '=';
  }
  void text(std::string_view k, std::string_view v) noexcept {
    key(k);
    std::memcpy(buf_ + n_, v.data(), v.size());
    n_ += v.size();
  }
  void uint(std::string_view k, std::uint64_t v) noexcept {
    key(k);
    char* at = buf_ + n_;
    const auto r = std::to_chars(at, at + kMaxUintChars, v);
    n_ += static_cast<std::size_t>(r.ptr - at);
  }
  /// Seventeen significant digits in general format, which std::to_chars
  /// defines as printf's `%.17g` in the "C" locale: the wire format's
  /// spelling, with enough digits for every double to round-trip exactly.
  void real(std::string_view k, double v) noexcept {
    key(k);
    char* at = buf_ + n_;
    const auto r = std::to_chars(at, at + kMaxRealChars, v,
                                 std::chars_format::general, 17);
    n_ += static_cast<std::size_t>(r.ptr - at);
  }
  void resources(const core::ResourceVector& r) noexcept {
    real("cores", r.cores());
    real("memory", r.memory_mb());
    real("disk", r.disk_mb());
    real("time", r.time_s());
  }

 private:
  char buf_[kMaxFieldText];
  std::size_t n_ = 0;
};

/// Keys decode() reads; every other key is ignored.
enum Key : std::size_t {
  kWorker, kTask, kAttempt, kCategory, kOutcome, kRuntime, kExceeded,
  kCores, kMemory, kDisk, kTime, kKeyCount
};
constexpr std::array<std::string_view, kKeyCount> kKeyNames = {
    "worker",   "task",  "attempt", "category", "outcome", "runtime",
    "exceeded", "cores", "memory",  "disk",     "time"};

/// The value of each known key at its first occurrence, as a view into the
/// line.
class Fields {
 public:
  /// Scans the space-separated `key=value` tokens once. A token without `=`
  /// or with an empty key rejects the line.
  bool scan(std::string_view rest) noexcept {
    std::size_t pos = 0;
    while (pos < rest.size()) {
      while (pos < rest.size() && rest[pos] == ' ') ++pos;
      if (pos >= rest.size()) break;
      std::size_t end = rest.find(' ', pos);
      if (end == std::string_view::npos) end = rest.size();
      const std::string_view token = rest.substr(pos, end - pos);
      pos = end;
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos || eq == 0) return false;
      const std::string_view key = token.substr(0, eq);
      for (std::size_t k = 0; k < kKeyCount; ++k) {
        if (key != kKeyNames[k]) continue;
        if (!value_[k]) value_[k] = token.substr(eq + 1);
        break;
      }
    }
    return true;
  }

  const std::optional<std::string_view>& text(Key k) const noexcept {
    return value_[k];
  }

  /// A decimal integer that is the whole value: no sign, point, exponent
  /// or rounding.
  std::optional<std::uint64_t> uint(Key k) const noexcept {
    if (!value_[k]) return std::nullopt;
    const std::string_view v = *value_[k];
    std::uint64_t out = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || end != v.data() + v.size()) return std::nullopt;
    return out;
  }

  /// A finite, non-negative double (-0 included) that is the whole value.
  std::optional<double> amount(Key k) const noexcept {
    if (!value_[k]) return std::nullopt;
    const std::string_view v = *value_[k];
    double out = 0.0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || end != v.data() + v.size()) return std::nullopt;
    if (!std::isfinite(out) || out < 0.0) return std::nullopt;
    return out;
  }

  std::optional<core::ResourceVector> resources() const noexcept {
    const auto cores = amount(kCores);
    const auto mem = amount(kMemory);
    const auto disk = amount(kDisk);
    const auto time = amount(kTime);
    if (!cores || !mem || !disk || !time) return std::nullopt;
    return core::ResourceVector{*cores, *mem, *disk, *time};
  }

  /// An absent attempt reads as 0; a present one must parse.
  std::optional<std::uint64_t> attempt() const noexcept {
    return value_[kAttempt] ? uint(kAttempt) : std::optional<std::uint64_t>(0);
  }

 private:
  std::array<std::optional<std::string_view>, kKeyCount> value_{};
};

/// `exceeded` may name only the four resource dimensions.
constexpr std::uint64_t kMaxExceededMask = 0xF;

}  // namespace

std::string_view to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::WorkerReady: return "ready";
    case MsgType::TaskDispatch: return "dispatch";
    case MsgType::TaskResult: return "result";
    case MsgType::Evict: return "evict";
    case MsgType::Shutdown: return "shutdown";
    case MsgType::Heartbeat: return "heartbeat";
  }
  return "?";
}

std::string_view to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::Success: return "success";
    case Outcome::ResourceExhausted: return "exhausted";
  }
  return "?";
}

std::string encode(const Message& msg) {
  // The fields go to a stack buffer first, so the line is allocated once at
  // its exact size. The escaped category (empty unless a dispatch) goes in
  // at `split`.
  FieldWriter w;
  std::string_view category;
  std::size_t split = 0;
  w.uint("worker", msg.worker_id);
  switch (msg.type) {
    case MsgType::WorkerReady:
    case MsgType::Heartbeat:
      w.resources(msg.resources);
      break;
    case MsgType::TaskDispatch:
      w.uint("task", msg.task_id);
      w.uint("attempt", msg.attempt);
      w.key("category");
      category = msg.category;
      split = w.view().size();
      w.resources(msg.resources);
      break;
    case MsgType::TaskResult:
      w.uint("task", msg.task_id);
      w.uint("attempt", msg.attempt);
      w.text("outcome", to_string(msg.outcome));
      w.real("runtime", msg.runtime_s);
      w.uint("exceeded", msg.exceeded_mask);
      w.resources(msg.resources);
      break;
    case MsgType::Evict:
      w.uint("task", msg.task_id);
      break;
    case MsgType::Shutdown:
      break;
  }

  const std::string_view verb = to_string(msg.type);
  const std::string_view fields = w.view();
  const std::size_t escaped = escaped_size(category);
  std::string line;
  line.reserve(verb.size() + kCrcTokenSize + fields.size() + escaped);
  open_line(line, verb);
  line.append(fields.substr(0, split));
  const std::size_t at = line.size();
  line.resize(at + escaped);
  escape_into(line.data() + at, category);
  line.append(fields.substr(split));
  seal_line(line, verb.size());
  return line;
}

std::optional<Message> decode(std::string_view line) {
  if (!checksum_ok(line)) return std::nullopt;
  const std::size_t sp = line.find(' ');
  const std::string_view verb = line.substr(0, sp);
  const std::string_view rest =
      sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);
  Fields f;
  if (!f.scan(rest)) return std::nullopt;

  Message m;
  if (verb == "ready") m.type = MsgType::WorkerReady;
  else if (verb == "dispatch") m.type = MsgType::TaskDispatch;
  else if (verb == "result") m.type = MsgType::TaskResult;
  else if (verb == "evict") m.type = MsgType::Evict;
  else if (verb == "shutdown") m.type = MsgType::Shutdown;
  else if (verb == "heartbeat") m.type = MsgType::Heartbeat;
  else return std::nullopt;

  const auto worker = f.uint(kWorker);
  if (!worker) return std::nullopt;
  m.worker_id = *worker;

  switch (m.type) {
    case MsgType::WorkerReady:
    case MsgType::Heartbeat: {
      const auto res = f.resources();
      if (!res) return std::nullopt;
      m.resources = *res;
      break;
    }
    case MsgType::TaskDispatch: {
      const auto task = f.uint(kTask);
      const auto attempt = f.attempt();
      const auto res = f.resources();
      const auto& cat = f.text(kCategory);
      if (!task || !attempt || !res || !cat) return std::nullopt;
      if (!unescape_into(*cat, m.category)) return std::nullopt;
      m.task_id = *task;
      m.attempt = *attempt;
      m.resources = *res;
      break;
    }
    case MsgType::TaskResult: {
      const auto task = f.uint(kTask);
      const auto attempt = f.attempt();
      const auto res = f.resources();
      const auto runtime = f.amount(kRuntime);
      const auto exceeded = f.uint(kExceeded);
      const auto& outcome = f.text(kOutcome);
      if (!task || !attempt || !res || !runtime || !exceeded ||
          *exceeded > kMaxExceededMask || !outcome) {
        return std::nullopt;
      }
      if (*outcome == "success") m.outcome = Outcome::Success;
      else if (*outcome == "exhausted") m.outcome = Outcome::ResourceExhausted;
      else return std::nullopt;
      m.task_id = *task;
      m.attempt = *attempt;
      m.resources = *res;
      m.runtime_s = *runtime;
      m.exceeded_mask = static_cast<unsigned>(*exceeded);
      break;
    }
    case MsgType::Evict: {
      const auto task = f.uint(kTask);
      if (!task) return std::nullopt;
      m.task_id = *task;
      break;
    }
    case MsgType::Shutdown:
      break;
  }
  return m;
}

}  // namespace tora::proto
