#include "proto/net/session.hpp"

#include <charconv>
#include <span>
#include <stdexcept>

#include "proto/checksum.hpp"
#include "util/rng.hpp"

namespace tora::proto::net {

namespace {

constexpr std::string_view kControlPrefix = "tora!";
constexpr std::string_view kHelloVerb = "tora!hello";
constexpr std::string_view kWelcomeVerb = "tora!welcome";
constexpr std::string_view kAckVerb = "tora!ack";

/// Versions travel as decimal u64 text but are u32 values: a larger `v` is
/// malformed, not a version that wraps around to a valid one.
constexpr std::uint64_t kMaxVersion = 0xFFFFFFFFu;

/// The token length transport version 1 sealed lines with (FNV-1a).
constexpr std::size_t kV1CrcHexDigits = 16;

// Heartbeat application frames start with the heartbeat verb; the session
// queue only needs to classify them, never parse them.
constexpr std::string_view kHeartbeatVerb = "heartbeat ";

void put_u64(std::string& out, const char* key, std::uint64_t v) {
  out.push_back(' ');
  out.append(key);
  out.push_back('=');
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out.append(buf, end);
}

/// Minimal strict field scanner for control frames: every token after the
/// verb must be `key=<decimal u64>` (the crc token is skipped — checksum_ok
/// already validated it). Returns false on any other shape.
struct ControlFields {
  struct Slot {
    std::string_view key;
    std::uint64_t* dst;
    bool seen = false;
  };

  static bool parse(std::string_view line, std::string_view verb,
                    std::span<Slot> slots) {
    if (!checksum_ok(line)) return false;
    if (line.substr(0, verb.size()) != verb) return false;
    std::string_view rest = line.substr(verb.size());
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
      const std::string_view val = token.substr(eq + 1);
      if (key == "crc") continue;
      bool matched = false;
      for (Slot& s : slots) {
        if (s.key != key) continue;
        if (s.seen) return false;  // duplicate field
        std::uint64_t v = 0;
        const auto [vend, ec] =
            std::from_chars(val.data(), val.data() + val.size(), v);
        if (ec != std::errc{} || vend != val.data() + val.size()) return false;
        *s.dst = v;
        s.seen = true;
        matched = true;
        break;
      }
      if (!matched) return false;  // unknown field: reject, don't ignore
    }
    for (const Slot& s : slots) {
      if (!s.seen) return false;
    }
    return true;
  }
};

}  // namespace

void SessionConfig::validate() const {
  if (max_frame_bytes == 0) {
    throw std::invalid_argument("SessionConfig: max_frame_bytes must be > 0");
  }
  if (max_hello_bytes == 0 || max_hello_bytes > max_frame_bytes) {
    throw std::invalid_argument(
        "SessionConfig: max_hello_bytes must be in (0, max_frame_bytes]");
  }
  if (queue_low > queue_high || queue_high > queue_cap) {
    throw std::invalid_argument(
        "SessionConfig: need queue_low <= queue_high <= queue_cap");
  }
  if (queue_cap == 0) {
    throw std::invalid_argument("SessionConfig: queue_cap must be > 0");
  }
  if (keepalive_window < 0.0) {
    throw std::invalid_argument(
        "SessionConfig: keepalive_window must be >= 0");
  }
}

bool is_control_frame(std::string_view frame) noexcept {
  return frame.substr(0, kControlPrefix.size()) == kControlPrefix;
}

std::string encode_hello(const HelloFrame& h) {
  std::string line;
  open_line(line, kHelloVerb);
  put_u64(line, "v", h.version);
  put_u64(line, "worker", h.worker_id);
  put_u64(line, "token", h.token);
  put_u64(line, "rx", h.rx_seq);
  seal_line(line, kHelloVerb.size());
  return line;
}

std::string encode_welcome(const WelcomeFrame& w) {
  std::string line;
  open_line(line, kWelcomeVerb);
  put_u64(line, "v", w.version);
  put_u64(line, "token", w.token);
  put_u64(line, "rx", w.rx_seq);
  put_u64(line, "resume", w.resumed ? 1 : 0);
  seal_line(line, kWelcomeVerb.size());
  return line;
}

std::string encode_ack(const AckFrame& a) {
  std::string line;
  open_line(line, kAckVerb);
  put_u64(line, "rx", a.rx_seq);
  seal_line(line, kAckVerb.size());
  return line;
}

std::optional<HelloFrame> decode_hello(std::string_view frame) {
  std::uint64_t v = 0, worker = 0, token = 0, rx = 0;
  ControlFields::Slot slots[] = {
      {"v", &v}, {"worker", &worker}, {"token", &token}, {"rx", &rx}};
  if (!ControlFields::parse(frame, kHelloVerb, slots)) return std::nullopt;
  if (v > kMaxVersion) return std::nullopt;
  HelloFrame h;
  h.version = static_cast<std::uint32_t>(v);
  h.worker_id = worker;
  h.token = token;
  h.rx_seq = rx;
  return h;
}

std::optional<WelcomeFrame> decode_welcome(std::string_view frame) {
  std::uint64_t v = 0, token = 0, rx = 0, resume = 0;
  ControlFields::Slot slots[] = {
      {"v", &v}, {"token", &token}, {"rx", &rx}, {"resume", &resume}};
  if (!ControlFields::parse(frame, kWelcomeVerb, slots)) return std::nullopt;
  if (v > kMaxVersion || resume > 1) return std::nullopt;
  WelcomeFrame w;
  w.version = static_cast<std::uint32_t>(v);
  w.token = token;
  w.rx_seq = rx;
  w.resumed = resume == 1;
  return w;
}

std::optional<AckFrame> decode_ack(std::string_view frame) {
  std::uint64_t rx = 0;
  ControlFields::Slot slots[] = {{"rx", &rx}};
  if (!ControlFields::parse(frame, kAckVerb, slots)) return std::nullopt;
  return AckFrame{rx};
}

bool sealed_by_v1(std::string_view frame) noexcept {
  if (!is_control_frame(frame)) return false;
  const std::size_t pos = frame.find(kCrcToken);
  if (pos == std::string_view::npos) return false;
  const std::string_view tail = frame.substr(pos + kCrcToken.size());
  if (tail.size() < kV1CrcHexDigits ||
      (tail.size() > kV1CrcHexDigits && tail[kV1CrcHexDigits] != ' ')) {
    return false;
  }
  for (std::size_t i = 0; i < kV1CrcHexDigits; ++i) {
    const char c = tail[i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

// ------------------------------------------------------------- send queue

void SessionSendQueue::push(std::string frame) {
  const bool heartbeat = frame.compare(0, kHeartbeatVerb.size(),
                                       kHeartbeatVerb) == 0;
  if (heartbeat) {
    // A newer beacon supersedes an older one that hasn't hit the wire yet;
    // replacing in place keeps the sequence number and ordering intact.
    for (std::size_t i = sent_; i < frames_.size(); ++i) {
      if (frames_[i].heartbeat) {
        frames_[i].frame = std::move(frame);
        if (counters_) ++counters_->heartbeats_coalesced;
        return;
      }
    }
    if (frames_.size() >= cfg_->queue_cap) {
      // Hard cap: heartbeats are the only sheddable traffic.
      if (counters_) {
        ++counters_->heartbeats_shed;
        ++counters_->send_queue_overflows;
      }
      return;
    }
  } else if (frames_.size() >= cfg_->queue_cap) {
    // Application payloads are never shed. The app-level in-flight window
    // bounds dispatches/results well below any sane cap, so reaching here
    // means the configuration is broken — fail loudly, don't drop.
    if (counters_) ++counters_->send_queue_overflows;
    throw std::runtime_error(
        "SessionSendQueue: application frame overflowed the hard cap");
  }
  frames_.push_back(Entry{std::move(frame), heartbeat});
  update_backpressure();
}

std::optional<std::string_view> SessionSendQueue::next_to_send() {
  if (sent_ >= frames_.size()) return std::nullopt;
  return std::string_view(frames_[sent_++].frame);
}

void SessionSendQueue::acked(std::uint64_t rx_seq) noexcept {
  while (base_seq_ < rx_seq && !frames_.empty() && sent_ > 0) {
    frames_.pop_front();
    ++base_seq_;
    --sent_;
  }
  update_backpressure();
}

void SessionSendQueue::rewind(std::uint64_t rx_seq) noexcept {
  // First drop everything the peer confirms it already has...
  acked(rx_seq);
  // ...then mark the rest unsent so it replays on the new connection.
  if (counters_) counters_->frames_replayed += sent_;
  sent_ = 0;
}

void SessionSendQueue::reset_fresh() noexcept {
  base_seq_ = 0;
  sent_ = 0;
  update_backpressure();
}

void SessionSendQueue::update_backpressure() noexcept {
  if (!backpressured_ && frames_.size() >= cfg_->queue_high) {
    backpressured_ = true;
    if (counters_) ++counters_->backpressure_events;
  } else if (backpressured_ && frames_.size() <= cfg_->queue_low) {
    backpressured_ = false;
  }
}

// ---------------------------------------------------------------- backoff

ReconnectBackoff::ReconnectBackoff(double base, double cap, double jitter,
                                   std::uint64_t seed) noexcept
    : base_(base), cap_(cap), jitter_(jitter), state_(seed) {}

double ReconnectBackoff::delay(std::size_t attempt) noexcept {
  if (attempt == 0) attempt = 1;
  double d = base_;
  for (std::size_t i = 1; i < attempt && d < cap_; ++i) d *= 2.0;
  if (d > cap_) d = cap_;
  // Jitter factor in [1 - jitter_, 1 + jitter_].
  const double unit =
      static_cast<double>(util::splitmix64(state_) >> 11) * 0x1.0p-53;
  return d * (1.0 + jitter_ * (2.0 * unit - 1.0));
}

}  // namespace tora::proto::net
