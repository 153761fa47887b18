// Differential tests of the wire codec against the previous implementation:
// the std::map / ostringstream / snprintf / stod codec is kept below as
// `reference`, verbatim apart from its namespace and its seal (transport
// version 2's 8-digit CRC-32C token in place of the 16-digit FNV-1a one),
// and the fixed-field codec
// must write the same bytes and read the same messages from them. The only
// allowed differences are the strict field rules: integer fields parse
// exactly, resource values and runtimes are finite and non-negative,
// `exceeded` names only resource bits, and subnormal values (which stod
// refuses with ERANGE) decode.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "proto/checksum.hpp"
#include "proto/message.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::ResourceVector;
using tora::proto::Message;
using tora::proto::MsgType;
using tora::proto::Outcome;
using tora::util::Rng;

namespace reference {

using namespace tora;
using tora::proto::to_string;

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c == ' ' || c == '=' || c == '%' || c == '\n' || c == '\r') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

std::optional<std::string> unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%') {
      if (i + 2 >= s.size()) return std::nullopt;
      unsigned value = 0;
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      value = static_cast<unsigned>(hi * 16 + lo);
      out += static_cast<char>(value);
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

void put(std::ostringstream& oss, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  oss << ' ' << key << '=' << buf;
}

void put(std::ostringstream& oss, const char* key, std::uint64_t v) {
  oss << ' ' << key << '=' << v;
}

struct Fields {
  std::map<std::string, std::string, std::less<>> kv;

  std::optional<double> number(std::string_view key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    try {
      std::size_t pos = 0;
      const double v = std::stod(it->second, &pos);
      if (pos != it->second.size()) return std::nullopt;
      return v;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }

  // The cast is undefined for values at or above 2^64 and for NaN: callers
  // of this reference only hand it ids below 2^53 (see `ids_exact`).
  std::optional<std::uint64_t> uint(std::string_view key) const {
    const auto v = number(key);
    if (!v || *v < 0.0) return std::nullopt;
    return static_cast<std::uint64_t>(*v);
  }
};

std::optional<Fields> parse_fields(std::string_view rest) {
  Fields f;
  std::size_t pos = 0;
  while (pos < rest.size()) {
    while (pos < rest.size() && rest[pos] == ' ') ++pos;
    if (pos >= rest.size()) break;
    const std::size_t end = rest.find(' ', pos);
    const std::string_view token =
        rest.substr(pos, end == std::string_view::npos ? rest.size() - pos
                                                       : end - pos);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) return std::nullopt;
    f.kv.emplace(std::string(token.substr(0, eq)),
                 std::string(token.substr(eq + 1)));
    if (end == std::string_view::npos) break;
    pos = end + 1;
  }
  return f;
}

std::optional<core::ResourceVector> parse_resources(const Fields& f) {
  const auto cores = f.number("cores");
  const auto mem = f.number("memory");
  const auto disk = f.number("disk");
  const auto time = f.number("time");
  if (!cores || !mem || !disk || !time) return std::nullopt;
  return core::ResourceVector{*cores, *mem, *disk, *time};
}

void put_resources(std::ostringstream& oss, const core::ResourceVector& r) {
  put(oss, "cores", r.cores());
  put(oss, "memory", r.memory_mb());
  put(oss, "disk", r.disk_mb());
  put(oss, "time", r.time_s());
}

constexpr std::string_view kCrcToken = " crc=";
constexpr std::size_t kCrcHexDigits = 8;

bool crc_ok(std::string_view line) {
  const std::size_t pos = line.find(kCrcToken);
  if (pos == std::string_view::npos) return false;
  const std::size_t value_at = pos + kCrcToken.size();
  std::string_view hex = line.substr(value_at);
  const std::size_t sp = hex.find(' ');
  if (sp != std::string_view::npos) hex = hex.substr(0, sp);
  if (hex.size() != kCrcHexDigits) return false;
  std::uint32_t want = 0;
  const auto [end, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), want, 16);
  if (ec != std::errc{} || end != hex.data() + hex.size()) return false;
  std::string content;
  content.reserve(line.size());
  content.append(line.substr(0, pos));
  content.append(line.substr(value_at + hex.size()));
  return util::crc32c(content) == want;
}

std::string encode(const proto::Message& msg) {
  using proto::MsgType;
  std::ostringstream oss;  // the key=value fields, each preceded by a space
  put(oss, "worker", msg.worker_id);
  switch (msg.type) {
    case MsgType::WorkerReady:
    case MsgType::Heartbeat:
      put_resources(oss, msg.resources);
      break;
    case MsgType::TaskDispatch:
      put(oss, "task", msg.task_id);
      put(oss, "attempt", msg.attempt);
      oss << " category=" << escape(msg.category);
      put_resources(oss, msg.resources);
      break;
    case MsgType::TaskResult:
      put(oss, "task", msg.task_id);
      put(oss, "attempt", msg.attempt);
      oss << " outcome=" << to_string(msg.outcome);
      put(oss, "runtime", msg.runtime_s);
      put(oss, "exceeded", static_cast<std::uint64_t>(msg.exceeded_mask));
      put_resources(oss, msg.resources);
      break;
    case MsgType::Evict:
      put(oss, "task", msg.task_id);
      break;
    case MsgType::Shutdown:
      break;
  }
  const std::string fields = oss.str();
  std::string line(to_string(msg.type));
  char crc[kCrcHexDigits + 1];
  std::snprintf(crc, sizeof(crc), "%08x",
                static_cast<unsigned>(util::crc32c(line + fields)));
  line.append(kCrcToken);
  line.append(crc);
  line.append(fields);
  return line;
}

std::optional<proto::Message> decode(std::string_view line) {
  using proto::Message;
  using proto::MsgType;
  using proto::Outcome;
  if (!crc_ok(line)) return std::nullopt;
  const std::size_t sp = line.find(' ');
  const std::string_view verb = line.substr(0, sp);
  const std::string_view rest =
      sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);
  const auto fields = parse_fields(rest);
  if (!fields) return std::nullopt;

  Message m;
  if (verb == "ready") m.type = MsgType::WorkerReady;
  else if (verb == "dispatch") m.type = MsgType::TaskDispatch;
  else if (verb == "result") m.type = MsgType::TaskResult;
  else if (verb == "evict") m.type = MsgType::Evict;
  else if (verb == "shutdown") m.type = MsgType::Shutdown;
  else if (verb == "heartbeat") m.type = MsgType::Heartbeat;
  else return std::nullopt;

  const auto worker = fields->uint("worker");
  if (!worker) return std::nullopt;
  m.worker_id = *worker;

  switch (m.type) {
    case MsgType::WorkerReady:
    case MsgType::Heartbeat: {
      const auto res = parse_resources(*fields);
      if (!res) return std::nullopt;
      m.resources = *res;
      break;
    }
    case MsgType::TaskDispatch: {
      const auto task = fields->uint("task");
      const auto res = parse_resources(*fields);
      const auto cat = fields->kv.find("category");
      if (!task || !res || cat == fields->kv.end()) return std::nullopt;
      const auto unescaped = unescape(cat->second);
      if (!unescaped) return std::nullopt;
      m.task_id = *task;
      m.attempt = fields->uint("attempt").value_or(0);
      m.resources = *res;
      m.category = *unescaped;
      break;
    }
    case MsgType::TaskResult: {
      const auto task = fields->uint("task");
      const auto res = parse_resources(*fields);
      const auto runtime = fields->number("runtime");
      const auto exceeded = fields->uint("exceeded");
      const auto outcome = fields->kv.find("outcome");
      if (!task || !res || !runtime || !exceeded ||
          outcome == fields->kv.end()) {
        return std::nullopt;
      }
      if (outcome->second == "success") m.outcome = Outcome::Success;
      else if (outcome->second == "exhausted") {
        m.outcome = Outcome::ResourceExhausted;
      } else {
        return std::nullopt;
      }
      m.task_id = *task;
      m.attempt = fields->uint("attempt").value_or(0);
      m.resources = *res;
      m.runtime_s = *runtime;
      m.exceeded_mask = static_cast<unsigned>(*exceeded);
      break;
    }
    case MsgType::Evict: {
      const auto task = fields->uint("task");
      if (!task) return std::nullopt;
      m.task_id = *task;
      break;
    }
    case MsgType::Shutdown:
      break;
  }
  return m;
}

}  // namespace reference

constexpr std::uint64_t kExactIds = std::uint64_t{1} << 53;

std::uint64_t random_id(Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return rng.uniform_int(0, 100);
    case 1: return rng.uniform_int(0, std::uint64_t{1} << 32);
    case 2: return rng.uniform_int(0, kExactIds - 1);
    case 3: return kExactIds + rng.uniform_int(0, 1000);
    case 4: return std::numeric_limits<std::uint64_t>::max();
    default: return rng();
  }
}

double random_double(Rng& rng) {
  const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
  switch (rng.uniform_int(0, 11)) {
    case 0: return static_cast<double>(rng.uniform_int(0, 1 << 20));
    case 1: return rng.uniform(0.0, 1000.0);
    case 2: return rng.uniform01() * 1e-3;
    case 3: return sign * 1e300 * (1.0 + rng.uniform01());
    case 4: return sign * 1e-300 * (1.0 + rng.uniform01());
    case 5: return -0.0;
    case 6:  // subnormal: zero exponent, nonzero mantissa
      return sign * std::bit_cast<double>((rng() >> 12) | 1u);
    case 7: return sign * std::numeric_limits<double>::quiet_NaN();
    case 8: return sign * std::numeric_limits<double>::infinity();
    case 9: return -rng.uniform(0.0, 1000.0);
    case 10: return std::bit_cast<double>(rng());  // any bit pattern
    default: return 0.0;
  }
}

std::string random_category(Rng& rng) {
  static constexpr std::string_view kPalette =
      "abcxyzAZ09_-./ =%\n\r\t";
  std::string s(rng.uniform_int(0, 20), '\0');
  for (char& c : s) {
    c = rng.bernoulli(0.2)
            ? static_cast<char>(rng.uniform_int(0, 255))
            : kPalette[rng.uniform_int(0, kPalette.size() - 1)];
  }
  return s;
}

Message random_message(Rng& rng) {
  Message m;
  m.type = static_cast<MsgType>(rng.uniform_int(0, 5));
  m.worker_id = random_id(rng);
  m.task_id = random_id(rng);
  m.attempt = random_id(rng);
  m.category = random_category(rng);
  m.resources = ResourceVector{random_double(rng), random_double(rng),
                               random_double(rng), random_double(rng)};
  m.runtime_s = random_double(rng);
  m.outcome = rng.bernoulli(0.5) ? Outcome::Success
                                 : Outcome::ResourceExhausted;
  m.exceeded_mask = rng.bernoulli(0.9)
                        ? static_cast<unsigned>(rng.uniform_int(0, 15))
                        : static_cast<unsigned>(rng.uniform_int(16, ~0u));
  return m;
}

/// The fields of `m` that its type puts on the wire; decoding gives the
/// defaults for the rest.
Message carried(const Message& m) {
  Message c;
  c.type = m.type;
  c.worker_id = m.worker_id;
  switch (m.type) {
    case MsgType::WorkerReady:
    case MsgType::Heartbeat:
      c.resources = m.resources;
      break;
    case MsgType::TaskDispatch:
      c.task_id = m.task_id;
      c.attempt = m.attempt;
      c.category = m.category;
      c.resources = m.resources;
      break;
    case MsgType::TaskResult:
      c.task_id = m.task_id;
      c.attempt = m.attempt;
      c.outcome = m.outcome;
      c.runtime_s = m.runtime_s;
      c.exceeded_mask = m.exceeded_mask;
      c.resources = m.resources;
      break;
    case MsgType::Evict:
      c.task_id = m.task_id;
      break;
    case MsgType::Shutdown:
      break;
  }
  return c;
}

std::vector<double> doubles_of(const Message& c) {
  std::vector<double> v;
  if (c.type == MsgType::WorkerReady || c.type == MsgType::Heartbeat ||
      c.type == MsgType::TaskDispatch || c.type == MsgType::TaskResult) {
    v = {c.resources.cores(), c.resources.memory_mb(), c.resources.disk_mb(),
         c.resources.time_s()};
  }
  if (c.type == MsgType::TaskResult) v.push_back(c.runtime_s);
  return v;
}

/// What the strict rules accept: finite, non-negative values and an
/// exceeded mask of resource bits only.
bool strict_ok(const Message& c) {
  for (double d : doubles_of(c)) {
    if (!std::isfinite(d) || d < 0.0) return false;
  }
  return c.type != MsgType::TaskResult || c.exceeded_mask <= 15;
}

bool has_subnormal(const Message& c) {
  for (double d : doubles_of(c)) {
    if (std::fpclassify(d) == FP_SUBNORMAL) return true;
  }
  return false;
}

/// Ids the reference reads exactly (stod then a cast): below 2^53.
bool ids_exact(const Message& c) {
  return c.worker_id < kExactIds && c.task_id < kExactIds &&
         c.attempt < kExactIds;
}

/// Equality with every double compared bit for bit (so -0 != +0).
bool same_bits(const Message& a, const Message& b) {
  if (!(a.type == b.type && a.worker_id == b.worker_id &&
        a.task_id == b.task_id && a.attempt == b.attempt &&
        a.category == b.category && a.outcome == b.outcome &&
        a.exceeded_mask == b.exceeded_mask &&
        std::bit_cast<std::uint64_t>(a.runtime_s) ==
            std::bit_cast<std::uint64_t>(b.runtime_s))) {
    return false;
  }
  for (const auto kind : tora::core::kAllResources) {
    if (std::bit_cast<std::uint64_t>(a.resources[kind]) !=
        std::bit_cast<std::uint64_t>(b.resources[kind])) {
      return false;
    }
  }
  return true;
}

TEST(CodecDifferential, RandomMessagesMatchTheReference) {
  Rng rng(0xC0DEC0DEull);
  std::size_t strict_rejects = 0, subnormal_lines = 0, large_ids = 0,
              reference_compared = 0, escaped = 0;
  for (int iter = 0; iter < 120000; ++iter) {
    const Message m = random_message(rng);
    const std::string line = tora::proto::encode(m);
    ASSERT_EQ(line, reference::encode(m));
    const Message want = carried(m);
    const auto got = tora::proto::decode(line);
    if (!strict_ok(want)) {
      EXPECT_FALSE(got) << line;
      ++strict_rejects;
    } else {
      ASSERT_TRUE(got) << line;
      EXPECT_TRUE(same_bits(*got, want)) << line;
    }
    if (has_subnormal(want)) ++subnormal_lines;
    if (line.find('%') != std::string::npos) ++escaped;
    if (!ids_exact(want)) {
      ++large_ids;
      continue;
    }
    const auto ref = reference::decode(line);
    if (!ref) {
      // stod's ERANGE on a subnormal is the only way the reference fails
      // on its own encoder's output.
      EXPECT_TRUE(has_subnormal(want)) << line;
      continue;
    }
    if (strict_ok(want)) {
      ++reference_compared;
      EXPECT_TRUE(same_bits(*got, *ref)) << line;
    }
  }
  // Every class of input occurred often enough to mean something.
  EXPECT_GT(strict_rejects, 10000u);
  EXPECT_GT(subnormal_lines, 1000u);
  EXPECT_GT(large_ids, 10000u);
  EXPECT_GT(reference_compared, 10000u);
  EXPECT_GT(escaped, 10000u);
}

/// A random message both codecs read the same way: plain finite values,
/// ids below 2^53, an in-range exceeded mask.
Message plain_message(Rng& rng, MsgType type) {
  Message m;
  m.type = type;
  m.worker_id = rng.uniform_int(0, 1000);
  m.task_id = rng.uniform_int(0, kExactIds - 1);
  m.attempt = rng.uniform_int(0, 50);
  m.category = random_category(rng);
  m.resources = ResourceVector{rng.uniform(0.0, 64.0),
                               static_cast<double>(rng.uniform_int(0, 1 << 16)),
                               rng.uniform(0.0, 1e6), rng.uniform01()};
  m.runtime_s = rng.bernoulli(0.1) ? -0.0 : rng.uniform(0.0, 1e4);
  m.outcome = rng.bernoulli(0.5) ? Outcome::Success
                                 : Outcome::ResourceExhausted;
  m.exceeded_mask = static_cast<unsigned>(rng.uniform_int(0, 15));
  return m;
}

std::vector<std::string> field_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t start = line.find(' ');
  while (start != std::string::npos) {
    const std::size_t end = line.find(' ', start + 1);
    tokens.push_back(line.substr(start + 1, end == std::string::npos
                                                ? std::string::npos
                                                : end - start - 1));
    start = end;
  }
  tokens.erase(tokens.begin());  // the crc token
  return tokens;
}

// Re-sealed lines with duplicated, unknown, malformed, missing and shuffled
// tokens: the token rules (first occurrence wins, unknown keys are ignored,
// a token without `=` or with an empty key rejects) match the reference.
TEST(CodecDifferential, TokenRulesMatchTheReference) {
  Rng rng(0x70CE45ull);
  static const std::vector<std::string> kOddTokens = {
      "zz=1", "crc=x", "crc=0123456789abcdef", "crc=01234567", "worker2=3",
      "x=",   "novalue", "=5", "", "category=%4", "outcome=maybe"};
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 30000; ++iter) {
    const auto type = static_cast<MsgType>(rng.uniform_int(0, 5));
    const Message a = plain_message(rng, type);
    const Message b = plain_message(rng, type);
    std::vector<std::string> tokens = field_tokens(tora::proto::encode(a));
    const std::vector<std::string> other =
        field_tokens(tora::proto::encode(b));
    const std::uint64_t edits = rng.uniform_int(1, 3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const auto at = [&] {
        return tokens.begin() +
               static_cast<std::ptrdiff_t>(rng.uniform_int(0, tokens.size()));
      };
      switch (rng.uniform_int(0, 4)) {
        case 0:  // the same key again with another value, before or after
          tokens.insert(at(), other[rng.uniform_int(0, other.size() - 1)]);
          break;
        case 1:
          tokens.insert(at(),
                        kOddTokens[rng.uniform_int(0, kOddTokens.size() - 1)]);
          break;
        case 2:
          if (!tokens.empty()) {
            tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(
                                              rng.uniform_int(
                                                  0, tokens.size() - 1)));
          }
          break;
        case 3:
          std::shuffle(tokens.begin(), tokens.end(), rng);
          break;
        default:
          break;
      }
    }
    std::string fields;
    for (const std::string& t : tokens) fields += " " + t;
    const std::string_view verb = tora::proto::to_string(type);
    std::string line;
    tora::proto::open_line(line, verb);
    line += fields;
    tora::proto::seal_line(line, verb.size());

    const auto ref = reference::decode(line);
    const auto got = tora::proto::decode(line);
    ASSERT_EQ(ref.has_value(), got.has_value()) << line;
    if (got) {
      EXPECT_TRUE(same_bits(*got, *ref)) << line;
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 3000u);
  EXPECT_GT(rejected, 3000u);
}

}  // namespace
