#include "proto/checksum.hpp"

#include <cstdint>

#include "util/bytes.hpp"

namespace tora::proto {

namespace {

/// The CRC-32C of `line` with the `kCrcTokenSize` bytes at `token_at`
/// spliced out, in two segments instead of a joined copy.
std::uint32_t spliced_crc(std::string_view line,
                          std::size_t token_at) noexcept {
  return util::crc32c(line.substr(token_at + kCrcTokenSize),
                      util::crc32c(line.substr(0, token_at)));
}

/// The value of a lowercase hex digit, or -1.
int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

void open_line(std::string& line, std::string_view verb) {
  line.append(verb);
  line.append(kCrcToken);
  line.append(kCrcHexDigits, '0');
}

void seal_line(std::string& line, std::size_t verb_size) noexcept {
  static constexpr char kHex[] = "0123456789abcdef";
  std::uint32_t crc = spliced_crc(line, verb_size);
  char* digits = line.data() + verb_size + kCrcToken.size();
  for (std::size_t i = kCrcHexDigits; i-- > 0; crc >>= 4) {
    digits[i] = kHex[crc & 0xFu];
  }
}

bool checksum_ok(std::string_view line) noexcept {
  const std::size_t pos = line.find(kCrcToken);
  if (pos == std::string_view::npos) return false;
  const std::string_view tail = line.substr(pos + kCrcToken.size());
  if (tail.size() < kCrcHexDigits ||
      (tail.size() > kCrcHexDigits && tail[kCrcHexDigits] != ' ')) {
    return false;
  }
  std::uint32_t want = 0;
  for (std::size_t i = 0; i < kCrcHexDigits; ++i) {
    const int digit = hex_value(tail[i]);
    if (digit < 0) return false;
    want = want << 4 | static_cast<std::uint32_t>(digit);
  }
  return spliced_crc(line, pos) == want;
}

}  // namespace tora::proto
