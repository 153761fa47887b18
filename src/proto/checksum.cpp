#include "proto/checksum.hpp"

#include <charconv>
#include <cstdint>

#include "util/rng.hpp"

namespace tora::proto {

namespace {

/// The hash of `line` with the `kCrcTokenSize` bytes at `token_at` spliced
/// out, in two segments instead of a joined copy.
std::uint64_t spliced_hash(std::string_view line,
                           std::size_t token_at) noexcept {
  return util::hash64(line.substr(token_at + kCrcTokenSize),
                      util::hash64(line.substr(0, token_at)));
}

}  // namespace

void open_line(std::string& line, std::string_view verb) {
  line.append(verb);
  line.append(kCrcToken);
  line.append(kCrcHexDigits, '0');
}

void seal_line(std::string& line, std::size_t verb_size) noexcept {
  static constexpr char kHex[] = "0123456789abcdef";
  std::uint64_t h = spliced_hash(line, verb_size);
  char* digits = line.data() + verb_size + kCrcToken.size();
  for (std::size_t i = kCrcHexDigits; i-- > 0; h >>= 4) {
    digits[i] = kHex[h & 0xFu];
  }
}

bool checksum_ok(std::string_view line) noexcept {
  const std::size_t pos = line.find(kCrcToken);
  if (pos == std::string_view::npos) return false;
  const std::string_view tail = line.substr(pos + kCrcToken.size());
  const std::string_view hex = tail.substr(0, tail.find(' '));
  if (hex.size() != kCrcHexDigits) return false;
  std::uint64_t want = 0;
  const auto [end, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), want, 16);
  if (ec != std::errc{} || end != hex.data() + hex.size()) return false;
  return spliced_hash(line, pos) == want;
}

}  // namespace tora::proto
