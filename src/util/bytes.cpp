#include "util/bytes.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace tora::util {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for CRC-32C: table 0 is the classic bytewise table;
/// table k maps a byte to its CRC contribution k bytes further down the
/// stream, so eight lookups advance the CRC by eight bytes.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// Little-endian load with explicit shifts: independent of host byte order.
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Little-endian store of the low `sizeof(T)` bytes of `v`.
template <typename T>
void store_le(char* at, T v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      at[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
  }
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42_raw(
    const unsigned char* p, std::size_t n, std::uint32_t c) noexcept {
  std::uint64_t c64 = c;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<std::uint32_t>(c64);
  for (; n > 0; ++p, --n) c = _mm_crc32_u8(c, *p);
  return c;
}
#endif

bool detect_sse42() noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::string_view data,
                              std::uint32_t seed) noexcept {
  static constexpr CrcTables kT = make_crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
        kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFFu] ^
        kT[2][(hi >> 8) & 0xFFu] ^ kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kT[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c_sse42(std::string_view data,
                           std::uint32_t seed) noexcept {
#if defined(__x86_64__)
  return crc32c_sse42_raw(reinterpret_cast<const unsigned char*>(data.data()),
                          data.size(), seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
#else
  return crc32c_portable(data, seed);
#endif
}

}  // namespace detail

bool crc32c_hardware() noexcept {
  static const bool kHardware = detect_sse42();
  return kHardware;
}

std::uint32_t crc32c(std::string_view data, std::uint32_t seed) noexcept {
  return crc32c_hardware() ? detail::crc32c_sse42(data, seed)
                           : detail::crc32c_portable(data, seed);
}

char* ByteWriter::extend(std::size_t n) {
  const std::size_t at = out_.size();
  out_.resize(at + n);
  return out_.data() + at;
}

void ByteWriter::u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

void ByteWriter::u32(std::uint32_t v) { store_le(extend(sizeof v), v); }

void ByteWriter::u64(std::uint64_t v) { store_le(extend(sizeof v), v); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  if (s.size() > 0xFFFFFFFFull) {
    throw std::length_error("ByteWriter: string too long");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

void ByteReader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw std::runtime_error("ByteReader: truncated input");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_++]))
         << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_++]))
         << (8 * i);
  }
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

}  // namespace tora::util
