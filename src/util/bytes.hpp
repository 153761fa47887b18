#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tora::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// continuing from `seed` (pass the previous result to checksum a stream in
/// pieces). Computed eight bytes at a time (slicing-by-8); the values are
/// those of the bytewise definition on every host. Used by the recovery
/// journal to detect torn or corrupted records; the protocol's per-line FNV
/// hash stays separate (different failure model: wire corruption vs.
/// partial disk writes).
std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0) noexcept;

/// Little-endian binary encoder for the recovery snapshot/journal formats.
/// Explicit byte order keeps the files portable across hosts (a manager may
/// recover on a different node than the one that crashed).
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Doubles travel as their IEEE-754 bit pattern; the value round-trips
  /// exactly (bit-for-bit recovery depends on it).
  void f64(double v);
  /// Length-prefixed (u32) byte string.
  void str(std::string_view s);

  const std::string& bytes() const noexcept { return out_; }
  std::string take() noexcept { return std::move(out_); }
  std::size_t size() const noexcept { return out_.size(); }

 private:
  std::string out_;
};

/// Little-endian decoder matching ByteWriter. Every read throws
/// std::runtime_error on underflow, so a truncated snapshot surfaces as a
/// recoverable error instead of undefined behavior.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }
  std::size_t position() const noexcept { return pos_; }

 private:
  void need(std::size_t n) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace tora::util
