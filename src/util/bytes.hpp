#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tora::util {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) over `data`,
/// continuing from `seed`: `crc32c(b, crc32c(a)) == crc32c(a + b)`, so a
/// stream checksums in pieces without being joined first. The one integrity
/// seal of tora's bytes: wire lines (proto/checksum.hpp), journal frames,
/// snapshot containers and replication frames. Uses the SSE4.2 `crc32`
/// instruction when the CPU reports it (checked once per process) and a
/// slicing-by-8 table everywhere else; both give the bytewise definition's
/// value on every host.
std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0) noexcept;

/// True when crc32c() runs on the SSE4.2 instruction: whenever the CPU
/// reports SSE4.2, never otherwise. Nothing else chooses the path.
bool crc32c_hardware() noexcept;

namespace detail {
/// The two paths crc32c() selects between, for differential tests. The
/// hardware one may only be called when crc32c_hardware() is true.
std::uint32_t crc32c_portable(std::string_view data,
                              std::uint32_t seed = 0) noexcept;
std::uint32_t crc32c_sse42(std::string_view data,
                           std::uint32_t seed = 0) noexcept;
}  // namespace detail

/// Little-endian binary encoder for the recovery snapshot/journal formats.
/// Explicit byte order keeps the files portable across hosts (a manager may
/// recover on a different node than the one that crashed).
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  /// Fixed-width values are stored in place at the end of the buffer.
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
  /// Grows the buffer by `n` bytes and returns where they start.
  char* extend(std::size_t n);

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
