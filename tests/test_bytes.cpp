// Differential tests of util/bytes against reference implementations: a
// one-table-lookup-per-byte CRC-32C checks both of crc32c's paths (the
// SSE4.2 instruction and the slicing-by-8 table), and a push_back-per-byte
// writer checks ByteWriter's in-place stores.

#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/rng.hpp"

namespace {

using tora::util::ByteReader;
using tora::util::ByteWriter;
using tora::util::crc32c;
namespace detail = tora::util::detail;
using tora::util::Rng;

namespace reference {

std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0) {
  static const auto kTable = [] {
    std::vector<std::uint32_t> table(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    c = kTable[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

}  // namespace reference

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
  return s;
}

TEST(Crc32, CheckValue) {
  // The CRC-32C check value (RFC 3720, appendix B.4).
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  EXPECT_EQ(crc32c("", 0xDEADBEEFu), 0xDEADBEEFu);
  EXPECT_EQ(detail::crc32c_portable("123456789"), 0xE3069283u);
  if (tora::util::crc32c_hardware()) {
    EXPECT_EQ(detail::crc32c_sse42("123456789"), 0xE3069283u);
    EXPECT_EQ(detail::crc32c_sse42("", 0xDEADBEEFu), 0xDEADBEEFu);
  }
}

TEST(Crc32, SlicingMatchesBytewiseReference) {
  Rng rng(0xC12C32ull);
  // A buffer with slack in front, so lengths start at every offset mod 8.
  const std::string buf = random_bytes(rng, 400);
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view data = std::string_view(buf).substr(offset, len);
      const auto seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(detail::crc32c_portable(data, seed),
                reference::crc32c(data, seed))
          << "len " << len << " offset " << offset;
      ASSERT_EQ(crc32c(data, seed), reference::crc32c(data, seed))
          << "len " << len << " offset " << offset;
      ASSERT_EQ(crc32c(data), reference::crc32c(data));
    }
  }
}

TEST(Crc32, HardwareMatchesPortable) {
  if (!tora::util::crc32c_hardware()) {
    GTEST_SKIP() << "this CPU does not report SSE4.2";
  }
  Rng rng(0x55E42ull);
  const std::string buf = random_bytes(rng, 400);
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view data = std::string_view(buf).substr(offset, len);
      const auto seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(detail::crc32c_sse42(data, seed),
                detail::crc32c_portable(data, seed))
          << "len " << len << " offset " << offset;
    }
  }
}

// No option, flag or variable picks the path: the CPU does.
TEST(Crc32, HardwarePathFollowsTheCpu) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(tora::util::crc32c_hardware(),
            __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(tora::util::crc32c_hardware());
#endif
}

TEST(Crc32, ContinuesAcrossPieces) {
  Rng rng(0x5EEDull);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string s = random_bytes(rng, rng.uniform_int(0, 200));
    const std::size_t cut = rng.uniform_int(0, s.size());
    const std::string_view v(s);
    EXPECT_EQ(crc32c(v.substr(cut), crc32c(v.substr(0, cut))), crc32c(v));
    EXPECT_EQ(detail::crc32c_portable(
                  v.substr(cut), detail::crc32c_portable(v.substr(0, cut))),
              crc32c(v));
  }
}

TEST(ByteWriter, MatchesByteLoopReferenceAndReadsBack) {
  using Value = std::variant<std::uint8_t, std::uint32_t, std::uint64_t,
                             double, std::string>;
  Rng rng(0xB17E5ull);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<Value> values;
    ByteWriter w;
    std::string want;
    const std::uint64_t ops = rng.uniform_int(0, 40);
    for (std::uint64_t op = 0; op < ops; ++op) {
      switch (rng.uniform_int(0, 4)) {
        case 0: {
          const auto v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          w.u8(v);
          reference::put_le(want, v, 1);
          values.emplace_back(v);
          break;
        }
        case 1: {
          const auto v = static_cast<std::uint32_t>(rng());
          w.u32(v);
          reference::put_le(want, v, 4);
          values.emplace_back(v);
          break;
        }
        case 2: {
          const std::uint64_t v = rng();
          w.u64(v);
          reference::put_le(want, v, 8);
          values.emplace_back(v);
          break;
        }
        case 3: {
          const double v = std::bit_cast<double>(rng());  // NaNs included
          w.f64(v);
          reference::put_le(want, std::bit_cast<std::uint64_t>(v), 8);
          values.emplace_back(v);
          break;
        }
        default: {
          std::string v = random_bytes(rng, rng.uniform_int(0, 20));
          w.str(v);
          reference::put_le(want, v.size(), 4);
          want += v;
          values.emplace_back(std::move(v));
          break;
        }
      }
    }
    ASSERT_EQ(w.bytes(), want);

    ByteReader r(w.bytes());
    for (const Value& v : values) {
      switch (v.index()) {
        case 0: EXPECT_EQ(r.u8(), std::get<0>(v)); break;
        case 1: EXPECT_EQ(r.u32(), std::get<1>(v)); break;
        case 2: EXPECT_EQ(r.u64(), std::get<2>(v)); break;
        case 3:
          EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
                    std::bit_cast<std::uint64_t>(std::get<3>(v)));
          break;
        default: EXPECT_EQ(r.str(), std::get<4>(v)); break;
      }
    }
    EXPECT_TRUE(r.done());
  }
}

}  // namespace
