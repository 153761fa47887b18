// Writers of the formats tora used before CRC-32C seals, written from their
// definitions and independently of src/: transport version 1 (every wire
// line sealed with a 16-digit FNV-1a token), journal frames sealed with the
// IEEE 802.3 CRC-32, and snapshot container version 2 sealed with the same
// CRC-32. The format-boundary tests build older stores and peers with them
// and check that this build refuses each by name instead of misreading it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace tora::oracles::v1 {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bytewise.
inline std::uint32_t crc32(std::string_view data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

/// 64-bit FNV-1a.
inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

/// `verb crc=<16 hex> fields`: the token is the FNV-1a of `verb + fields`
/// (the line with the token spliced out). `fields` starts with a space.
inline std::string sealed_line(std::string_view verb, std::string_view fields) {
  std::string content(verb);
  content += fields;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a64(content)));
  std::string line(verb);
  line += " crc=";
  line += hex;
  line += fields;
  return line;
}

/// `[u32 len][u8 type][payload][u32 crc32(type + payload)]`.
inline std::string journal_frame(std::uint8_t type, std::string_view payload) {
  std::string sealed(1, static_cast<char>(type));
  sealed += payload;
  std::string out;
  put_le(out, payload.size(), 4);
  out += sealed;
  put_le(out, crc32(sealed), 4);
  return out;
}

/// The epoch record every journal opens with: u64 epoch, u64 tick.
inline std::string epoch_frame(std::uint64_t epoch, std::uint64_t tick) {
  std::string payload;
  put_le(payload, epoch, 8);
  put_le(payload, tick, 8);
  return journal_frame(0x01, payload);
}

/// `"TORASNAP" [u32 version] body [u32 crc32(everything before)]`.
inline std::string snapshot_container(std::string_view body,
                                      std::uint32_t version = 2) {
  std::string out = "TORASNAP";
  put_le(out, version, 4);
  out += body;
  put_le(out, crc32(out), 4);
  return out;
}

}  // namespace tora::oracles::v1
