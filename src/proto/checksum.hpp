#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace tora::proto {

/// The line checksum shared by the application codec (message.cpp) and the
/// session layer's control frames (net/session.cpp). A sealed line reads
/// `verb crc=<8 hex> fields...`: the token sits directly after the verb and
/// carries the CRC-32C (util::crc32c) of the line with the token spliced
/// out, in lowercase hex. Transport version 1 sealed lines with a 16-digit
/// FNV-1a token instead; checksum_ok() refuses those lines, and the session
/// layer recognises a v1 handshake by its token (net/session.hpp). Nothing
/// here allocates beyond the caller's line.

inline constexpr std::string_view kCrcToken = " crc=";
inline constexpr std::size_t kCrcHexDigits = 8;
/// Bytes the token adds to a line: ` crc=` plus the digits.
inline constexpr std::size_t kCrcTokenSize = kCrcToken.size() + kCrcHexDigits;

/// Appends `verb` and the token with a placeholder value; the caller appends
/// the ` key=value` fields and then calls seal_line().
void open_line(std::string& line, std::string_view verb);

/// Fills in the placeholder open_line() left after the first `verb_size`
/// bytes of `line`.
void seal_line(std::string& line, std::size_t verb_size) noexcept;

/// True when `line` carries a ` crc=` token (its first occurrence) of
/// exactly 8 lowercase hex digits whose value is the CRC-32C of the line
/// with the token spliced out. Any position is accepted, not only the
/// canonical one. A line without the token fails: if absence were
/// tolerated, a mutation of the token's key (`crc=` -> `Xrc=`) would
/// disable verification while other mutations alter the payload. Uppercase
/// digits fail too, so that no single-bit flip (`a` -> `A`) keeps a line
/// valid.
bool checksum_ok(std::string_view line) noexcept;

}  // namespace tora::proto
