#ifndef KSP_COMMON_VARINT_H_
#define KSP_COMMON_VARINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ksp {

/// LEB128-style unsigned varint codec used by the disk-resident inverted
/// indexes (delta-encoded postings). Small values take one byte; a 64-bit
/// value takes at most 10 bytes.
void PutVarint64(std::string* dst, uint64_t value);

/// Decodes one varint from `src` at `*offset`, advancing the offset.
/// Fails with Corruption on truncated or over-long input. This is the
/// out-of-line loop; GetVarint64 below is the entry point callers use.
Status GetVarint64Loop(std::string_view src, size_t* offset,
                       uint64_t* value);

/// GetVarint64Loop with the one- and two-byte encodings (every small
/// count and id gap) decoded inline; longer encodings and every error
/// take the loop, so value, offset and Status are always the loop's.
inline Status GetVarint64(std::string_view src, size_t* offset,
                          uint64_t* value) {
  const size_t pos = *offset;
  if (pos < src.size()) {
    const uint8_t b0 = static_cast<uint8_t>(src[pos]);
    if (b0 < 0x80) {
      *value = b0;
      *offset = pos + 1;
      return Status::OK();
    }
    if (pos + 1 < src.size()) {
      const uint8_t b1 = static_cast<uint8_t>(src[pos + 1]);
      if (b1 < 0x80) {
        *value = (b0 & 0x7Fu) | (static_cast<uint64_t>(b1) << 7);
        *offset = pos + 2;
        return Status::OK();
      }
    }
  }
  return GetVarint64Loop(src, offset, value);
}

/// Appends a fixed-width little-endian 64/32-bit value.
void PutFixed64(std::string* dst, uint64_t value);
void PutFixed32(std::string* dst, uint32_t value);

Status GetFixed64(std::string_view src, size_t* offset, uint64_t* value);
Status GetFixed32(std::string_view src, size_t* offset, uint32_t* value);

/// Length-prefixed string (varint length + raw bytes).
void PutLengthPrefixed(std::string* dst, std::string_view value);
Status GetLengthPrefixed(std::string_view src, size_t* offset,
                         std::string* value);

}  // namespace ksp

#endif  // KSP_COMMON_VARINT_H_
