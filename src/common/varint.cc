#include "common/varint.h"

#include <cstring>

namespace ksp {

void PutVarint64(std::string* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

Status GetVarint64Loop(std::string_view src, size_t* offset,
                       uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  size_t pos = *offset;
  while (pos < src.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(src[pos++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *offset = pos;
      *value = result;
      return Status::OK();
    }
    shift += 7;
  }
  return Status::Corruption("truncated or over-long varint");
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  dst->append(buf, 8);
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  dst->append(buf, 4);
}

Status GetFixed64(std::string_view src, size_t* offset, uint64_t* value) {
  if (*offset + 8 > src.size()) {
    return Status::Corruption("truncated fixed64");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(src[*offset + i]))
         << (8 * i);
  }
  *offset += 8;
  *value = v;
  return Status::OK();
}

Status GetFixed32(std::string_view src, size_t* offset, uint32_t* value) {
  if (*offset + 4 > src.size()) {
    return Status::Corruption("truncated fixed32");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(src[*offset + i]))
         << (8 * i);
  }
  *offset += 4;
  *value = v;
  return Status::OK();
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

Status GetLengthPrefixed(std::string_view src, size_t* offset,
                         std::string* value) {
  uint64_t len = 0;
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &len));
  if (*offset + len > src.size()) {
    return Status::Corruption("truncated length-prefixed string");
  }
  value->assign(src.data() + *offset, len);
  *offset += len;
  return Status::OK();
}

}  // namespace ksp
