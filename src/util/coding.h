// Byte-level encoding helpers (varint32/64, fixed32/64), RocksDB-style.
//
// Used by KvBuffer and spill-file framing so that intermediate data sizes
// are honest byte counts rather than object counts.

#ifndef ONEPASS_UTIL_CODING_H_
#define ONEPASS_UTIL_CODING_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace onepass {

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Varint32 and length-prefix helpers run once or twice per record on every
// KvBuffer append and read, so they live here for inlining. The common
// one-byte varint is decoded inline; longer encodings take the out-of-line
// fallback.

// Appends v as a LEB128 varint (1-5 bytes for 32-bit).
inline void PutVarint32(std::string* dst, uint32_t v) {
  if (v < 0x80) {
    dst->push_back(static_cast<char>(v));
    return;
  }
  unsigned char buf[5];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), n);
}
void PutVarint64(std::string* dst, uint64_t v);

// Multi-byte path of GetVarint32Ptr.
const char* GetVarint32PtrFallback(const char* p, const char* limit,
                                   uint32_t* value);

// Parses a varint from [p, limit). Returns the byte after the varint, or
// nullptr on truncation or overflow: a varint32 whose 5th byte carries bits
// above bit 31, or a varint64 whose 10th byte carries bits above bit 63, is
// rejected rather than silently truncated.
inline const char* GetVarint32Ptr(const char* p, const char* limit,
                                  uint32_t* value) {
  if (p < limit) {
    const uint32_t byte = static_cast<unsigned char>(*p);
    if ((byte & 0x80) == 0) {
      *value = byte;
      return p + 1;
    }
  }
  return GetVarint32PtrFallback(p, limit, value);
}
const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* value);

// Parses a varint from the front of *input, advancing it. Returns false on
// malformed input.
inline bool GetVarint32(std::string_view* input, uint32_t* value) {
  const char* p = input->data();
  const char* q = GetVarint32Ptr(p, p + input->size(), value);
  if (q == nullptr) return false;
  input->remove_prefix(static_cast<size_t>(q - p));
  return true;
}
bool GetVarint64(std::string_view* input, uint64_t* value);

// Number of bytes PutVarint32/64 would write.
inline int VarintLength(uint64_t v) {
  return (std::bit_width(v | 1) + 6) / 7;
}

// Appends a length-prefixed string.
inline void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

// Parses a length-prefixed string from the front of *input.
inline bool GetLengthPrefixed(std::string_view* input,
                              std::string_view* result) {
  uint32_t len = 0;
  if (!GetVarint32(input, &len)) return false;
  if (input->size() < len) return false;
  *result = input->substr(0, len);
  input->remove_prefix(len);
  return true;
}

}  // namespace onepass

#endif  // ONEPASS_UTIL_CODING_H_
