// LEB128 varint and delta+varint codecs for the columnar store.
//
// Sorted ID columns (a virtual extent's row set, string-dictionary offset
// arrays) compress as first-differences in unsigned LEB128: dense
// ascending runs cost ~1 byte per entry. Decoders are bounds-checked and
// never read past the supplied buffer — the on-disk loader feeds them
// untrusted bytes (storage/columnar/columnar_format.h).
#ifndef ULOAD_STORAGE_COLUMNAR_VARINT_H_
#define ULOAD_STORAGE_COLUMNAR_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace uload {

inline void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Reads one varint from [*pos, size); advances *pos. Returns false on
// truncation or on an over-long encoding (> 10 bytes).
inline bool GetVarint(const uint8_t* data, size_t size, size_t* pos,
                      uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < size && shift < 64) {
    uint8_t b = data[*pos];
    ++(*pos);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

// Appends a non-decreasing sequence as delta-encoded varints (count is not
// written; callers frame it).
template <typename T>
void PutDeltaVarints(const std::vector<T>& values, std::string* out) {
  uint64_t prev = 0;
  for (T v : values) {
    uint64_t u = static_cast<uint64_t>(v);
    PutVarint(u - prev, out);
    prev = u;
  }
}

// Streaming decoder for a delta-encoded non-decreasing sequence.
class DeltaVarintReader {
 public:
  DeltaVarintReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  // Decodes the next value; false on truncation.
  bool Next(uint64_t* out) {
    uint64_t delta = 0;
    if (!GetVarint(data_, size_, &pos_, &delta)) return false;
    prev_ += delta;
    *out = prev_;
    return true;
  }

  size_t pos() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t prev_ = 0;
};

// Decodes exactly `count` delta varints into `out`; false on truncation or
// if any decoded value exceeds `max_value`.
template <typename T>
bool GetDeltaVarints(const uint8_t* data, size_t size, size_t* pos,
                     size_t count, uint64_t max_value, std::vector<T>* out) {
  out->clear();
  out->reserve(count);
  uint64_t prev = 0;
  for (size_t k = 0; k < count; ++k) {
    uint64_t delta = 0;
    if (!GetVarint(data, size, pos, &delta)) return false;
    prev += delta;
    if (prev > max_value) return false;
    out->push_back(static_cast<T>(prev));
  }
  return true;
}

}  // namespace uload

#endif  // ULOAD_STORAGE_COLUMNAR_VARINT_H_
