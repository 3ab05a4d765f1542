// FNV-1a hashing: the identity hash of a ProgramSignature's text. Integrity
// seals over data bytes use the word-at-a-time SealHash (src/support/seal.h)
// instead.
#ifndef SRC_SUPPORT_FNV_H_
#define SRC_SUPPORT_FNV_H_

#include <cstddef>
#include <cstdint>

namespace gerenuk {

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

// Incremental FNV-1a: Update as many times as the data arrives in pieces;
// digest() at any point. Byte-order independent (byte-at-a-time).
class Fnv1a {
 public:
  void Update(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    uint64_t h = h_;
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kFnvPrime;
    }
    h_ = h;
  }
  uint64_t digest() const { return h_; }
  void Reset() { h_ = kFnvOffsetBasis; }

 private:
  uint64_t h_ = kFnvOffsetBasis;
};

// One-shot convenience for contiguous buffers.
inline uint64_t Fnv1aDigest(const void* data, size_t n) {
  Fnv1a h;
  h.Update(data, n);
  return h.digest();
}

}  // namespace gerenuk

#endif  // SRC_SUPPORT_FNV_H_
