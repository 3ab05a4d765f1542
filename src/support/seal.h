// The integrity seal shared by every sealed byte range in the repo: the
// NativePartition commit checksum (and its wire-format trailer) and the
// shuffle service's per-spill-block seals. One implementation so a seal
// computed by any producer verifies against any consumer.
//
// It hashes 8 bytes per step, where byte-wise FNV-1a takes a multiply per
// byte. Each step h = Mix(h ^ word) is a bijection of h for a fixed word and
// of the word for a fixed h, and the finalizer is a bijection too, so changing
// any one word of the input — every single-bit flip among them — always
// changes the digest. It is not a streaming hash: the digest depends on how
// the input is split into Update calls (each call zero-pads its own tail), so
// a producer and its verifier must feed the same pieces in the same order.
// Words are loaded in host byte order, like every other wire field.
#ifndef SRC_SUPPORT_SEAL_H_
#define SRC_SUPPORT_SEAL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gerenuk {

class SealHash {
 public:
  void Word(uint64_t w) { h_ = Mix(h_ ^ w); }

  // Mixes whole 8-byte words, then the 0-7 byte tail zero-padded with its
  // length in the top byte (so "a" and "a\0" seal differently).
  void Update(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    uint64_t h = h_;
    for (; n >= 8; n -= 8, p += 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h = Mix(h ^ w);
    }
    uint64_t tail = static_cast<uint64_t>(n) << 56;
    if (n > 0) {
      std::memcpy(&tail, p, n);  // little-endian: fills the low bytes
    }
    h_ = Mix(h ^ tail);
  }

  uint64_t digest() const {
    // murmur3's fmix64: every input bit reaches every output bit.
    uint64_t h = h_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

 private:
  static uint64_t Mix(uint64_t x) {
    x *= 0x9e3779b97f4a7c15ull;  // odd: invertible mod 2^64
    return x ^ (x >> 29);
  }

  uint64_t h_ = 0x6a09e667f3bcc909ull;
};

// One-shot seal of a contiguous buffer, its length included.
inline uint64_t SealDigest(const void* data, size_t n) {
  SealHash h;
  h.Word(n);
  h.Update(data, n);
  return h.digest();
}

}  // namespace gerenuk

#endif  // SRC_SUPPORT_SEAL_H_
