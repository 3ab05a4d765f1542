// Poisoning of memory that holds no written value yet: heap bytes a scratch
// rewind handed back and fresh native-buffer chunks. Under AddressSanitizer
// (GCC defines __SANITIZE_ADDRESS__ for -fsanitize=address) the bytes are
// filled with 0xA5, so code that reads a byte it never wrote sees a loud
// pattern instead of a lucky zero and the asan test run fails. Other builds
// skip the fill: the point of not zeroing is not paying for it.
#ifndef SRC_SUPPORT_POISON_H_
#define SRC_SUPPORT_POISON_H_

#include <cstddef>
#include <cstring>

namespace gerenuk {

inline constexpr unsigned char kPoisonByte = 0xA5;

inline void PoisonUnwritten(void* p, size_t n) {
#ifdef __SANITIZE_ADDRESS__
  std::memset(p, kPoisonByte, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace gerenuk

#endif  // SRC_SUPPORT_POISON_H_
