// Well-known managed types shared by workloads and engines: String (byte
// payload, as Hadoop's Text stores UTF-8), boxed primitives, and Tuple2
// instantiations. The paper's workloads create billions of these small
// objects — they are the main source of header/pointer overhead Figure 5
// measures.
#ifndef SRC_SERDE_WELLKNOWN_H_
#define SRC_SERDE_WELLKNOWN_H_

#include <string>
#include <string_view>

#include "src/runtime/heap.h"
#include "src/runtime/klass.h"

namespace gerenuk {

// Registers the common types in a heap's registry and caches the Klass
// pointers. Construct one per Heap.
class WellKnown {
 public:
  explicit WellKnown(Heap& heap);

  const Klass* string_klass() const { return string_; }
  const Klass* byte_array() const { return byte_array_; }
  const Klass* int_array() const { return int_array_; }
  const Klass* long_array() const { return long_array_; }
  const Klass* double_array() const { return double_array_; }
  const Klass* boxed_int() const { return boxed_int_; }
  const Klass* boxed_long() const { return boxed_long_; }
  const Klass* boxed_double() const { return boxed_double_; }

  // String helpers. AllocString may GC; the caller's other refs must be
  // rooted.
  ObjRef AllocString(std::string_view text) const;
  std::string GetString(ObjRef str) const;
  int32_t StringLength(ObjRef str) const;

  ObjRef AllocBoxedInt(int32_t v) const;
  ObjRef AllocBoxedLong(int64_t v) const;
  ObjRef AllocBoxedDouble(double v) const;
  int32_t UnboxInt(ObjRef box) const;
  int64_t UnboxLong(ObjRef box) const;
  double UnboxDouble(ObjRef box) const;

  // Defines (or finds) a Tuple2 instantiation. Field kinds may be kRef with
  // the given klass, or primitives (pass nullptr klass).
  const Klass* DefineTuple2(const std::string& name, FieldKind first_kind,
                            const Klass* first_klass, FieldKind second_kind,
                            const Klass* second_klass) const;

 private:
  Heap& heap_;
  const Klass* byte_array_;
  const Klass* int_array_;
  const Klass* long_array_;
  const Klass* double_array_;
  const Klass* string_;
  const Klass* boxed_int_;
  const Klass* boxed_long_;
  const Klass* boxed_double_;
  // Offsets of the `value` field of String and the boxes, looked up once.
  int string_value_;
  int boxed_int_value_;
  int boxed_long_value_;
  int boxed_double_value_;
};

}  // namespace gerenuk

#endif  // SRC_SERDE_WELLKNOWN_H_
