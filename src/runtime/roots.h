// RAII GC-root scope: keeps a set of references alive (and updated when the
// copying collector moves their targets) for the duration of a C++ scope.
// Every piece of code that allocates while holding managed references must
// hold them through a RootScope — the same discipline HotSpot's HandleScope
// imposes on VM-internal code.
#ifndef SRC_RUNTIME_ROOTS_H_
#define SRC_RUNTIME_ROOTS_H_

#include <cstddef>
#include <vector>

#include "src/runtime/heap.h"

namespace gerenuk {

class RootScope {
 public:
  explicit RootScope(Heap& heap) : heap_(heap) { heap_.AddRootVector(&slots_); }
  ~RootScope() { heap_.RemoveRootVector(&slots_); }
  RootScope(const RootScope&) = delete;
  RootScope& operator=(const RootScope&) = delete;

  // Registers `ref` as a root; returns its slot index. Read the (possibly
  // GC-updated) value back with Get before every use that follows an
  // allocation.
  size_t Push(ObjRef ref) {
    slots_.push_back(ref);
    return slots_.size() - 1;
  }
  ObjRef Get(size_t index) const { return slots_[index]; }
  void Set(size_t index, ObjRef ref) { slots_[index] = ref; }
  void Pop() { slots_.pop_back(); }
  void Clear() { slots_.clear(); }
  size_t size() const { return slots_.size(); }

 private:
  Heap& heap_;
  std::vector<ObjRef> slots_;
};

// Registers a caller-owned vector as a root set for the duration of a C++
// scope, for code that indexes, copies or returns the vector itself. The
// vector must be declared before the guard, so it outlives the
// registration even when the scope unwinds through an exception.
class ScopedRootVector {
 public:
  ScopedRootVector(Heap& heap, std::vector<ObjRef>* roots) : heap_(heap), roots_(roots) {
    heap_.AddRootVector(roots_);
  }
  ~ScopedRootVector() { heap_.RemoveRootVector(roots_); }
  ScopedRootVector(const ScopedRootVector&) = delete;
  ScopedRootVector& operator=(const ScopedRootVector&) = delete;

 private:
  Heap& heap_;
  std::vector<ObjRef>* roots_;
};

}  // namespace gerenuk

#endif  // SRC_RUNTIME_ROOTS_H_
