#include "src/runtime/heap.h"

#include <algorithm>
#include <iterator>
#include <mutex>

#include "src/support/poison.h"
#include "src/support/trace.h"

namespace gerenuk {

namespace {
constexpr uint64_t kHeapStartOffset = 8;  // offset 0 is the null reference
constexpr int64_t kMinFreeBlock = 16;     // enough for a free-block header

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) & ~(a - 1); }

// Arenas of destroyed heaps, kept for the next heap of the same capacity.
// A kept arena's pages stay committed, so an engine built per job faults in
// no page its predecessor already touched. Past kMaxKeptBytes of capacity
// the oldest kept arena is freed.
class ArenaCache {
 public:
  static constexpr size_t kMaxKeptBytes = size_t{128} << 20;

  std::unique_ptr<uint8_t[]> Take(size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = kept_.rbegin(); it != kept_.rend(); ++it) {
      if (it->capacity == capacity) {
        std::unique_ptr<uint8_t[]> arena = std::move(it->arena);
        kept_bytes_ -= capacity;
        kept_.erase(std::next(it).base());
        return arena;
      }
    }
    return nullptr;
  }

  void Give(size_t capacity, std::unique_ptr<uint8_t[]> arena) {
    if (capacity > kMaxKeptBytes) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    while (kept_bytes_ + capacity > kMaxKeptBytes) {
      kept_bytes_ -= kept_.front().capacity;
      kept_.erase(kept_.begin());
    }
    kept_.push_back({capacity, std::move(arena)});
    kept_bytes_ += capacity;
  }

 private:
  struct Kept {
    size_t capacity;
    std::unique_ptr<uint8_t[]> arena;
  };
  std::mutex mu_;
  std::vector<Kept> kept_;  // oldest first
  size_t kept_bytes_ = 0;
};

// Never destroyed: a heap may be destroyed during static destruction.
ArenaCache& Arenas() {
  static ArenaCache* cache = new ArenaCache;
  return *cache;
}

// A kept arena if one fits, else a new one. Neither is value-initialized:
// the kernel commits a page on first touch, so a heap costs only the pages
// its objects reach. Nothing reads a byte it did not write first (AllocRaw
// zeroes every object, free blocks write their own headers, collectors copy
// whole objects); under ASan every byte reads 0xA5 until written.
std::unique_ptr<uint8_t[]> NewArena(size_t capacity) {
  std::unique_ptr<uint8_t[]> arena = Arenas().Take(capacity);
  if (arena == nullptr) {
    arena = std::make_unique_for_overwrite<uint8_t[]>(capacity);
  }
  PoisonUnwritten(arena.get(), capacity);
  return arena;
}
}  // namespace

Heap::Heap(const HeapConfig& config, KlassRegistry* shared_klasses)
    : owned_klasses_(shared_klasses == nullptr ? std::make_unique<KlassRegistry>() : nullptr),
      klasses_(shared_klasses == nullptr ? owned_klasses_.get() : shared_klasses),
      config_(config),
      capacity_(AlignUp(config.capacity_bytes, kHeapAlignment)),
      storage_(NewArena(capacity_)),
      base_(storage_.get()) {
  LayOutSpaces();
}

void Heap::LayOutSpaces() {
  if (config_.gc == GcKind::kMarkSweep) {
    old_ = {kHeapStartOffset, capacity_, kHeapStartOffset};
  } else if (config_.gc == GcKind::kRegion) {
    // Yak-like split: a normal (control) space collected by mark-sweep plus
    // a data region freed per epoch.
    uint64_t old_size =
        AlignUp(static_cast<uint64_t>(capacity_ * config_.old_fraction), 8) - kHeapStartOffset;
    old_ = {kHeapStartOffset, kHeapStartOffset + old_size, kHeapStartOffset};
    region_ = {old_.end, capacity_, old_.end};
  } else {
    uint64_t old_size = AlignUp(static_cast<uint64_t>(capacity_ * config_.old_fraction), 8);
    uint64_t eden_size = AlignUp(static_cast<uint64_t>(capacity_ * config_.eden_fraction), 8);
    uint64_t survivor_size = (capacity_ - kHeapStartOffset - old_size - eden_size) / 2;
    survivor_size &= ~static_cast<uint64_t>(7);
    uint64_t p = kHeapStartOffset;
    old_ = {p, p + old_size, p};
    p += old_size;
    eden_ = {p, p + eden_size, p};
    p += eden_size;
    from_ = {p, p + survivor_size, p};
    p += survivor_size;
    to_ = {p, p + survivor_size, p};
  }
}

void Heap::Reset() {
  GERENUK_CHECK(!in_gc_) << "Heap::Reset during a collection";
  GERENUK_CHECK(root_vectors_.empty() && root_slots_.empty() && root_providers_.empty())
      << "Heap::Reset with registered roots (" << root_vectors_.size() << " vectors, "
      << root_slots_.size() << " slots, " << root_providers_.size() << " providers)";
  for (const Space* space : {&old_, &eden_, &from_, &to_, &region_}) {
    PoisonUnwritten(base_ + space->start, space->top - space->start);
  }
  LayOutSpaces();
  free_list_.clear();
  free_total_ = 0;
  remembered_.clear();
  region_remembered_.clear();
  region_evacuation_worklist_.clear();
  promoted_worklist_.clear();
  in_epoch_ = false;
  // A mark taken before the reset must not rewind the reset heap.
  scratch_floor_ = UINT64_MAX;
  ++scratch_epoch_;
  stats_ = HeapStats{};
  peak_used_ = 0;
  SyncMemoryTracker();  // used_bytes() is 0: hands the whole share back
}

Heap::~Heap() { Arenas().Give(capacity_, std::move(storage_)); }

void Heap::InitHeader(ObjRef obj, uint32_t klass_id, uint32_t aux) {
  SetPrim<uint64_t>(obj, 0, 0);
  SetPrim<uint32_t>(obj, 8, klass_id);
  SetPrim<uint32_t>(obj, 12, aux);
}

int64_t Heap::ObjectSize(ObjRef obj) const {
  const Klass* k = klasses_->ById(ReadKlassId(obj));
  if (k->is_array()) {
    return k->ArraySize(ReadAux(obj));
  }
  return k->instance_size();
}

ObjRef Heap::TryBump(Space& space, int64_t size) {
  if (space.free() < static_cast<uint64_t>(size)) {
    return kNullRef;
  }
  ObjRef result = space.top;
  space.top += size;
  return result;
}

void Heap::MakeFreeBlock(uint64_t offset, uint64_t size) {
  GERENUK_CHECK_GE(size, static_cast<uint64_t>(kMinFreeBlock));
  SetPrim<uint64_t>(offset, 0, 0);
  SetPrim<uint32_t>(offset, 8, 0);  // klass id 0 == free block
  SetPrim<uint32_t>(offset, 12, static_cast<uint32_t>(size));
  free_list_.push_back({offset, size});
}

ObjRef Heap::TryFreeList(int64_t size) {
  for (size_t i = 0; i < free_list_.size(); ++i) {
    FreeBlock& block = free_list_[i];
    if (block.size < static_cast<uint64_t>(size)) {
      continue;
    }
    uint64_t remainder = block.size - size;
    if (remainder > 0 && remainder < static_cast<uint64_t>(kMinFreeBlock)) {
      // The tail could carry no free-block header, and the sweep's walk
      // would read the stale bytes there as an object.
      continue;
    }
    ObjRef result = block.offset;
    free_total_ -= block.size;
    if (remainder >= static_cast<uint64_t>(kMinFreeBlock)) {
      // Split: shrink this entry in place.
      block.offset += size;
      block.size = remainder;
      SetPrim<uint64_t>(block.offset, 0, 0);
      SetPrim<uint32_t>(block.offset, 8, 0);
      SetPrim<uint32_t>(block.offset, 12, static_cast<uint32_t>(remainder));
      free_total_ += remainder;
    } else {
      free_list_.erase(free_list_.begin() + i);
    }
    return result;
  }
  return kNullRef;
}

ObjRef Heap::AllocRaw(const Klass* klass, int64_t size, uint32_t aux) {
  GERENUK_CHECK(!in_gc_) << "allocation during GC";
  ObjRef obj = kNullRef;
  if (config_.gc == GcKind::kMarkSweep || config_.gc == GcKind::kRegion) {
    if (config_.gc == GcKind::kRegion && in_epoch_) {
      // Epoch allocation: bump the region; overflow falls through to the
      // normal space (Yak would chain a new region).
      obj = TryBump(region_, size);
    }
    if (obj == kNullRef) {
      obj = TryBump(old_, size);
    }
    if (obj == kNullRef) {
      obj = TryFreeList(size);
    }
    if (obj == kNullRef) {
      MarkSweepCollect(old_.start, old_.top);
      obj = TryFreeList(size);
      if (obj == kNullRef) {
        obj = TryBump(old_, size);
      }
    }
  } else {
    // Objects too large for eden go straight to the old generation, as
    // HotSpot does with humongous allocations.
    bool huge = static_cast<uint64_t>(size) > eden_.size() / 4;
    if (!huge) {
      obj = TryBump(eden_, size);
      if (obj == kNullRef) {
        MinorCollect();
        obj = TryBump(eden_, size);
      }
    }
    if (obj == kNullRef) {
      ++scratch_epoch_;  // outside eden: a rewind would not free it
      obj = TryBump(old_, size);
      if (obj == kNullRef) {
        obj = TryFreeList(size);
      }
      if (obj == kNullRef) {
        MajorCollect();
        obj = TryBump(old_, size);
        if (obj == kNullRef) {
          obj = TryFreeList(size);
        }
      }
    }
  }
  GERENUK_CHECK(obj != kNullRef) << "managed heap out of memory allocating " << size
                                 << " bytes of " << klass->name() << " (capacity " << capacity_
                                 << ")";
  std::memset(base_ + obj, 0, size);
  SetPrim<uint32_t>(obj, 8, klass->id());
  SetPrim<uint32_t>(obj, 12, aux);
  stats_.allocated_bytes += size;
  stats_.allocated_objects += 1;
  int64_t used = used_bytes();
  if (used > peak_used_) {
    peak_used_ = used;
  }
  SyncMemoryTracker();
  return obj;
}

void Heap::SyncMemoryTracker() {
  if (memory_tracker_ == nullptr) {
    return;
  }
  int64_t used = used_bytes();
  if (used > tracker_reported_) {
    memory_tracker_->Allocated(used - tracker_reported_);
  } else if (used < tracker_reported_) {
    memory_tracker_->Freed(tracker_reported_ - used);
  }
  tracker_reported_ = used;
}

ObjRef Heap::AllocObject(const Klass* klass) {
  GERENUK_CHECK(!klass->is_array());
  return AllocRaw(klass, klass->instance_size(), 0);
}

ObjRef Heap::AllocArray(const Klass* array_klass, int64_t length) {
  GERENUK_CHECK(array_klass->is_array());
  GERENUK_CHECK(length >= 0 && length <= INT32_MAX) << "bad array length " << length;
  return AllocRaw(array_klass, array_klass->ArraySize(length), static_cast<uint32_t>(length));
}

void Heap::SetRef(ObjRef obj, int offset, ObjRef value) {
  SetPrim<ObjRef>(obj, offset, value);
  BarrierStore(obj, obj + static_cast<uint64_t>(offset), value);
}

void Heap::ASetRef(ObjRef array, int64_t index, ObjRef value) {
  const Klass* k = KlassOf(array);
  BoundsCheck(array, index);
  int offset = k->ElementOffset(index);
  SetPrim<ObjRef>(array, offset, value);
  BarrierStore(array, array + static_cast<uint64_t>(offset), value);
}

void Heap::BarrierStore(ObjRef obj, uint64_t slot, ObjRef value) {
  stats_.barrier_stores += 1;
  if (config_.gc == GcKind::kGenerational) {
    if (value != kNullRef && !InYoung(obj) && InYoung(value)) {
      uint64_t mark = ReadMark(obj);
      if ((mark & kRememberedBit) == 0) {
        WriteMark(obj, mark | kRememberedBit);
        remembered_.push_back(obj);
      }
    }
    // Counted on every escaping store, not on remembered-set growth: an old
    // object that is already remembered does not enter the set again.
    if (InScratch(value) && !InScratch(obj)) {
      ++scratch_epoch_;
    }
    return;
  }
  if (config_.gc == GcKind::kRegion) {
    // Yak's inter-region barrier: a reference stored from outside the region
    // into the region records the slot so epoch-end evacuation can redirect
    // it. (This is the per-reference-write overhead Figure 9 attributes to
    // Yak.)
    if (value != kNullRef && region_.Contains(value) && !region_.Contains(obj)) {
      region_remembered_.push_back(slot);
    }
  }
}

int64_t Heap::used_bytes() const {
  int64_t used = static_cast<int64_t>(old_.top - old_.start) - free_total_;
  if (config_.gc == GcKind::kGenerational) {
    used += static_cast<int64_t>(eden_.top - eden_.start);
    used += static_cast<int64_t>(from_.top - from_.start);
  } else if (config_.gc == GcKind::kRegion) {
    used += static_cast<int64_t>(region_.top - region_.start);
  }
  return used;
}

Heap::ScratchMark Heap::MarkScratch() {
  scratch_floor_ = eden_.top;
  return {eden_.top, scratch_epoch_};
}

bool Heap::RewindScratch(const ScratchMark& mark) {
  scratch_floor_ = UINT64_MAX;
  if (config_.gc != GcKind::kGenerational || mark.epoch != scratch_epoch_) {
    return false;
  }
  GERENUK_CHECK(mark.top >= eden_.start && mark.top <= eden_.top);
  PoisonUnwritten(base_ + mark.top, eden_.top - mark.top);
  eden_.top = mark.top;
  SyncMemoryTracker();
  return true;
}

// ---------------------------------------------------------------------------
// Yak-like epochs.
// ---------------------------------------------------------------------------

void Heap::EpochStart() {
  GERENUK_CHECK(config_.gc == GcKind::kRegion) << "epochs require GcKind::kRegion";
  GERENUK_CHECK(!in_epoch_) << "nested epochs are not supported";
  in_epoch_ = true;
  region_remembered_.clear();
}

ObjRef Heap::EvacuateRegionObject(ObjRef obj) {
  uint64_t mark = ReadMark(obj);
  if ((mark & kForwardBit) != 0) {
    return (mark >> kForwardShift) << 3;
  }
  int64_t size = ObjectSize(obj);
  ObjRef target = TryBump(old_, size);
  if (target == kNullRef) {
    target = TryFreeList(size);
  }
  GERENUK_CHECK(target != kNullRef) << "control space exhausted during region evacuation";
  std::memcpy(base_ + target, base_ + obj, size);
  WriteMark(target, 0);
  WriteMark(obj, kForwardBit | ((target >> 3) << kForwardShift));
  stats_.promoted_bytes += size;
  region_evacuation_worklist_.push_back(target);
  return target;
}

void Heap::EvacuateRegionSlot(ObjRef* slot) {
  if (*slot != kNullRef && region_.Contains(*slot)) {
    *slot = EvacuateRegionObject(*slot);
  }
}

void Heap::EpochEnd() {
  GERENUK_CHECK(in_epoch_);
  TraceSpan gc_span(trace_sink_, TraceEventType::kGcPause, "region_gc");
  Stopwatch watch;
  watch.Start();
  in_gc_ = true;
  stats_.minor_gcs += 1;  // counted as a (cheap) region collection
  ++scratch_epoch_;

  // Escape analysis at run time: everything reachable from outside the
  // region — via barrier-recorded slots or global roots — is copied out;
  // the rest of the region dies wholesale, no scanning needed.
  region_evacuation_worklist_.clear();
  for (uint64_t slot : region_remembered_) {
    ObjRef value = GetPrim<ObjRef>(slot, 0);
    if (value != kNullRef && region_.Contains(value)) {
      SetPrim<ObjRef>(slot, 0, EvacuateRegionObject(value));
    }
  }
  ForEachRoot(&Heap::EvacuateRegionSlot);
  while (!region_evacuation_worklist_.empty()) {
    ObjRef obj = region_evacuation_worklist_.back();
    region_evacuation_worklist_.pop_back();
    const Klass* k = klasses_->ById(ReadKlassId(obj));
    if (k->is_array()) {
      if (k->element_kind() == FieldKind::kRef) {
        int64_t len = ReadAux(obj);
        for (int64_t i = 0; i < len; ++i) {
          int off = k->ElementOffset(i);
          ObjRef child = GetPrim<ObjRef>(obj, off);
          if (child != kNullRef && region_.Contains(child)) {
            SetPrim<ObjRef>(obj, off, EvacuateRegionObject(child));
          }
        }
      }
    } else {
      for (int off : k->ref_offsets()) {
        ObjRef child = GetPrim<ObjRef>(obj, off);
        if (child != kNullRef && region_.Contains(child)) {
          SetPrim<ObjRef>(obj, off, EvacuateRegionObject(child));
        }
      }
    }
  }

  region_.top = region_.start;  // whole-region free
  region_remembered_.clear();
  in_epoch_ = false;
  in_gc_ = false;
  watch.Stop();
  stats_.gc_nanos += watch.ElapsedNanos();
  if (phase_times_ != nullptr) {
    phase_times_->Add(Phase::kGc, watch.ElapsedNanos());
  }
  SyncMemoryTracker();
}

void Heap::AddRootVector(std::vector<ObjRef>* roots) { root_vectors_.push_back(roots); }

void Heap::RemoveRootVector(std::vector<ObjRef>* roots) {
  // Scopes unwind LIFO, so the vector is almost always the last one.
  auto it = std::find(root_vectors_.rbegin(), root_vectors_.rend(), roots);
  GERENUK_CHECK(it != root_vectors_.rend());
  root_vectors_.erase(std::next(it).base());
}

void Heap::AddRootSlot(ObjRef* slot) { root_slots_.push_back(slot); }

void Heap::RemoveRootSlot(ObjRef* slot) {
  auto it = std::find(root_slots_.begin(), root_slots_.end(), slot);
  GERENUK_CHECK(it != root_slots_.end());
  root_slots_.erase(it);
}

void Heap::AddRootProvider(RootProvider* provider) { root_providers_.push_back(provider); }

void Heap::RemoveRootProvider(RootProvider* provider) {
  auto it = std::find(root_providers_.begin(), root_providers_.end(), provider);
  GERENUK_CHECK(it != root_providers_.end());
  root_providers_.erase(it);
}

void Heap::ForEachRoot(void (Heap::*visit)(ObjRef*)) {
  for (ObjRef* slot : root_slots_) {
    (this->*visit)(slot);
  }
  for (std::vector<ObjRef>* vec : root_vectors_) {
    for (ObjRef& slot : *vec) {
      (this->*visit)(&slot);
    }
  }
  for (RootProvider* provider : root_providers_) {
    provider->VisitRoots([this, visit](ObjRef* slot) { (this->*visit)(slot); });
  }
}

void Heap::CollectNow() {
  if (config_.gc == GcKind::kMarkSweep) {
    MarkSweepCollect(old_.start, old_.top);
  } else {
    MajorCollect();
    MinorCollect();
  }
}

// ---------------------------------------------------------------------------
// Mark-sweep (full heap in kMarkSweep mode; old generation in major GCs).
// ---------------------------------------------------------------------------

void Heap::MarkSlot(ObjRef* slot) {
  ObjRef obj = *slot;
  if (obj == kNullRef) {
    return;
  }
  uint64_t mark = ReadMark(obj);
  if ((mark & kMarkBit) != 0) {
    return;
  }
  WriteMark(obj, mark | kMarkBit);
  mark_worklist_->push_back(obj);
}

void Heap::TraceObject(ObjRef obj, std::vector<ObjRef>& worklist) {
  const Klass* k = klasses_->ById(ReadKlassId(obj));
  if (k->is_array()) {
    if (k->element_kind() == FieldKind::kRef) {
      int64_t len = ReadAux(obj);
      for (int64_t i = 0; i < len; ++i) {
        ObjRef child = GetPrim<ObjRef>(obj, k->ElementOffset(i));
        if (child != kNullRef && (ReadMark(child) & kMarkBit) == 0) {
          WriteMark(child, ReadMark(child) | kMarkBit);
          worklist.push_back(child);
        }
      }
    }
    return;
  }
  for (int offset : k->ref_offsets()) {
    ObjRef child = GetPrim<ObjRef>(obj, offset);
    if (child != kNullRef && (ReadMark(child) & kMarkBit) == 0) {
      WriteMark(child, ReadMark(child) | kMarkBit);
      worklist.push_back(child);
    }
  }
}

void Heap::MarkFromRoots(std::vector<ObjRef>& worklist) {
  mark_worklist_ = &worklist;
  ForEachRoot(&Heap::MarkSlot);
  mark_worklist_ = nullptr;
  while (!worklist.empty()) {
    ObjRef obj = worklist.back();
    worklist.pop_back();
    TraceObject(obj, worklist);
  }
}

void Heap::MarkSweepCollect(uint64_t sweep_start, uint64_t sweep_end) {
  TraceSpan gc_span(trace_sink_, TraceEventType::kGcPause, "major_gc");
  Stopwatch watch;
  watch.Start();
  in_gc_ = true;
  stats_.major_gcs += 1;
  ++scratch_epoch_;

  // kRegion: flush the epoch remembered set before sweeping. Recorded slots
  // are guaranteed valid only until the next collection (their containing
  // objects may die), so their referents are conservatively evacuated now.
  if (config_.gc == GcKind::kRegion && in_epoch_) {
    region_evacuation_worklist_.clear();
    for (uint64_t slot : region_remembered_) {
      ObjRef value = GetPrim<ObjRef>(slot, 0);
      if (value != kNullRef && region_.Contains(value)) {
        SetPrim<ObjRef>(slot, 0, EvacuateRegionObject(value));
      }
    }
    region_remembered_.clear();
    while (!region_evacuation_worklist_.empty()) {
      ObjRef obj = region_evacuation_worklist_.back();
      region_evacuation_worklist_.pop_back();
      const Klass* k = klasses_->ById(ReadKlassId(obj));
      if (k->is_array()) {
        if (k->element_kind() == FieldKind::kRef) {
          int64_t len = ReadAux(obj);
          for (int64_t i = 0; i < len; ++i) {
            int off = k->ElementOffset(i);
            ObjRef child = GetPrim<ObjRef>(obj, off);
            if (child != kNullRef && region_.Contains(child)) {
              SetPrim<ObjRef>(obj, off, EvacuateRegionObject(child));
            }
          }
        }
      } else {
        for (int off : k->ref_offsets()) {
          ObjRef child = GetPrim<ObjRef>(obj, off);
          if (child != kNullRef && region_.Contains(child)) {
            SetPrim<ObjRef>(obj, off, EvacuateRegionObject(child));
          }
        }
      }
    }
  }

  std::vector<ObjRef> worklist;
  MarkFromRoots(worklist);

  // In generational mode the remembered set must only retain live entries.
  if (config_.gc == GcKind::kGenerational) {
    std::vector<ObjRef> live_remembered;
    for (ObjRef obj : remembered_) {
      if ((ReadMark(obj) & kMarkBit) != 0) {
        live_remembered.push_back(obj);
      }
    }
    remembered_.swap(live_remembered);
  }

  // Sweep [sweep_start, sweep_end): unmarked objects become free blocks,
  // adjacent free space coalesces. The walk relies on every object being
  // self-describing (klass id 0 + aux size for free blocks).
  free_list_.clear();
  free_total_ = 0;
  uint64_t offset = sweep_start;
  uint64_t free_run_start = 0;
  uint64_t free_run_size = 0;
  auto flush_free_run = [&]() {
    if (free_run_size >= static_cast<uint64_t>(kMinFreeBlock)) {
      MakeFreeBlock(free_run_start, free_run_size);
      free_total_ += free_run_size;
    }
    free_run_size = 0;
  };
  while (offset < sweep_end) {
    uint32_t klass_id = ReadKlassId(offset);
    uint64_t size;
    bool live = false;
    if (klass_id == 0) {
      size = ReadAux(offset);
    } else {
      size = ObjectSize(offset);
      uint64_t mark = ReadMark(offset);
      if ((mark & kMarkBit) != 0) {
        WriteMark(offset, mark & ~kMarkBit);
        live = true;
      }
    }
    if (live) {
      flush_free_run();
    } else {
      if (free_run_size == 0) {
        free_run_start = offset;
      }
      free_run_size += size;
    }
    offset += size;
  }
  flush_free_run();

  // Clear mark bits on surviving objects in spaces the sweep did not cover.
  if (config_.gc == GcKind::kGenerational) {
    for (Space* space : {&eden_, &from_}) {
      uint64_t p = space->start;
      while (p < space->top) {
        uint64_t mark = ReadMark(p);
        WriteMark(p, mark & ~kMarkBit);
        p += ObjectSize(p);
      }
    }
  } else if (config_.gc == GcKind::kRegion) {
    uint64_t p = region_.start;
    while (p < region_.top) {
      uint64_t mark = ReadMark(p);
      WriteMark(p, mark & ~kMarkBit);
      p += ObjectSize(p);
    }
  }

  in_gc_ = false;
  watch.Stop();
  stats_.gc_nanos += watch.ElapsedNanos();
  if (phase_times_ != nullptr) {
    phase_times_->Add(Phase::kGc, watch.ElapsedNanos());
  }
  SyncMemoryTracker();
}

// ---------------------------------------------------------------------------
// Generational copying scavenge.
// ---------------------------------------------------------------------------

ObjRef Heap::Evacuate(ObjRef obj) {
  uint64_t mark = ReadMark(obj);
  if ((mark & kForwardBit) != 0) {
    return (mark >> kForwardShift) << 3;
  }
  int64_t size = ObjectSize(obj);
  int age = static_cast<int>((mark & kAgeMask) >> kAgeShift);
  ObjRef target = kNullRef;
  bool promoted = false;
  if (age + 1 >= config_.promotion_age) {
    target = TryBump(old_, size);
    if (target == kNullRef) {
      target = TryFreeList(size);
    }
    promoted = target != kNullRef;
  }
  if (target == kNullRef) {
    target = TryBump(to_, size);
  }
  if (target == kNullRef) {
    // Survivor overflow: promote regardless of age.
    target = TryBump(old_, size);
    if (target == kNullRef) {
      target = TryFreeList(size);
    }
    promoted = target != kNullRef;
  }
  GERENUK_CHECK(target != kNullRef) << "promotion failure: old generation exhausted";
  std::memcpy(base_ + target, base_ + obj, size);
  uint64_t new_age = std::min(age + 1, 15);
  WriteMark(target, new_age << kAgeShift);
  WriteMark(obj, kForwardBit | ((target >> 3) << kForwardShift));
  if (promoted) {
    stats_.promoted_bytes += size;
    promoted_worklist_.push_back(target);
  } else {
    stats_.copied_bytes += size;
  }
  return target;
}

void Heap::ScavengeSlot(ObjRef* slot) {
  ObjRef obj = *slot;
  if (obj == kNullRef || !InYoung(obj)) {
    return;
  }
  *slot = Evacuate(obj);
}

void Heap::ScavengeObjectFields(ObjRef obj, bool* saw_young) {
  const Klass* k = klasses_->ById(ReadKlassId(obj));
  if (k->is_array()) {
    if (k->element_kind() == FieldKind::kRef) {
      int64_t len = ReadAux(obj);
      for (int64_t i = 0; i < len; ++i) {
        int off = k->ElementOffset(i);
        ObjRef child = GetPrim<ObjRef>(obj, off);
        if (child != kNullRef && InYoung(child)) {
          ObjRef moved = Evacuate(child);
          SetPrim<ObjRef>(obj, off, moved);
          if (InYoung(moved)) {
            *saw_young = true;
          }
        }
      }
    }
    return;
  }
  for (int off : k->ref_offsets()) {
    ObjRef child = GetPrim<ObjRef>(obj, off);
    if (child != kNullRef && InYoung(child)) {
      ObjRef moved = Evacuate(child);
      SetPrim<ObjRef>(obj, off, moved);
      if (InYoung(moved)) {
        *saw_young = true;
      }
    }
  }
}

void Heap::MinorCollect() {
  // If the worst case (everything promotes) cannot fit in the old
  // generation's free space, do a major collection first so the scavenge
  // cannot hit a promotion failure mid-copy.
  int64_t young_used = static_cast<int64_t>((eden_.top - eden_.start) + (from_.top - from_.start));
  int64_t old_free =
      static_cast<int64_t>(old_.end - old_.top) + free_total_ + static_cast<int64_t>(to_.size());
  if (old_free < young_used) {
    MarkSweepCollect(old_.start, old_.top);
  }

  TraceSpan gc_span(trace_sink_, TraceEventType::kGcPause, "minor_gc");
  Stopwatch watch;
  watch.Start();
  in_gc_ = true;
  stats_.minor_gcs += 1;
  ++scratch_epoch_;

  promoted_worklist_.clear();
  ForEachRoot(&Heap::ScavengeSlot);

  // Old-to-young references recorded by the write barrier.
  std::vector<ObjRef> old_remembered;
  old_remembered.swap(remembered_);
  std::vector<ObjRef> still_remembered;
  for (ObjRef obj : old_remembered) {
    bool saw_young = false;
    ScavengeObjectFields(obj, &saw_young);
    if (saw_young) {
      still_remembered.push_back(obj);
    } else {
      WriteMark(obj, ReadMark(obj) & ~kRememberedBit);
    }
  }

  // Cheney scan of to-space, interleaved with draining promotions.
  uint64_t scan = to_.start;
  while (scan < to_.top || !promoted_worklist_.empty()) {
    while (!promoted_worklist_.empty()) {
      ObjRef promoted = promoted_worklist_.back();
      promoted_worklist_.pop_back();
      bool saw_young = false;
      ScavengeObjectFields(promoted, &saw_young);
      if (saw_young) {
        uint64_t mark = ReadMark(promoted);
        if ((mark & kRememberedBit) == 0) {
          WriteMark(promoted, mark | kRememberedBit);
          still_remembered.push_back(promoted);
        }
      }
    }
    if (scan < to_.top) {
      bool unused = false;
      ScavengeObjectFields(scan, &unused);
      scan += ObjectSize(scan);
    }
  }
  remembered_.swap(still_remembered);

  eden_.top = eden_.start;
  from_.top = from_.start;
  std::swap(from_, to_);

  in_gc_ = false;
  watch.Stop();
  stats_.gc_nanos += watch.ElapsedNanos();
  if (phase_times_ != nullptr) {
    phase_times_->Add(Phase::kGc, watch.ElapsedNanos());
  }
  SyncMemoryTracker();
}

void Heap::MajorCollect() { MarkSweepCollect(old_.start, old_.top); }

}  // namespace gerenuk
