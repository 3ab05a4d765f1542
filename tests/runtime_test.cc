// Unit and property tests for the managed mini-runtime: klass layout,
// allocation, field/array access, write barriers, and both garbage
// collectors (mark-sweep and generational scavenge).
#include <gtest/gtest.h>

#include <vector>

#include "src/runtime/heap.h"
#include "src/runtime/klass.h"
#include "src/support/rng.h"

namespace gerenuk {
namespace {

TEST(KlassTest, FieldLayoutPacksLargestFirst) {
  KlassRegistry registry;
  const Klass* k = registry.DefineClass("Mixed", {
                                                     {"a", FieldKind::kI32, nullptr, 0},
                                                     {"b", FieldKind::kF64, nullptr, 0},
                                                     {"c", FieldKind::kI8, nullptr, 0},
                                                     {"d", FieldKind::kI32, nullptr, 0},
                                                 });
  // 8-byte field first (offset 16), then the two i32s (24, 28), then i8 (32).
  EXPECT_EQ(k->FindField("b")->offset, 16);
  EXPECT_EQ(k->FindField("a")->offset, 24);
  EXPECT_EQ(k->FindField("d")->offset, 28);
  EXPECT_EQ(k->FindField("c")->offset, 32);
  EXPECT_EQ(k->instance_size(), 40);  // 33 rounded to 8
}

TEST(KlassTest, RefOffsetsCollected) {
  KlassRegistry registry;
  const Klass* target = registry.DefineClass("Target", {});
  const Klass* k = registry.DefineClass("HasRefs", {
                                                       {"x", FieldKind::kI32, nullptr, 0},
                                                       {"r1", FieldKind::kRef, target, 0},
                                                       {"r2", FieldKind::kRef, target, 0},
                                                   });
  ASSERT_EQ(k->ref_offsets().size(), 2u);
  EXPECT_EQ(k->ref_offsets()[0], 16);
  EXPECT_EQ(k->ref_offsets()[1], 24);
}

TEST(KlassTest, EmptyClassIsHeaderOnly) {
  KlassRegistry registry;
  const Klass* k = registry.DefineClass("Empty", {});
  EXPECT_EQ(k->instance_size(), kObjectHeaderBytes);
}

TEST(KlassTest, ArrayLayout) {
  KlassRegistry registry;
  const Klass* d_array = registry.DefineArray(FieldKind::kF64);
  EXPECT_TRUE(d_array->is_array());
  EXPECT_EQ(d_array->name(), "f64[]");
  // Header (16) + length (4) + pad to 8 = elements at 24.
  EXPECT_EQ(d_array->elements_offset(), 24);
  EXPECT_EQ(d_array->ArraySize(3), 24 + 3 * 8);

  const Klass* b_array = registry.DefineArray(FieldKind::kI8);
  // Byte elements start right after the length.
  EXPECT_EQ(b_array->elements_offset(), 20);
  EXPECT_EQ(b_array->ArraySize(3), 24);  // 23 rounded up
}

TEST(KlassTest, ArrayDefinitionIsIdempotent) {
  KlassRegistry registry;
  const Klass* a = registry.DefineArray(FieldKind::kI32);
  const Klass* b = registry.DefineArray(FieldKind::kI32);
  EXPECT_EQ(a, b);
}

TEST(KlassTest, FindAndById) {
  KlassRegistry registry;
  const Klass* k = registry.DefineClass("Foo", {});
  EXPECT_EQ(registry.Find("Foo"), k);
  EXPECT_EQ(registry.Find("Bar"), nullptr);
  EXPECT_EQ(registry.ById(k->id()), k);
}

class HeapTest : public ::testing::TestWithParam<GcKind> {
 protected:
  HeapConfig Config(size_t capacity) {
    HeapConfig config;
    config.capacity_bytes = capacity;
    config.gc = GetParam();
    return config;
  }
};

TEST_P(HeapTest, AllocateAndAccessFields) {
  Heap heap(Config(1 << 20));
  const Klass* point = heap.klasses().DefineClass("Point", {
                                                               {"x", FieldKind::kF64, nullptr, 0},
                                                               {"y", FieldKind::kF64, nullptr, 0},
                                                               {"id", FieldKind::kI32, nullptr, 0},
                                                           });
  ObjRef obj = heap.AllocObject(point);
  ASSERT_NE(obj, kNullRef);
  heap.SetPrim<double>(obj, point->FindField("x")->offset, 1.5);
  heap.SetPrim<double>(obj, point->FindField("y")->offset, -2.5);
  heap.SetPrim<int32_t>(obj, point->FindField("id")->offset, 42);
  EXPECT_EQ(heap.GetPrim<double>(obj, point->FindField("x")->offset), 1.5);
  EXPECT_EQ(heap.GetPrim<double>(obj, point->FindField("y")->offset), -2.5);
  EXPECT_EQ(heap.GetPrim<int32_t>(obj, point->FindField("id")->offset), 42);
  EXPECT_EQ(heap.KlassOf(obj), point);
}

TEST_P(HeapTest, NewObjectFieldsAreZeroed) {
  Heap heap(Config(1 << 20));
  const Klass* target = heap.klasses().DefineClass("T", {});
  const Klass* k = heap.klasses().DefineClass("Z", {
                                                       {"v", FieldKind::kI64, nullptr, 0},
                                                       {"r", FieldKind::kRef, target, 0},
                                                   });
  ObjRef obj = heap.AllocObject(k);
  EXPECT_EQ(heap.GetPrim<int64_t>(obj, k->FindField("v")->offset), 0);
  EXPECT_EQ(heap.GetRef(obj, k->FindField("r")->offset), kNullRef);
}

TEST_P(HeapTest, ArrayAccessAndLength) {
  Heap heap(Config(1 << 20));
  const Klass* arr_k = heap.klasses().DefineArray(FieldKind::kF64);
  ObjRef arr = heap.AllocArray(arr_k, 10);
  EXPECT_EQ(heap.ArrayLength(arr), 10);
  for (int i = 0; i < 10; ++i) {
    heap.ASet<double>(arr, i, i * 1.5);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(heap.AGet<double>(arr, i), i * 1.5);
  }
}

TEST_P(HeapTest, ZeroLengthArray) {
  Heap heap(Config(1 << 20));
  const Klass* arr_k = heap.klasses().DefineArray(FieldKind::kI32);
  ObjRef arr = heap.AllocArray(arr_k, 0);
  EXPECT_EQ(heap.ArrayLength(arr), 0);
}

TEST_P(HeapTest, BoundsCheckAborts) {
  Heap heap(Config(1 << 20));
  const Klass* arr_k = heap.klasses().DefineArray(FieldKind::kI32);
  ObjRef arr = heap.AllocArray(arr_k, 3);
  EXPECT_DEATH(heap.AGet<int32_t>(arr, 3), "out of bounds");
  EXPECT_DEATH(heap.AGet<int32_t>(arr, -1), "out of bounds");
}

TEST_P(HeapTest, GcReclaimsGarbage) {
  Heap heap(Config(1 << 20));
  const Klass* arr_k = heap.klasses().DefineArray(FieldKind::kI8);
  // Allocate far more garbage than the heap holds; without working GC this
  // would hit the OOM check.
  for (int i = 0; i < 10000; ++i) {
    heap.AllocArray(arr_k, 512);
  }
  EXPECT_GT(heap.stats().minor_gcs + heap.stats().major_gcs, 0);
}

TEST_P(HeapTest, GcPreservesRootedObjectGraph) {
  Heap heap(Config(1 << 20));
  const Klass* node = heap.klasses().DefineClass("Node", {
                                                             {"value", FieldKind::kI64, nullptr, 0},
                                                             {"next", FieldKind::kRef, nullptr, 0},
                                                         });
  const Klass* garbage_k = heap.klasses().DefineArray(FieldKind::kI8);

  std::vector<ObjRef> roots;
  heap.AddRootVector(&roots);

  // Build a 100-node linked list rooted at roots[0], interleaved with garbage.
  ObjRef head = heap.AllocObject(node);
  roots.push_back(head);
  heap.SetPrim<int64_t>(roots[0], node->FindField("value")->offset, 0);
  for (int i = 1; i < 100; ++i) {
    ObjRef next = heap.AllocObject(node);
    roots.push_back(next);  // temporarily root it to survive the SetRef below
    heap.SetPrim<int64_t>(next, node->FindField("value")->offset, i);
    // Find tail (the previous node) and link it.
    heap.SetRef(roots[roots.size() - 2], node->FindField("next")->offset, next);
    heap.AllocArray(garbage_k, 2048);  // garbage pressure
  }
  // Drop all roots except the head; the list must stay reachable through it.
  roots.resize(1);
  for (int i = 0; i < 2000; ++i) {
    heap.AllocArray(garbage_k, 2048);
  }
  heap.CollectNow();

  ObjRef cur = roots[0];
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(cur, kNullRef) << "list truncated at node " << i;
    EXPECT_EQ(heap.GetPrim<int64_t>(cur, node->FindField("value")->offset), i);
    cur = heap.GetRef(cur, node->FindField("next")->offset);
  }
  EXPECT_EQ(cur, kNullRef);
  heap.RemoveRootVector(&roots);
}

TEST_P(HeapTest, GcPreservesRefArrays) {
  Heap heap(Config(2 << 20));
  const Klass* box = heap.klasses().DefineClass("Box", {{"v", FieldKind::kI32, nullptr, 0}});
  const Klass* box_arr = heap.klasses().DefineArray(FieldKind::kRef, box);
  const Klass* garbage_k = heap.klasses().DefineArray(FieldKind::kI8);

  std::vector<ObjRef> roots;
  heap.AddRootVector(&roots);
  roots.push_back(heap.AllocArray(box_arr, 50));
  for (int i = 0; i < 50; ++i) {
    ObjRef b = heap.AllocObject(box);
    heap.SetPrim<int32_t>(b, box->FindField("v")->offset, i * 7);
    heap.ASetRef(roots[0], i, b);
  }
  for (int i = 0; i < 3000; ++i) {
    heap.AllocArray(garbage_k, 1024);
  }
  heap.CollectNow();
  for (int i = 0; i < 50; ++i) {
    ObjRef b = heap.AGetRef(roots[0], i);
    ASSERT_NE(b, kNullRef);
    EXPECT_EQ(heap.GetPrim<int32_t>(b, box->FindField("v")->offset), i * 7);
  }
  heap.RemoveRootVector(&roots);
}

TEST_P(HeapTest, RootSlotUpdatedOnMove) {
  Heap heap(Config(1 << 20));
  const Klass* box = heap.klasses().DefineClass("Box", {{"v", FieldKind::kI32, nullptr, 0}});
  const Klass* garbage_k = heap.klasses().DefineArray(FieldKind::kI8);
  ObjRef slot = heap.AllocObject(box);
  heap.SetPrim<int32_t>(slot, box->FindField("v")->offset, 99);
  heap.AddRootSlot(&slot);
  for (int i = 0; i < 5000; ++i) {
    heap.AllocArray(garbage_k, 1024);
  }
  heap.CollectNow();
  EXPECT_EQ(heap.GetPrim<int32_t>(slot, box->FindField("v")->offset), 99);
  heap.RemoveRootSlot(&slot);
}

TEST_P(HeapTest, UsedBytesAndPeakTrack) {
  Heap heap(Config(4 << 20));
  const Klass* arr_k = heap.klasses().DefineArray(FieldKind::kI8);
  std::vector<ObjRef> roots;
  heap.AddRootVector(&roots);
  int64_t before = heap.used_bytes();
  roots.push_back(heap.AllocArray(arr_k, 100000));
  EXPECT_GE(heap.used_bytes(), before + 100000);
  EXPECT_GE(heap.peak_used_bytes(), heap.used_bytes());
  heap.RemoveRootVector(&roots);
}

TEST_P(HeapTest, StatsCountAllocations) {
  Heap heap(Config(1 << 20));
  const Klass* box = heap.klasses().DefineClass("Box", {{"v", FieldKind::kI32, nullptr, 0}});
  heap.ResetStats();
  for (int i = 0; i < 10; ++i) {
    heap.AllocObject(box);
  }
  EXPECT_EQ(heap.stats().allocated_objects, 10);
  EXPECT_EQ(heap.stats().allocated_bytes, 10 * box->instance_size());
}

// Random object-soup stress: build random graphs, mutate references, drop
// roots, and verify checksums survive collections. Catches barrier and
// forwarding bugs that targeted tests miss.
TEST_P(HeapTest, RandomGraphStress) {
  Heap heap(Config(2 << 20));
  const Klass* node = heap.klasses().DefineClass("N", {
                                                          {"tag", FieldKind::kI64, nullptr, 0},
                                                          {"a", FieldKind::kRef, nullptr, 0},
                                                          {"b", FieldKind::kRef, nullptr, 0},
                                                      });
  int tag_off = node->FindField("tag")->offset;
  int a_off = node->FindField("a")->offset;
  int b_off = node->FindField("b")->offset;

  Rng rng(GetParam() == GcKind::kMarkSweep ? 101 : 202);
  std::vector<ObjRef> roots;
  heap.AddRootVector(&roots);
  std::vector<int64_t> tags;

  for (int round = 0; round < 20; ++round) {
    // Grow: add nodes referencing random existing roots.
    for (int i = 0; i < 200; ++i) {
      ObjRef obj = heap.AllocObject(node);
      roots.push_back(obj);
      int64_t tag = static_cast<int64_t>(rng.NextU64());
      tags.push_back(tag);
      heap.SetPrim<int64_t>(obj, tag_off, tag);
      if (!roots.empty()) {
        heap.SetRef(obj, a_off, roots[rng.NextBounded(roots.size())]);
        heap.SetRef(obj, b_off, roots[rng.NextBounded(roots.size())]);
      }
    }
    // Shrink: drop a random prefix... keep indexes aligned with tags.
    size_t keep = roots.size() / 2;
    roots.erase(roots.begin(), roots.begin() + (roots.size() - keep));
    tags.erase(tags.begin(), tags.begin() + (tags.size() - keep));
    heap.CollectNow();
    for (size_t i = 0; i < roots.size(); ++i) {
      ASSERT_EQ(heap.GetPrim<int64_t>(roots[i], tag_off), tags[i]) << "round " << round;
    }
  }
  heap.RemoveRootVector(&roots);
}

INSTANTIATE_TEST_SUITE_P(AllCollectors, HeapTest,
                         ::testing::Values(GcKind::kMarkSweep, GcKind::kGenerational),
                         [](const ::testing::TestParamInfo<GcKind>& info) {
                           return info.param == GcKind::kMarkSweep ? "MarkSweep" : "Generational";
                         });

TEST(GenerationalHeapTest, MinorGcsHappenBeforeMajor) {
  HeapConfig config;
  config.capacity_bytes = 1 << 20;
  config.gc = GcKind::kGenerational;
  Heap heap(config);
  const Klass* arr_k = heap.klasses().DefineArray(FieldKind::kI8);
  for (int i = 0; i < 2000; ++i) {
    heap.AllocArray(arr_k, 512);
  }
  EXPECT_GT(heap.stats().minor_gcs, 0);
}

TEST(GenerationalHeapTest, WriteBarrierCountsStores) {
  HeapConfig config;
  config.capacity_bytes = 1 << 20;
  config.gc = GcKind::kGenerational;
  Heap heap(config);
  const Klass* box = heap.klasses().DefineClass("Box", {{"r", FieldKind::kRef, nullptr, 0}});
  std::vector<ObjRef> roots;
  heap.AddRootVector(&roots);
  roots.push_back(heap.AllocObject(box));
  roots.push_back(heap.AllocObject(box));
  heap.ResetStats();
  heap.SetRef(roots[0], box->FindField("r")->offset, roots[1]);
  EXPECT_EQ(heap.stats().barrier_stores, 1);
  heap.RemoveRootVector(&roots);
}

TEST(GenerationalHeapTest, OldToYoungReferenceSurvivesMinorGc) {
  HeapConfig config;
  config.capacity_bytes = 2 << 20;
  config.gc = GcKind::kGenerational;
  config.promotion_age = 1;  // promote on first survival
  Heap heap(config);
  const Klass* box = heap.klasses().DefineClass("Box", {
                                                           {"v", FieldKind::kI32, nullptr, 0},
                                                           {"r", FieldKind::kRef, nullptr, 0},
                                                       });
  const Klass* garbage_k = heap.klasses().DefineArray(FieldKind::kI8);
  int v_off = box->FindField("v")->offset;
  int r_off = box->FindField("r")->offset;

  std::vector<ObjRef> roots;
  heap.AddRootVector(&roots);
  roots.push_back(heap.AllocObject(box));
  // Force the root object into the old generation.
  heap.CollectNow();
  // Young object referenced ONLY from the old object: the write barrier's
  // remembered set is the only thing keeping it alive across a minor GC.
  ObjRef young = heap.AllocObject(box);
  heap.SetPrim<int32_t>(young, v_off, 1234);
  heap.SetRef(roots[0], r_off, young);
  for (int i = 0; i < 3000; ++i) {
    heap.AllocArray(garbage_k, 512);
  }
  ObjRef child = heap.GetRef(roots[0], r_off);
  ASSERT_NE(child, kNullRef);
  EXPECT_EQ(heap.GetPrim<int32_t>(child, v_off), 1234);
  heap.RemoveRootVector(&roots);
}

TEST(GenerationalHeapTest, HugeAllocationGoesToOldGen) {
  HeapConfig config;
  config.capacity_bytes = 8 << 20;
  config.gc = GcKind::kGenerational;
  Heap heap(config);
  const Klass* arr_k = heap.klasses().DefineArray(FieldKind::kI8);
  std::vector<ObjRef> roots;
  heap.AddRootVector(&roots);
  int64_t minor_before = heap.stats().minor_gcs;
  roots.push_back(heap.AllocArray(arr_k, 2 << 20));  // bigger than eden/4
  EXPECT_EQ(heap.stats().minor_gcs, minor_before);
  EXPECT_EQ(heap.ArrayLength(roots[0]), 2 << 20);
  heap.RemoveRootVector(&roots);
}

TEST(GenerationalHeapTest, GcTimeIsChargedToPhase) {
  HeapConfig config;
  config.capacity_bytes = 1 << 20;
  config.gc = GcKind::kGenerational;
  Heap heap(config);
  PhaseTimes times;
  heap.set_phase_times(&times);
  const Klass* arr_k = heap.klasses().DefineArray(FieldKind::kI8);
  for (int i = 0; i < 5000; ++i) {
    heap.AllocArray(arr_k, 512);
  }
  EXPECT_GT(times.Get(Phase::kGc), 0);
  EXPECT_EQ(times.Get(Phase::kGc), heap.stats().gc_nanos);
}

// ---------------------------------------------------------------------------
// Scratch mark/rewind
// ---------------------------------------------------------------------------

struct ScratchHeap {
  Heap heap;
  const Klass* box;
  int v_off;
  int r_off;
  std::vector<ObjRef> roots;

  static HeapConfig Config(GcKind gc) {
    HeapConfig config;
    config.capacity_bytes = 4u << 20;
    config.gc = gc;
    return config;
  }

  explicit ScratchHeap(GcKind gc = GcKind::kGenerational) : heap(Config(gc)) {
    box = heap.klasses().DefineClass("Box", {
                                                {"v", FieldKind::kI64, nullptr, 0},
                                                {"r", FieldKind::kRef, nullptr, 0},
                                            });
    v_off = box->FindField("v")->offset;
    r_off = box->FindField("r")->offset;
    heap.AddRootVector(&roots);
  }
  ~ScratchHeap() { heap.RemoveRootVector(&roots); }

  // Two linked scratch boxes, the second holding `v`; returns the first.
  ObjRef BuildPair(int64_t v) {
    ObjRef inner = heap.AllocObject(box);
    heap.SetPrim<int64_t>(inner, v_off, v);
    roots.push_back(inner);
    ObjRef outer = heap.AllocObject(box);
    heap.SetRef(outer, r_off, roots.back());
    roots.pop_back();
    return outer;
  }
};

TEST(ScratchHeapTest, RewindFreesEverythingSinceTheMark) {
  ScratchHeap s;
  s.roots.push_back(s.heap.AllocObject(s.box));  // live before the mark
  const int64_t used = s.heap.used_bytes();
  for (int i = 0; i < 1000; ++i) {
    Heap::ScratchMark mark = s.heap.MarkScratch();
    s.BuildPair(i);
    ASSERT_TRUE(s.heap.RewindScratch(mark)) << i;
    ASSERT_EQ(s.heap.used_bytes(), used);
  }
  EXPECT_EQ(s.heap.stats().minor_gcs + s.heap.stats().major_gcs, 0);
  // Rewound bytes (0xA5-poisoned under ASan) come back zeroed.
  ObjRef fresh = s.heap.AllocObject(s.box);
  EXPECT_EQ(s.heap.GetPrim<int64_t>(fresh, s.v_off), 0);
  EXPECT_EQ(s.heap.GetRef(fresh, s.r_off), kNullRef);
}

TEST(ScratchHeapTest, StoreIntoAnObjectFromBeforeTheMarkForbidsRewind) {
  ScratchHeap s;
  s.roots.push_back(s.heap.AllocObject(s.box));  // young, but older than the mark
  Heap::ScratchMark mark = s.heap.MarkScratch();
  ObjRef pair = s.BuildPair(7);
  s.heap.SetRef(s.roots[0], s.r_off, pair);
  EXPECT_FALSE(s.heap.RewindScratch(mark));
  s.heap.CollectNow();
  ObjRef outer = s.heap.GetRef(s.roots[0], s.r_off);
  EXPECT_EQ(s.heap.GetPrim<int64_t>(s.heap.GetRef(outer, s.r_off), s.v_off), 7);
}

TEST(ScratchHeapTest, StoreIntoAnAlreadyRememberedOldObjectForbidsRewind) {
  ScratchHeap s;
  s.roots.push_back(s.heap.AllocObject(s.box));
  s.heap.CollectNow();
  s.heap.CollectNow();  // promoted: the holder is in the old generation
  ASSERT_GT(s.heap.stats().promoted_bytes, 0);
  s.heap.SetRef(s.roots[0], s.r_off, s.heap.AllocObject(s.box));  // now remembered
  Heap::ScratchMark mark = s.heap.MarkScratch();
  s.heap.SetRef(s.roots[0], s.r_off, s.BuildPair(9));  // no new remembered-set entry
  EXPECT_FALSE(s.heap.RewindScratch(mark));
  s.heap.CollectNow();
  ObjRef outer = s.heap.GetRef(s.roots[0], s.r_off);
  EXPECT_EQ(s.heap.GetPrim<int64_t>(s.heap.GetRef(outer, s.r_off), s.v_off), 9);
}

TEST(ScratchHeapTest, CollectionOrTenuredAllocationForbidsRewind) {
  ScratchHeap s;
  Heap::ScratchMark mark = s.heap.MarkScratch();
  s.BuildPair(1);
  s.heap.CollectNow();
  EXPECT_FALSE(s.heap.RewindScratch(mark));

  const Klass* bytes = s.heap.klasses().DefineArray(FieldKind::kI8);
  mark = s.heap.MarkScratch();
  s.heap.AllocArray(bytes, 1 << 20);  // larger than eden/4: tenured at birth
  EXPECT_FALSE(s.heap.RewindScratch(mark));
}

TEST(ScratchHeapTest, OnlyTheGenerationalHeapRewinds) {
  ScratchHeap s(GcKind::kMarkSweep);
  const int64_t used = s.heap.used_bytes();
  Heap::ScratchMark mark = s.heap.MarkScratch();
  s.BuildPair(3);
  EXPECT_FALSE(s.heap.RewindScratch(mark));
  EXPECT_GT(s.heap.used_bytes(), used);
}

TEST(MarkSweepHeapTest, FreeListReuse) {
  HeapConfig config;
  config.capacity_bytes = 1 << 20;
  config.gc = GcKind::kMarkSweep;
  Heap heap(config);
  const Klass* arr_k = heap.klasses().DefineArray(FieldKind::kI8);
  // Fill the heap with garbage, collect, then allocate again: the second
  // wave must be served from the free list without OOM.
  for (int i = 0; i < 3000; ++i) {
    heap.AllocArray(arr_k, 1024);
  }
  int64_t major_gcs = heap.stats().major_gcs;
  EXPECT_GT(major_gcs, 0);
  for (int i = 0; i < 3000; ++i) {
    heap.AllocArray(arr_k, 1024);
  }
  SUCCEED();
}

}  // namespace
}  // namespace gerenuk
