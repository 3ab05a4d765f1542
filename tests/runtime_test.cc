// Unit and property tests for the managed mini-runtime: klass layout,
// allocation, field/array access, write barriers, and both garbage
// collectors (mark-sweep and generational scavenge).
#include <gtest/gtest.h>

#include <vector>

#include "src/runtime/heap.h"
#include "src/runtime/klass.h"
#include "src/runtime/roots.h"
#include "src/support/poison.h"
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

TEST(MarkSweepHeapTest, FreeListFitNeverLeavesAHeaderlessTail) {
  HeapConfig config;
  config.capacity_bytes = 64 << 10;
  config.gc = GcKind::kMarkSweep;
  Heap heap(config);
  const Klass* pair = heap.klasses().DefineClass("Pair", {
                                                             {"a", FieldKind::kI64, nullptr, 0},
                                                             {"b", FieldKind::kI64, nullptr, 0},
                                                         });
  const Klass* box = heap.klasses().DefineClass("Box", {{"v", FieldKind::kI64, nullptr, 0}});
  ASSERT_EQ(pair->instance_size() - box->instance_size(), 8);
  const int v_off = box->FindField("v")->offset;
  std::vector<ObjRef> live;
  heap.AddRootVector(&live);
  auto add_box = [&] {
    ObjRef obj = heap.AllocObject(box);
    heap.SetPrim<int64_t>(obj, v_off, static_cast<int64_t>(live.size()));
    live.push_back(obj);
  };
  const Klass* bytes = heap.klasses().DefineArray(FieldKind::kI8);
  // Dead pairs between live boxes, and now and then a dead 1 KB array, until
  // the bump space runs out: the collection makes each of them a free block.
  for (int i = 0; heap.stats().major_gcs == 0; ++i) {
    heap.AllocObject(pair);
    add_box();
    if (i % 8 == 0) {
      heap.AllocArray(bytes, 1000);
    }
  }
  // Boxes now come from the free list. A box fits a pair's block with 8
  // bytes to spare, too few for a free block's header, so it must take an
  // array's block instead: the sweeps below walk the heap object by object
  // and must never meet a headerless tail.
  for (int i = 0; i < 200; ++i) {
    add_box();
  }
  heap.CollectNow();
  for (int i = 0; i < 200; ++i) {
    add_box();
  }
  heap.CollectNow();
  for (size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(heap.GetPrim<int64_t>(live[i], v_off), static_cast<int64_t>(i)) << "box " << i;
  }
  heap.RemoveRootVector(&live);
}

// ---------------------------------------------------------------------------
// Root registration
// ---------------------------------------------------------------------------

TEST_P(HeapTest, RootVectorsMayBeRemovedInAnyOrder) {
  Heap heap(Config(1 << 20));
  const Klass* box = heap.klasses().DefineClass("Box", {{"v", FieldKind::kI64, nullptr, 0}});
  const int v_off = box->FindField("v")->offset;
  std::vector<std::vector<ObjRef>> sets(4);
  for (size_t i = 0; i < sets.size(); ++i) {
    heap.AddRootVector(&sets[i]);
    sets[i].push_back(heap.AllocObject(box));
    heap.SetPrim<int64_t>(sets[i][0], v_off, static_cast<int64_t>(i));
  }
  // Neither LIFO nor FIFO: the first, then one from the middle.
  heap.RemoveRootVector(&sets[0]);
  heap.RemoveRootVector(&sets[2]);
  EXPECT_EQ(heap.registered_roots(), 2u);
  heap.CollectNow();
  EXPECT_EQ(heap.GetPrim<int64_t>(sets[1][0], v_off), 1);
  EXPECT_EQ(heap.GetPrim<int64_t>(sets[3][0], v_off), 3);
  heap.RemoveRootVector(&sets[3]);
  heap.RemoveRootVector(&sets[1]);
  EXPECT_EQ(heap.registered_roots(), 0u);
  EXPECT_DEATH(heap.RemoveRootVector(&sets[1]), "CHECK");
}

// ---------------------------------------------------------------------------
// Reset
// ---------------------------------------------------------------------------

// A heap mirrored into a tracker that already holds another component's
// bytes, so a Reset must hand back exactly the heap's own share.
struct ResetHeap {
  static constexpr int64_t kOtherBytes = 12345;

  MemoryTracker tracker;
  Heap heap;
  const Klass* box;
  const Klass* bytes;
  int v_off;
  int r_off;
  ObjRef first;  // where a just-built heap puts its first object

  static HeapConfig Config(GcKind gc) {
    HeapConfig config;
    config.capacity_bytes = 2u << 20;
    config.gc = gc;
    config.promotion_age = 1;
    return config;
  }

  explicit ResetHeap(GcKind gc) : heap(Config(gc)) {
    tracker.Allocated(kOtherBytes);
    heap.set_memory_tracker(&tracker);
    box = heap.klasses().DefineClass("Box", {
                                                {"v", FieldKind::kI64, nullptr, 0},
                                                {"r", FieldKind::kRef, nullptr, 0},
                                            });
    bytes = heap.klasses().DefineArray(FieldKind::kI8);
    v_off = box->FindField("v")->offset;
    r_off = box->FindField("r")->offset;
    first = heap.AllocObject(box);
  }

  // A box with no zero field: a non-zero value and a reference to itself.
  ObjRef DirtyBox() {
    ObjRef obj = heap.AllocObject(box);
    heap.SetPrim<uint64_t>(obj, v_off, 0xA1A2A3A4A5A6A7A8ull);
    heap.SetRef(obj, r_off, obj);
    return obj;
  }

  // What every Reset test ends with: an empty heap whose tracker is back at
  // its pre-heap value, that allocates where a just-built heap does, hands
  // out zeroed objects and keeps working through collections.
  void ExpectJustBuilt() {
    EXPECT_EQ(heap.used_bytes(), 0);
    EXPECT_EQ(tracker.live_bytes(), kOtherBytes);
    EXPECT_EQ(heap.stats().allocated_objects, 0);
    EXPECT_FALSE(heap.in_epoch());
    std::vector<ObjRef> roots = {heap.AllocObject(box)};
    heap.AddRootVector(&roots);
    EXPECT_EQ(roots[0], first);
    EXPECT_EQ(heap.GetPrim<int64_t>(roots[0], v_off), 0);
    EXPECT_EQ(heap.GetRef(roots[0], r_off), kNullRef);
    for (int i = 0; i < 4000; ++i) {
      DirtyBox();
      heap.AllocArray(bytes, 1024);
    }
    EXPECT_GT(heap.stats().minor_gcs + heap.stats().major_gcs, 0);
    EXPECT_EQ(heap.GetPrim<int64_t>(roots[0], v_off), 0);
    EXPECT_EQ(heap.GetRef(roots[0], r_off), kNullRef);
    heap.RemoveRootVector(&roots);
  }
};

TEST(HeapResetTest, AfterAllocationMinorGcAndPromotion) {
  ResetHeap h(GcKind::kGenerational);
  {
    std::vector<ObjRef> roots = {h.DirtyBox()};
    ScopedRootVector scope(h.heap, &roots);
    for (int i = 0; i < 4000; ++i) {
      h.DirtyBox();
      h.heap.AllocArray(h.bytes, 256);
    }
  }
  ASSERT_GT(h.heap.stats().minor_gcs, 0);
  ASSERT_GT(h.heap.stats().promoted_bytes, 0);
  h.heap.Reset();
  h.ExpectJustBuilt();
}

TEST(HeapResetTest, AfterARememberedSetStore) {
  ResetHeap h(GcKind::kGenerational);
  {
    std::vector<ObjRef> roots = {h.DirtyBox()};
    ScopedRootVector scope(h.heap, &roots);
    h.heap.CollectNow();  // promotion_age 1: the holder is now old
    h.heap.SetRef(roots[0], h.r_off, h.DirtyBox());  // old-to-young: remembered
  }
  // A remembered entry that survived the reset would be scanned as an old
  // object by the next minor GC, in bytes that no longer hold one.
  h.heap.Reset();
  h.ExpectJustBuilt();
}

TEST(HeapResetTest, AfterAMarkSweepFreeList) {
  ResetHeap h(GcKind::kMarkSweep);
  std::vector<ObjRef> roots;
  {
    ScopedRootVector scope(h.heap, &roots);
    for (int i = 0; i < 3000; ++i) {
      ObjRef obj = h.DirtyBox();
      if (i % 2 == 0) {
        roots.push_back(obj);
      }
      h.heap.AllocArray(h.bytes, 64);
    }
    h.heap.CollectNow();  // the unrooted half becomes free-list blocks
  }
  ASSERT_GT(h.heap.stats().major_gcs, 0);
  h.heap.Reset();
  h.ExpectJustBuilt();
}

TEST(HeapResetTest, InsideARegionEpoch) {
  ResetHeap h(GcKind::kRegion);
  h.heap.EpochStart();
  ObjRef outside = h.first;
  h.heap.SetRef(outside, h.r_off, h.DirtyBox());  // recorded as an escape
  for (int i = 0; i < 100; ++i) {
    h.DirtyBox();
  }
  h.heap.Reset();
  EXPECT_FALSE(h.heap.in_epoch());
  h.ExpectJustBuilt();
  h.heap.EpochStart();  // epochs start again on the reset heap
  h.heap.EpochEnd();
}

TEST(HeapResetTest, DropsAnOpenScratchMark) {
  ResetHeap h(GcKind::kGenerational);
  Heap::ScratchMark mark = h.heap.MarkScratch();
  h.DirtyBox();
  h.heap.Reset();
  // A mark from before the reset must not rewind the reset heap.
  h.DirtyBox();
  EXPECT_FALSE(h.heap.RewindScratch(mark));
  h.heap.Reset();
  h.ExpectJustBuilt();
}

// The arena under a heap's first object.
const uint8_t* ArenaOf(ResetHeap& h) {
  const ObjRef probe = h.heap.AllocArray(h.bytes, 0);
  return h.heap.PrimArrayData(probe) - probe - h.bytes->elements_offset();
}

TEST(HeapArenaTest, ANewHeapReusesADestroyedHeapsArenaAsIfJustBuilt) {
  auto dirty = std::make_unique<ResetHeap>(GcKind::kGenerational);
  const uint8_t* arena = ArenaOf(*dirty);
  for (int i = 0; i < 2000; ++i) {
    dirty->DirtyBox();
  }
  dirty.reset();
  // Same capacity: the arena comes back with the last heap's bytes in it.
  ResetHeap h(GcKind::kGenerational);
  EXPECT_EQ(ArenaOf(h), arena);
  h.heap.Reset();
  h.ExpectJustBuilt();
}

TEST(HeapResetTest, WithARegisteredRootDies) {
  ResetHeap h(GcKind::kGenerational);
  std::vector<ObjRef> roots;
  ScopedRootVector scope(h.heap, &roots);
  EXPECT_DEATH(h.heap.Reset(), "registered roots");
}

#ifdef __SANITIZE_ADDRESS__
// Under ASan a new arena and every range a reset hands back read 0xA5, so
// code that read a byte it never wrote would see the pattern, not a zero.
TEST(HeapResetTest, UnwrittenAndResetArenaBytesReadPoisoned) {
  ResetHeap h(GcKind::kGenerational);
  const ObjRef dirty = h.DirtyBox();
  const ObjRef probe = h.heap.AllocArray(h.bytes, 0);
  const uint8_t* arena = h.heap.PrimArrayData(probe) - probe - h.bytes->elements_offset();
  const ObjRef end = probe + static_cast<ObjRef>(h.bytes->ArraySize(0));
  EXPECT_EQ(arena[end + 64], kPoisonByte);  // never allocated
  h.heap.Reset();
  EXPECT_EQ(arena[dirty + h.v_off], kPoisonByte);  // in use before the reset
  EXPECT_EQ(arena[h.first], kPoisonByte);
}
#endif

}  // namespace
}  // namespace gerenuk
