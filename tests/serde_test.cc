// Tests for the serde substrate: well-known types, the Kryo-like heap
// serializer, the Gerenuk inline serializer, and the Figure 4 layout
// accounting (object-based vs inlined representation of LabeledPoint[3]).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/runtime/heap.h"
#include "src/runtime/roots.h"
#include "src/serde/heap_serializer.h"
#include "src/serde/inline_serializer.h"
#include "src/serde/wellknown.h"
#include "src/support/rng.h"

namespace gerenuk {
namespace {

HeapConfig TestConfig() {
  HeapConfig config;
  config.capacity_bytes = 16 << 20;
  config.gc = GcKind::kGenerational;
  return config;
}

// Defines the paper's running example (Fig. 3/4): LabeledPoint holding a
// label and a DenseVector of doubles.
struct LabeledPointTypes {
  const Klass* double_array;
  const Klass* dense_vector;
  const Klass* labeled_point;
  const Klass* lp_array;

  explicit LabeledPointTypes(Heap& heap) {
    KlassRegistry& reg = heap.klasses();
    double_array = reg.DefineArray(FieldKind::kF64);
    dense_vector = reg.DefineClass("DenseVector", {
                                                      {"numActives", FieldKind::kI32, nullptr, 0},
                                                      {"values", FieldKind::kRef, double_array, 0},
                                                  });
    labeled_point =
        reg.DefineClass("LabeledPoint", {
                                            {"label", FieldKind::kF64, nullptr, 0},
                                            {"features", FieldKind::kRef, dense_vector, 0},
                                        });
    lp_array = reg.DefineArray(FieldKind::kRef, labeled_point);
  }
};

// Builds one LabeledPoint with `n` feature values; returns a rooted slot.
ObjRef BuildLabeledPoint(Heap& heap, const LabeledPointTypes& types, RootScope& scope,
                         double label, const std::vector<double>& values) {
  size_t arr = scope.Push(heap.AllocArray(types.double_array, values.size()));
  for (size_t i = 0; i < values.size(); ++i) {
    heap.ASet<double>(scope.Get(arr), i, values[i]);
  }
  size_t vec = scope.Push(heap.AllocObject(types.dense_vector));
  heap.SetPrim<int32_t>(scope.Get(vec), types.dense_vector->FindField("numActives")->offset,
                        static_cast<int32_t>(values.size()));
  heap.SetRef(scope.Get(vec), types.dense_vector->FindField("values")->offset, scope.Get(arr));
  size_t lp = scope.Push(heap.AllocObject(types.labeled_point));
  heap.SetPrim<double>(scope.Get(lp), types.labeled_point->FindField("label")->offset, label);
  heap.SetRef(scope.Get(lp), types.labeled_point->FindField("features")->offset, scope.Get(vec));
  return scope.Get(lp);
}

TEST(WellKnownTest, StringRoundTrip) {
  Heap heap(TestConfig());
  WellKnown wk(heap);
  RootScope scope(heap);
  size_t s = scope.Push(wk.AllocString("hello gerenuk"));
  EXPECT_EQ(wk.GetString(scope.Get(s)), "hello gerenuk");
  EXPECT_EQ(wk.StringLength(scope.Get(s)), 13);
}

TEST(WellKnownTest, EmptyString) {
  Heap heap(TestConfig());
  WellKnown wk(heap);
  RootScope scope(heap);
  size_t s = scope.Push(wk.AllocString(""));
  EXPECT_EQ(wk.GetString(scope.Get(s)), "");
}

TEST(WellKnownTest, BoxedValues) {
  Heap heap(TestConfig());
  WellKnown wk(heap);
  RootScope scope(heap);
  size_t i = scope.Push(wk.AllocBoxedInt(-7));
  size_t l = scope.Push(wk.AllocBoxedLong(1LL << 40));
  size_t d = scope.Push(wk.AllocBoxedDouble(2.5));
  EXPECT_EQ(wk.UnboxInt(scope.Get(i)), -7);
  EXPECT_EQ(wk.UnboxLong(scope.Get(l)), 1LL << 40);
  EXPECT_EQ(wk.UnboxDouble(scope.Get(d)), 2.5);
}

TEST(WellKnownTest, ConstructionIsIdempotent) {
  Heap heap(TestConfig());
  WellKnown a(heap);
  WellKnown b(heap);
  EXPECT_EQ(a.string_klass(), b.string_klass());
  EXPECT_EQ(a.boxed_int(), b.boxed_int());
}

TEST(WellKnownTest, Tuple2Definition) {
  Heap heap(TestConfig());
  WellKnown wk(heap);
  const Klass* t = wk.DefineTuple2("Tuple2<String,f64>", FieldKind::kRef, wk.string_klass(),
                                   FieldKind::kF64, nullptr);
  EXPECT_EQ(t->FindField("_1")->kind, FieldKind::kRef);
  EXPECT_EQ(t->FindField("_2")->kind, FieldKind::kF64);
  EXPECT_EQ(wk.DefineTuple2("Tuple2<String,f64>", FieldKind::kRef, wk.string_klass(),
                            FieldKind::kF64, nullptr),
            t);
}

TEST(HeapSerializerTest, LabeledPointRoundTrip) {
  Heap heap(TestConfig());
  LabeledPointTypes types(heap);
  RootScope scope(heap);
  ObjRef lp = BuildLabeledPoint(heap, types, scope, 1.0, {0.5, -1.5, 2.0});
  size_t lp_slot = scope.Push(lp);

  HeapSerializer serde(heap);
  ByteBuffer buf;
  serde.Serialize(scope.Get(lp_slot), types.labeled_point, buf);

  ByteReader reader(buf.bytes());
  size_t copy = scope.Push(serde.Deserialize(types.labeled_point, reader));
  EXPECT_TRUE(reader.AtEnd());

  ObjRef c = scope.Get(copy);
  EXPECT_EQ(heap.GetPrim<double>(c, types.labeled_point->FindField("label")->offset), 1.0);
  ObjRef vec = heap.GetRef(c, types.labeled_point->FindField("features")->offset);
  ASSERT_NE(vec, kNullRef);
  EXPECT_EQ(heap.GetPrim<int32_t>(vec, types.dense_vector->FindField("numActives")->offset), 3);
  ObjRef arr = heap.GetRef(vec, types.dense_vector->FindField("values")->offset);
  ASSERT_EQ(heap.ArrayLength(arr), 3);
  EXPECT_EQ(heap.AGet<double>(arr, 0), 0.5);
  EXPECT_EQ(heap.AGet<double>(arr, 1), -1.5);
  EXPECT_EQ(heap.AGet<double>(arr, 2), 2.0);
}

TEST(HeapSerializerTest, NullRefsSurvive) {
  Heap heap(TestConfig());
  LabeledPointTypes types(heap);
  RootScope scope(heap);
  size_t lp = scope.Push(heap.AllocObject(types.labeled_point));  // features == null

  HeapSerializer serde(heap);
  ByteBuffer buf;
  serde.Serialize(scope.Get(lp), types.labeled_point, buf);
  ByteReader reader(buf.bytes());
  size_t copy = scope.Push(serde.Deserialize(types.labeled_point, reader));
  EXPECT_EQ(heap.GetRef(scope.Get(copy), types.labeled_point->FindField("features")->offset),
            kNullRef);
}

TEST(HeapSerializerTest, RefArrayRoundTrip) {
  Heap heap(TestConfig());
  LabeledPointTypes types(heap);
  RootScope scope(heap);
  size_t arr = scope.Push(heap.AllocArray(types.lp_array, 4));
  for (int i = 0; i < 4; ++i) {
    ObjRef lp = BuildLabeledPoint(heap, types, scope, i, {i * 1.0, i * 2.0});
    heap.ASetRef(scope.Get(arr), i, lp);
  }
  HeapSerializer serde(heap);
  ByteBuffer buf;
  serde.Serialize(scope.Get(arr), types.lp_array, buf);
  ByteReader reader(buf.bytes());
  size_t copy = scope.Push(serde.Deserialize(types.lp_array, reader));
  ASSERT_EQ(heap.ArrayLength(scope.Get(copy)), 4);
  for (int i = 0; i < 4; ++i) {
    ObjRef lp = heap.AGetRef(scope.Get(copy), i);
    EXPECT_EQ(heap.GetPrim<double>(lp, types.labeled_point->FindField("label")->offset), i);
  }
}

TEST(HeapSerializerTest, SurvivesGcDuringDeserialization) {
  // A small heap forces collections while the object graph is being built;
  // the serializer's internal rooting must keep partial graphs alive.
  HeapConfig config;
  config.capacity_bytes = 1 << 20;
  config.gc = GcKind::kGenerational;
  Heap heap(config);
  LabeledPointTypes types(heap);
  HeapSerializer serde(heap);

  ByteBuffer buf;
  {
    RootScope scope(heap);
    ObjRef lp = BuildLabeledPoint(heap, types, scope, 3.5, std::vector<double>(1000, 1.25));
    size_t slot = scope.Push(lp);
    serde.Serialize(scope.Get(slot), types.labeled_point, buf);
  }
  RootScope scope(heap);
  for (int round = 0; round < 50; ++round) {
    ByteReader reader(buf.bytes());
    size_t copy = scope.Push(serde.Deserialize(types.labeled_point, reader));
    ObjRef vec = heap.GetRef(scope.Get(copy), types.labeled_point->FindField("features")->offset);
    ObjRef values = heap.GetRef(vec, types.dense_vector->FindField("values")->offset);
    ASSERT_EQ(heap.ArrayLength(values), 1000);
    ASSERT_EQ(heap.AGet<double>(values, 999), 1.25);
    scope.Pop();  // drop the copy; it becomes garbage
  }
  EXPECT_GT(heap.stats().minor_gcs, 0);
}

TEST(HeapSerializerTest, StatsCountObjectsAndBytes) {
  Heap heap(TestConfig());
  LabeledPointTypes types(heap);
  RootScope scope(heap);
  ObjRef lp = BuildLabeledPoint(heap, types, scope, 1.0, {2.0, 3.0});
  size_t slot = scope.Push(lp);
  HeapSerializer serde(heap);
  ByteBuffer buf;
  serde.Serialize(scope.Get(slot), types.labeled_point, buf);
  EXPECT_EQ(serde.stats().objects, 3);  // LabeledPoint + DenseVector + double[]
  EXPECT_EQ(serde.stats().wire_bytes, static_cast<int64_t>(buf.size()));
}

TEST(InlineSerializerTest, BodySizeMatchesPaperExample) {
  // Paper §2: an inlined LabeledPoint holds 3 ints and 3 doubles = 36 bytes
  // when the vector has 2 values (size prefix + label + numActives + length
  // + 2 doubles); an array of three takes 4 + 3*36 = 112 bytes.
  Heap heap(TestConfig());
  LabeledPointTypes types(heap);
  RootScope scope(heap);
  InlineSerializer inline_serde(heap);

  size_t arr = scope.Push(heap.AllocArray(types.lp_array, 3));
  for (int i = 0; i < 3; ++i) {
    ObjRef lp = BuildLabeledPoint(heap, types, scope, i, {1.0, 2.0});
    heap.ASetRef(scope.Get(arr), i, lp);
  }
  // Body of one LabeledPoint: label(8) + numActives(4) + len(4) + 2*8 = 32;
  // the per-record size prefix brings a stored record to 36 — the paper's
  // "3 int and 3 double values, taking 36 bytes".
  ObjRef lp0 = heap.AGetRef(scope.Get(arr), 0);
  EXPECT_EQ(inline_serde.BodySize(lp0, types.labeled_point), 32);
  ByteBuffer rec;
  inline_serde.WriteRecord(lp0, types.labeled_point, rec);
  EXPECT_EQ(rec.size(), 36u);

  // Whole array as one inlined structure: LabeledPoint is variable-size, so
  // each element carries its size prefix: 4 + 3*36 = 112 bytes, exactly the
  // paper's Figure 4 arithmetic.
  EXPECT_EQ(inline_serde.BodySize(scope.Get(arr), types.lp_array), 112);
}

TEST(InlineSerializerTest, Figure4HeapVsInlineOverhead) {
  // The object-based representation of LabeledPoint[3] must cost
  // header + pointer overhead on top of the payload: the paper reports the
  // JVM overhead as roughly 2x the payload size. With our exact layout:
  //   1 ref-array (16 hdr + 4 len + pad + 3 refs) + 3 LabeledPoint
  //   (16 hdr + 8 label + 8 ref) + 3 DenseVector (16 + 4 + pad + 8 ref) +
  //   3 double[2] (16 + 4 len + pad + 16) = 10 headers, 9 refs.
  Heap heap(TestConfig());
  LabeledPointTypes types(heap);
  RootScope scope(heap);
  HeapSerializer heap_serde(heap);
  InlineSerializer inline_serde(heap);

  size_t arr = scope.Push(heap.AllocArray(types.lp_array, 3));
  for (int i = 0; i < 3; ++i) {
    ObjRef lp = BuildLabeledPoint(heap, types, scope, i, {1.0, 2.0});
    heap.ASetRef(scope.Get(arr), i, lp);
  }
  int64_t heap_bytes = heap_serde.MeasureHeapBytes(scope.Get(arr), types.lp_array);
  int64_t inline_bytes = 4 + 3 * 36;  // array length + 3 records w/ size field

  // Exact layout accounting: array 48 + 3*(32 + 32 + 40) = 360 bytes.
  EXPECT_EQ(heap_bytes, 360);
  // Overhead is ~2.2x the 112-byte payload — the paper's "nearly 2x".
  double overhead_ratio =
      static_cast<double>(heap_bytes - inline_bytes) / static_cast<double>(inline_bytes);
  EXPECT_GT(overhead_ratio, 1.8);
  EXPECT_LT(overhead_ratio, 2.6);
}

TEST(InlineSerializerTest, RecordRoundTripThroughHeap) {
  Heap heap(TestConfig());
  LabeledPointTypes types(heap);
  RootScope scope(heap);
  InlineSerializer inline_serde(heap);

  ObjRef lp = BuildLabeledPoint(heap, types, scope, 7.5, {1.0, 2.0, 3.0, 4.0});
  size_t slot = scope.Push(lp);
  ByteBuffer buf;
  inline_serde.WriteRecord(scope.Get(slot), types.labeled_point, buf);

  ByteReader reader(buf.bytes());
  size_t copy = scope.Push(inline_serde.ReadRecord(types.labeled_point, reader));
  EXPECT_TRUE(reader.AtEnd());
  ObjRef c = scope.Get(copy);
  EXPECT_EQ(heap.GetPrim<double>(c, types.labeled_point->FindField("label")->offset), 7.5);
  ObjRef vec = heap.GetRef(c, types.labeled_point->FindField("features")->offset);
  ObjRef values = heap.GetRef(vec, types.dense_vector->FindField("values")->offset);
  ASSERT_EQ(heap.ArrayLength(values), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(heap.AGet<double>(values, i), i + 1.0);
  }
}

TEST(InlineSerializerTest, ReserializationIsIdentity) {
  // Property: deserialize(bytes) then re-serialize must reproduce `bytes`
  // exactly (DESIGN.md invariant 1).
  Heap heap(TestConfig());
  LabeledPointTypes types(heap);
  RootScope scope(heap);
  InlineSerializer inline_serde(heap);
  Rng rng(42);

  for (int round = 0; round < 20; ++round) {
    std::vector<double> values;
    size_t n = rng.NextBounded(10);
    for (size_t i = 0; i < n; ++i) {
      values.push_back(rng.NextDouble());
    }
    ObjRef lp = BuildLabeledPoint(heap, types, scope, rng.NextDouble(), values);
    size_t slot = scope.Push(lp);
    ByteBuffer original;
    inline_serde.WriteRecord(scope.Get(slot), types.labeled_point, original);

    ByteReader reader(original.bytes());
    size_t copy = scope.Push(inline_serde.ReadRecord(types.labeled_point, reader));
    ByteBuffer again;
    inline_serde.WriteRecord(scope.Get(copy), types.labeled_point, again);
    ASSERT_EQ(original.bytes(), again.bytes()) << "round " << round;
  }
}

TEST(InlineSerializerTest, NullRefIsFatal) {
  Heap heap(TestConfig());
  LabeledPointTypes types(heap);
  RootScope scope(heap);
  InlineSerializer inline_serde(heap);
  size_t lp = scope.Push(heap.AllocObject(types.labeled_point));  // features == null
  ByteBuffer buf;
  EXPECT_DEATH(inline_serde.WriteRecord(scope.Get(lp), types.labeled_point, buf),
               "cannot represent null");
}

TEST(InlineSerializerTest, StringInlinesAsLengthPlusBytes) {
  Heap heap(TestConfig());
  WellKnown wk(heap);
  RootScope scope(heap);
  InlineSerializer inline_serde(heap);
  size_t s = scope.Push(wk.AllocString("abc"));
  // String body = its byte-array body = [len:4]["abc"] = 7 bytes.
  EXPECT_EQ(inline_serde.BodySize(scope.Get(s), wk.string_klass()), 7);
  ByteBuffer buf;
  inline_serde.WriteRecord(scope.Get(s), wk.string_klass(), buf);
  ASSERT_EQ(buf.size(), 11u);
  ByteReader reader(buf.bytes());
  EXPECT_EQ(reader.ReadU32(), 7u);   // body size
  EXPECT_EQ(reader.ReadI32(), 3);    // char count
  EXPECT_EQ(reader.ReadU8(), 'a');
}

TEST(InlineSerializerTest, HeapAndInlineAgreeAfterCrossRoundTrip) {
  // wire -> heap objects -> inline bytes -> heap objects -> wire must be a
  // fixed point across both serializers.
  Heap heap(TestConfig());
  LabeledPointTypes types(heap);
  RootScope scope(heap);
  HeapSerializer heap_serde(heap);
  InlineSerializer inline_serde(heap);

  ObjRef lp = BuildLabeledPoint(heap, types, scope, -2.5, {9.0, 8.0, 7.0});
  size_t slot = scope.Push(lp);
  ByteBuffer kryo1;
  heap_serde.Serialize(scope.Get(slot), types.labeled_point, kryo1);

  ByteBuffer inl;
  inline_serde.WriteRecord(scope.Get(slot), types.labeled_point, inl);
  ByteReader inline_reader(inl.bytes());
  size_t rebuilt = scope.Push(inline_serde.ReadRecord(types.labeled_point, inline_reader));

  ByteBuffer kryo2;
  heap_serde.Serialize(scope.Get(rebuilt), types.labeled_point, kryo2);
  EXPECT_EQ(kryo1.bytes(), kryo2.bytes());
}

// The element-wise array encoding the inline serializer is specified by:
// [len:i32] then every element through the typed ByteBuffer writer.
void ReferenceWriteArrayRecord(Heap& heap, ObjRef arr, FieldKind kind, ByteBuffer& out) {
  ByteBuffer body;
  int64_t len = heap.ArrayLength(arr);
  body.WriteI32(static_cast<int32_t>(len));
  for (int64_t i = 0; i < len; ++i) {
    switch (kind) {
      case FieldKind::kBool:
      case FieldKind::kI8:
        body.WriteU8(static_cast<uint8_t>(heap.AGet<int8_t>(arr, i)));
        break;
      case FieldKind::kI16:
      case FieldKind::kChar:
        body.WriteU16(static_cast<uint16_t>(heap.AGet<int16_t>(arr, i)));
        break;
      case FieldKind::kI32:
        body.WriteI32(heap.AGet<int32_t>(arr, i));
        break;
      case FieldKind::kF32:
        body.WriteF32(heap.AGet<float>(arr, i));
        break;
      case FieldKind::kI64:
        body.WriteI64(heap.AGet<int64_t>(arr, i));
        break;
      case FieldKind::kF64:
        body.WriteF64(heap.AGet<double>(arr, i));
        break;
      case FieldKind::kRef:
        FAIL() << "primitive arrays only";
    }
  }
  out.WriteU32(static_cast<uint32_t>(body.size()));
  out.WriteBytes(body.data(), body.size());
}

// Sets element i of a primitive array from a deterministic 64-bit pattern.
void SetPatternElement(Heap& heap, ObjRef arr, FieldKind kind, int64_t i, uint64_t bits) {
  switch (kind) {
    case FieldKind::kBool:
      heap.ASet<int8_t>(arr, i, static_cast<int8_t>(bits & 1));
      break;
    case FieldKind::kI8:
      heap.ASet<int8_t>(arr, i, static_cast<int8_t>(bits));
      break;
    case FieldKind::kI16:
    case FieldKind::kChar:
      heap.ASet<int16_t>(arr, i, static_cast<int16_t>(bits));
      break;
    case FieldKind::kI32:
      heap.ASet<int32_t>(arr, i, static_cast<int32_t>(bits));
      break;
    case FieldKind::kF32:
      heap.ASet<float>(arr, i, static_cast<float>(static_cast<int32_t>(bits)) / 7.0f);
      break;
    case FieldKind::kI64:
      heap.ASet<int64_t>(arr, i, static_cast<int64_t>(bits));
      break;
    case FieldKind::kF64:
      heap.ASet<double>(arr, i, static_cast<double>(static_cast<int64_t>(bits)) / 3.0);
      break;
    case FieldKind::kRef:
      break;
  }
}

TEST(InlineSerializerTest, PrimitiveArrayBlockCopyMatchesElementWiseReference) {
  Heap heap(TestConfig());
  RootScope scope(heap);
  InlineSerializer inline_serde(heap);
  Rng rng(17);
  for (FieldKind kind : {FieldKind::kBool, FieldKind::kI8, FieldKind::kI16, FieldKind::kChar,
                         FieldKind::kI32, FieldKind::kF32, FieldKind::kI64, FieldKind::kF64}) {
    const Klass* array_klass = heap.klasses().DefineArray(kind);
    for (int64_t len : {0, 1, 3, 8, 33}) {
      size_t arr = scope.Push(heap.AllocArray(array_klass, len));
      for (int64_t i = 0; i < len; ++i) {
        SetPatternElement(heap, scope.Get(arr), kind, i, rng.NextU64());
      }
      ByteBuffer expected;
      ReferenceWriteArrayRecord(heap, scope.Get(arr), kind, expected);
      ByteBuffer written;
      inline_serde.WriteRecord(scope.Get(arr), array_klass, written);
      ASSERT_EQ(written.bytes(), expected.bytes()) << array_klass->name() << " len " << len;

      ByteReader reader(written.bytes());
      size_t copy = scope.Push(inline_serde.ReadRecord(array_klass, reader));
      EXPECT_TRUE(reader.AtEnd());
      ByteBuffer reread;
      ReferenceWriteArrayRecord(heap, scope.Get(copy), kind, reread);
      EXPECT_EQ(reread.bytes(), expected.bytes()) << array_klass->name() << " len " << len;
    }
  }
}

TEST(InlineSerializerTest, StringBlockCopyMatchesElementWiseReference) {
  Heap heap(TestConfig());
  WellKnown wk(heap);
  RootScope scope(heap);
  InlineSerializer inline_serde(heap);
  const int value_off = wk.string_klass()->FindField("value")->offset;
  for (std::string text : {std::string(), std::string("x"), std::string("hello, gerenuk"),
                           std::string("\0\xff\x80 bytes", 10)}) {
    size_t str = scope.Push(wk.AllocString(text));
    ObjRef chars = heap.GetRef(scope.Get(str), value_off);
    for (size_t i = 0; i < text.size(); ++i) {
      ASSERT_EQ(heap.AGet<int8_t>(chars, static_cast<int64_t>(i)),
                static_cast<int8_t>(text[i]));
    }
    EXPECT_EQ(wk.GetString(scope.Get(str)), text);
    ByteBuffer expected;
    ReferenceWriteArrayRecord(heap, chars, FieldKind::kI8, expected);
    ByteBuffer written;
    inline_serde.WriteRecord(scope.Get(str), wk.string_klass(), written);
    EXPECT_EQ(written.bytes(), expected.bytes()) << text;
    ByteReader reader(written.bytes());
    EXPECT_EQ(wk.GetString(inline_serde.ReadRecord(wk.string_klass(), reader)), text);
  }
}

}  // namespace
}  // namespace gerenuk
