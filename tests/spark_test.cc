// Integration tests for the mini-Spark engine: every operator must produce
// semantically identical results in kBaseline (heap objects + Kryo shuffles)
// and kGerenuk (native buffers + transformed SERs) modes, including under
// forced aborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/dataflow/spark.h"
#include "src/ir/builder.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

// A test workload over Pair{key:i64, value:f64} records.
struct PairWorkload {
  SparkEngine engine;
  const Klass* pair;
  const Klass* pair_array;
  SerProgram udfs;
  const Function* double_value;   // map: value *= 2
  const Function* positive_only;  // filter: value > 0
  const Function* explode;        // flatMap: -> [ (key, v), (key+1000, v) ]
  const Function* get_key;        // key extractor
  const Function* sum_values;     // reduce: (a, b) -> (a.key, a.v + b.v)
  const Function* add_broadcast;  // map with broadcast: value += bc.value

  explicit PairWorkload(EngineMode mode, size_t heap_bytes = 48u << 20, int workers = 1)
      : engine(EngineConfig{{mode, heap_bytes, GcKind::kGenerational, 3, workers}}) {
    KlassRegistry& reg = engine.heap().klasses();
    pair = reg.DefineClass("Pair", {
                                       {"key", FieldKind::kI64, nullptr, 0},
                                       {"value", FieldKind::kF64, nullptr, 0},
                                   });
    engine.RegisterDataType(pair);
    pair_array = reg.Find("Pair[]");

    {
      Function* f = udfs.AddFunction("double_value");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      f->return_type = IrType::Ref(pair);
      int k = b.FieldLoad(rec, pair, "key");
      int v = b.FieldLoad(rec, pair, "value");
      int out = b.NewObject(pair);
      b.FieldStore(out, pair, "key", k);
      int two = b.ConstF(2.0);
      b.FieldStore(out, pair, "value", b.BinOp(BinOpKind::kMul, v, two));
      b.Return(out);
      b.Done();
      double_value = f;
    }
    {
      Function* f = udfs.AddFunction("positive_only");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      f->return_type = IrType::I64();
      int v = b.FieldLoad(rec, pair, "value");
      int zero = b.ConstF(0.0);
      b.Return(b.BinOp(BinOpKind::kGt, v, zero));
      b.Done();
      positive_only = f;
    }
    {
      Function* f = udfs.AddFunction("explode");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      f->return_type = IrType::Ref(pair_array);
      int k = b.FieldLoad(rec, pair, "key");
      int v = b.FieldLoad(rec, pair, "value");
      int two = b.ConstI(2);
      int arr = b.NewArray(pair_array, two);
      int first = b.NewObject(pair);
      b.FieldStore(first, pair, "key", k);
      b.FieldStore(first, pair, "value", v);
      b.ArrayStore(arr, b.ConstI(0), first);
      int second = b.NewObject(pair);
      int offset = b.ConstI(1000);
      b.FieldStore(second, pair, "key", b.BinOp(BinOpKind::kAdd, k, offset));
      b.FieldStore(second, pair, "value", v);
      b.ArrayStore(arr, b.ConstI(1), second);
      b.Return(arr);
      b.Done();
      explode = f;
    }
    {
      Function* f = udfs.AddFunction("get_key");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      f->return_type = IrType::I64();
      b.Return(b.FieldLoad(rec, pair, "key"));
      b.Done();
      get_key = f;
    }
    {
      Function* f = udfs.AddFunction("sum_values");
      FunctionBuilder b(f);
      int a = b.Param("a", IrType::Ref(pair));
      int c = b.Param("b", IrType::Ref(pair));
      f->return_type = IrType::Ref(pair);
      int out = b.NewObject(pair);
      b.FieldStore(out, pair, "key", b.FieldLoad(a, pair, "key"));
      int sum = b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, pair, "value"),
                        b.FieldLoad(c, pair, "value"));
      b.FieldStore(out, pair, "value", sum);
      b.Return(out);
      b.Done();
      sum_values = f;
    }
    {
      Function* f = udfs.AddFunction("add_broadcast");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      int bc = b.Param("bc", IrType::Ref(pair));
      f->return_type = IrType::Ref(pair);
      int out = b.NewObject(pair);
      b.FieldStore(out, pair, "key", b.FieldLoad(rec, pair, "key"));
      int sum = b.BinOp(BinOpKind::kAdd, b.FieldLoad(rec, pair, "value"),
                        b.FieldLoad(bc, pair, "value"));
      b.FieldStore(out, pair, "value", sum);
      b.Return(out);
      b.Done();
      add_broadcast = f;
    }
  }

  ObjRef MakePair(int64_t key, double value, RootScope& scope) {
    ObjRef rec = engine.heap().AllocObject(pair);
    engine.heap().SetPrim<int64_t>(rec, pair->FindField("key")->offset, key);
    engine.heap().SetPrim<double>(rec, pair->FindField("value")->offset, value);
    return rec;
  }

  DatasetPtr MakeInput(int64_t count) {
    return engine.Source(pair, count, [this](int64_t i, RootScope& scope) {
      return MakePair(i % 10, (i % 7) - 3.0, scope);
    });
  }

  // Materializes a dataset as sorted (key, value) pairs for comparison.
  std::vector<std::pair<int64_t, double>> Extract(const DatasetPtr& ds) {
    RootScope scope(engine.heap());
    std::vector<size_t> slots = engine.CollectToHeap(ds, scope);
    std::vector<std::pair<int64_t, double>> result;
    for (size_t slot : slots) {
      ObjRef rec = scope.Get(slot);
      result.emplace_back(engine.heap().GetPrim<int64_t>(rec, pair->FindField("key")->offset),
                          engine.heap().GetPrim<double>(rec, pair->FindField("value")->offset));
    }
    std::sort(result.begin(), result.end());
    return result;
  }
};

using Pairs = std::vector<std::pair<int64_t, double>>;

TEST(SparkEngineTest, MapStageMatchesAcrossModes) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(500);
    DatasetPtr out = w.engine.RunStage(in, w.udfs, {NarrowOp::Map(w.double_value, w.pair)});
    results[static_cast<int>(mode)] = w.Extract(out);
    EXPECT_EQ(out->TotalRecords(), 500);
  }
  EXPECT_EQ(results[0], results[1]);
  ASSERT_FALSE(results[0].empty());
  EXPECT_EQ(results[0][0].second, results[0][0].second);  // well-formed
}

TEST(SparkEngineTest, FilterStageMatchesAcrossModes) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(500);
    DatasetPtr out = w.engine.RunStage(in, w.udfs, {NarrowOp::Filter(w.positive_only)});
    results[static_cast<int>(mode)] = w.Extract(out);
    EXPECT_LT(out->TotalRecords(), 500);
    EXPECT_GT(out->TotalRecords(), 0);
  }
  EXPECT_EQ(results[0], results[1]);
  for (const auto& [k, v] : results[0]) {
    EXPECT_GT(v, 0.0);
  }
}

TEST(SparkEngineTest, MapThenFilterFusedStage) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(400);
    DatasetPtr out = w.engine.RunStage(
        in, w.udfs,
        {NarrowOp::Map(w.double_value, w.pair), NarrowOp::Filter(w.positive_only)});
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(SparkEngineTest, FlatMapStageMatchesAcrossModes) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(200);
    DatasetPtr out = w.engine.RunStage(in, w.udfs, {NarrowOp::FlatMap(w.explode, w.pair)});
    EXPECT_EQ(out->TotalRecords(), 400);
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(SparkEngineTest, ReduceByKeyMatchesAcrossModes) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(1000);
    DatasetPtr out =
        w.engine.ReduceByKey(in, w.udfs, {}, KeySpec{w.get_key, false}, w.sum_values);
    EXPECT_EQ(out->TotalRecords(), 10);  // keys are i % 10
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
  // Independent reference: sum per key computed directly.
  std::map<int64_t, double> expected;
  for (int64_t i = 0; i < 1000; ++i) {
    expected[i % 10] += (i % 7) - 3.0;
  }
  for (const auto& [k, v] : results[0]) {
    EXPECT_NEAR(v, expected[k], 1e-9) << "key " << k;
  }
}

TEST(SparkEngineTest, ReduceByKeyWithPreOps) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(600);
    DatasetPtr out = w.engine.ReduceByKey(in, w.udfs,
                                          {NarrowOp::Map(w.double_value, w.pair),
                                           NarrowOp::Filter(w.positive_only)},
                                          KeySpec{w.get_key, false}, w.sum_values);
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(SparkEngineTest, BroadcastVariable) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(300);
    RootScope scope(w.engine.heap());
    size_t bc_slot = scope.Push(w.MakePair(0, 100.0, scope));
    BroadcastVar bc = w.engine.MakeBroadcast(scope.Get(bc_slot), w.pair);
    DatasetPtr out = w.engine.RunStage(in, w.udfs, {NarrowOp::Map(w.add_broadcast, w.pair)}, &bc);
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
  for (const auto& [k, v] : results[0]) {
    EXPECT_GE(v, 95.0);  // original values were >= -3
  }
}

TEST(SparkEngineTest, JoinByKeyMatchesAcrossModes) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    // Left: one record per key 0..9; right: 300 records keyed i%10.
    DatasetPtr left = w.engine.Source(w.pair, 10, [&w](int64_t i, RootScope& scope) {
      return w.MakePair(i, i * 10.0, scope);
    });
    DatasetPtr right = w.MakeInput(300);
    DatasetPtr out = w.engine.JoinByKey(left, KeySpec{w.get_key, false}, right,
                                        KeySpec{w.get_key, false}, w.udfs, w.sum_values, w.pair);
    EXPECT_EQ(out->TotalRecords(), 300);
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(SparkEngineTest, GerenukFastPathCommitsAndBaselineSerializes) {
  PairWorkload gw(EngineMode::kGerenuk);
  DatasetPtr gin = gw.MakeInput(500);
  gw.engine.ResetMetrics();
  gw.engine.ReduceByKey(gin, gw.udfs, {}, KeySpec{gw.get_key, false}, gw.sum_values);
  EXPECT_GT(gw.engine.stats().fast_path_commits, 0);
  EXPECT_EQ(gw.engine.stats().aborts, 0);
  EXPECT_EQ(gw.engine.stats().times.Get(Phase::kSerialize), 0);
  EXPECT_EQ(gw.engine.stats().times.Get(Phase::kDeserialize), 0);
  EXPECT_GT(gw.engine.stats().transform.statements_transformed, 0);

  PairWorkload bw(EngineMode::kBaseline);
  DatasetPtr bin = bw.MakeInput(500);
  bw.engine.ResetMetrics();
  bw.engine.ReduceByKey(bin, bw.udfs, {}, KeySpec{bw.get_key, false}, bw.sum_values);
  EXPECT_GT(bw.engine.stats().times.Get(Phase::kSerialize), 0);
  EXPECT_GT(bw.engine.stats().times.Get(Phase::kDeserialize), 0);
}

TEST(SparkEngineTest, ForcedAbortsStillProduceCorrectResults) {
  Pairs expected;
  {
    PairWorkload w(EngineMode::kGerenuk);
    DatasetPtr in = w.MakeInput(400);
    DatasetPtr out =
        w.engine.ReduceByKey(in, w.udfs, {}, KeySpec{w.get_key, false}, w.sum_values);
    expected = w.Extract(out);
  }
  // Second input: the first reduce task (three map tasks precede it) is
  // forced to abort too. A fold task's forced abort fires at fold entry, and
  // the whole reduce task re-runs on the slow path.
  for (bool abort_reduce : {false, true}) {
    std::vector<uint8_t> reference;
    for (int workers : kWorkerCounts) {
      PairWorkload w(EngineMode::kGerenuk, 16u << 20, workers);
      DatasetPtr in = w.MakeInput(400);
      w.engine.ResetMetrics();
      const int64_t base = w.engine.next_task_ordinal();
      w.engine.ForceAborts(2);  // two map tasks abort halfway
      if (abort_reduce) {
        w.engine.fault_plan().AbortTask(base + 3);
      }
      DatasetPtr out =
          w.engine.ReduceByKey(in, w.udfs, {}, KeySpec{w.get_key, false}, w.sum_values);
      EXPECT_EQ(w.engine.stats().aborts, abort_reduce ? 3 : 2) << "workers=" << workers;
      EXPECT_EQ(w.Extract(out), expected) << "workers=" << workers;
      if (workers == 1) {
        reference = DatasetBytes(out);
      } else {
        EXPECT_EQ(DatasetBytes(out), reference) << "workers=" << workers;
      }
    }
  }
}

TEST(SparkEngineTest, PeakMemoryTracked) {
  PairWorkload w(EngineMode::kGerenuk);
  DatasetPtr in = w.MakeInput(2000);
  w.engine.ResetMetrics();
  w.engine.RunStage(in, w.udfs, {NarrowOp::Map(w.double_value, w.pair)});
  EXPECT_GT(w.engine.peak_memory_bytes(), 0);
}

// ---------------------------------------------------------------------------
// Gerenuk Source: record objects are scratch, rewound after serialization
// ---------------------------------------------------------------------------

std::vector<uint8_t> NativeBytes(const DatasetPtr& ds) {
  ByteBuffer out;
  for (const NativePartition& part : ds->native_parts) {
    part.SerializeTo(out);
  }
  return out.bytes();
}

int64_t Collections(const Heap& heap) {
  return heap.stats().minor_gcs + heap.stats().major_gcs;
}

TEST(SourceScratchTest, GerenukSourceLeavesNoHeapGarbage) {
  PairWorkload w(EngineMode::kGerenuk);
  Heap& heap = w.engine.heap();
  const int64_t used = heap.used_bytes();
  const int64_t collections = Collections(heap);
  DatasetPtr in = w.MakeInput(20000);
  EXPECT_EQ(in->TotalRecords(), 20000);
  EXPECT_EQ(heap.used_bytes(), used);
  EXPECT_EQ(Collections(heap), collections);
  PairWorkload baseline(EngineMode::kBaseline);
  EXPECT_EQ(w.Extract(in), baseline.Extract(baseline.MakeInput(20000)));
}

TEST(SourceScratchTest, RecordPublishedIntoAnOldHolderIsNotRewound) {
  PairWorkload w(EngineMode::kGerenuk);
  Heap& heap = w.engine.heap();
  const int64_t n = 500;
  RootScope holder_scope(heap);
  size_t holder = holder_scope.Push(heap.AllocArray(w.pair_array, n));
  heap.CollectNow();
  heap.CollectNow();  // promoted: the holder now lives in the old generation
  ASSERT_GT(heap.stats().promoted_bytes, 0);
  const int64_t used = heap.used_bytes();

  DatasetPtr in = w.engine.Source(w.pair, n, [&](int64_t i, RootScope& scope) {
    ObjRef rec = w.MakePair(i, i * 0.5, scope);
    heap.ASetRef(holder_scope.Get(holder), i, rec);
    return rec;
  });
  EXPECT_GT(heap.used_bytes(), used);  // the published records were kept
  heap.CollectNow();
  const int key_off = w.pair->FindField("key")->offset;
  const int value_off = w.pair->FindField("value")->offset;
  for (int64_t i = 0; i < n; ++i) {
    ObjRef rec = heap.AGetRef(holder_scope.Get(holder), i);
    ASSERT_NE(rec, kNullRef);
    EXPECT_EQ(heap.GetPrim<int64_t>(rec, key_off), i);
    EXPECT_EQ(heap.GetPrim<double>(rec, value_off), i * 0.5);
  }
  EXPECT_EQ(in->TotalRecords(), n);
}

TEST(SourceScratchTest, CollectionInsideMakeKeepsThePartitionBytes) {
  auto source = [](PairWorkload& w, bool collect) {
    return w.engine.Source(w.pair, 3000, [&w, collect](int64_t i, RootScope& scope) {
      Heap& heap = w.engine.heap();
      size_t rec = scope.Push(heap.AllocObject(w.pair));
      if (collect && i % 97 == 5) {
        heap.CollectNow();  // moves the half-built record
      }
      heap.SetPrim<int64_t>(scope.Get(rec), w.pair->FindField("key")->offset, i % 13);
      heap.SetPrim<double>(scope.Get(rec), w.pair->FindField("value")->offset, i * 0.25);
      return scope.Get(rec);
    });
  };
  PairWorkload quiet(EngineMode::kGerenuk);
  PairWorkload collecting(EngineMode::kGerenuk);
  const int64_t minor_before = collecting.engine.heap().stats().minor_gcs;
  std::vector<uint8_t> expected = NativeBytes(source(quiet, false));
  std::vector<uint8_t> got = NativeBytes(source(collecting, true));
  EXPECT_GT(collecting.engine.heap().stats().minor_gcs, minor_before);
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace gerenuk
