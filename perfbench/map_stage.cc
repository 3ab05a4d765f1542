// map_stage: repeated RunStage calls of one fused map -> filter -> map chain
// on a long-lived Gerenuk engine over >= 100k Pair records sourced once.
//
// Why: the exec layer does nearly all the work here (plan kernel, record
// channel, task setup, seal check, region free); shuffle and serde do none.
// This is the kernel-to-stage gap: the first map carries a counted loop the
// plan compiler vectorizes, so a faster kernel shows in records_per_s only
// as far as the stage around it lets it.
//
// A job is one RunStage call plus reading its output bytes. Reference: the
// same stage on an engine with use_plan_compiler=false (the interpreter).
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/dataflow/spark.h"
#include "src/exec/plan.h"
#include "src/ir/builder.h"
#include "src/support/rng.h"

namespace perfbench {
namespace {

using namespace gerenuk;

constexpr int64_t kRecords = 120000;
constexpr int64_t kMinJobs = 100;
constexpr int64_t kSpinTrips = 24;  // iterations of the vectorizable loop

// Engine + Pair klass + the chain's UDFs + the sourced input.
struct MapStageRig {
  std::unique_ptr<SparkEngine> engine;
  const Klass* pair = nullptr;
  SerProgram udfs;
  std::vector<NarrowOp> chain;
  DatasetPtr input;
};

EngineConfig MapStageConfig(bool use_plans, bool traced) {
  EngineConfig config;
  config.execution.mode = EngineMode::kGerenuk;
  config.execution.heap_bytes = 64u << 20;
  config.execution.num_partitions = 4;
  config.execution.num_workers = 1;
  config.execution.use_plan_compiler = use_plans;
  ApplyTracing(&config, traced);
  return config;
}

// map (counted loop over the key) -> filter (key % 8 != 0) -> map (rescale).
void BuildChain(MapStageRig* rig) {
  const Klass* pair = rig->pair;
  Function* spin = rig->udfs.AddFunction("spin_value");
  {
    FunctionBuilder b(spin);
    int rec = b.Param("rec", IrType::Ref(pair));
    spin->return_type = IrType::Ref(pair);
    int key = b.FieldLoad(rec, pair, "key");
    int acc = b.Local("acc", IrType::I64());
    b.AssignTo(acc, b.ConstI(0));
    int mask = b.ConstI(1023);
    b.For(b.ConstI(kSpinTrips), [&](int i) {
      int t = b.BinOp(BinOpKind::kMul, i, key);
      int u = b.BinOp(BinOpKind::kAnd, t, mask);
      b.AssignTo(acc, b.BinOp(BinOpKind::kAdd, acc, u));
    });
    int out = b.NewObject(pair);
    b.FieldStore(out, pair, "key", key);
    int scaled = b.BinOp(BinOpKind::kMul, b.UnOp(UnOpKind::kI2F, acc), b.ConstF(0.25));
    b.FieldStore(out, pair, "value",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(rec, pair, "value"), scaled));
    b.Return(out);
    b.Done();
  }
  Function* keep = rig->udfs.AddFunction("keep_key");
  {
    FunctionBuilder b(keep);
    int rec = b.Param("rec", IrType::Ref(pair));
    keep->return_type = IrType::I64();
    int low = b.BinOp(BinOpKind::kAnd, b.FieldLoad(rec, pair, "key"), b.ConstI(7));
    b.Return(b.BinOp(BinOpKind::kNe, low, b.ConstI(0)));
    b.Done();
  }
  Function* rescale = rig->udfs.AddFunction("rescale");
  {
    FunctionBuilder b(rescale);
    int rec = b.Param("rec", IrType::Ref(pair));
    rescale->return_type = IrType::Ref(pair);
    int out = b.NewObject(pair);
    b.FieldStore(out, pair, "key", b.BinOp(BinOpKind::kAdd, b.FieldLoad(rec, pair, "key"),
                                           b.ConstI(1)));
    b.FieldStore(out, pair, "value",
                 b.BinOp(BinOpKind::kMul, b.FieldLoad(rec, pair, "value"), b.ConstF(0.5)));
    b.Return(out);
    b.Done();
  }
  rig->chain = {NarrowOp::Map(spin, pair), NarrowOp::Filter(keep), NarrowOp::Map(rescale, pair)};
}

// Input keys and values, generated once from the seed.
struct PairData {
  std::vector<int64_t> keys;
  std::vector<double> values;
};

PairData MakePairData(uint64_t seed) {
  PairData data;
  Rng rng(seed);
  for (int64_t i = 0; i < kRecords; ++i) {
    data.keys.push_back(static_cast<int64_t>(rng.NextBounded(1u << 20)));
    data.values.push_back(rng.NextDouble(-100.0, 100.0));
  }
  return data;
}

std::unique_ptr<MapStageRig> BuildRig(const EngineConfig& config, const PairData& data) {
  auto rig = std::make_unique<MapStageRig>();
  rig->engine = std::make_unique<SparkEngine>(config);
  Heap& heap = rig->engine->heap();
  rig->pair = heap.klasses().DefineClass("Pair", {
                                                     {"key", FieldKind::kI64, nullptr, 0},
                                                     {"value", FieldKind::kF64, nullptr, 0},
                                                 });
  rig->engine->RegisterDataType(rig->pair);
  BuildChain(rig.get());
  const Klass* pair = rig->pair;
  const size_t key_off = pair->FindField("key")->offset;
  const size_t value_off = pair->FindField("value")->offset;
  rig->input = rig->engine->Source(pair, kRecords, [&](int64_t i, RootScope&) {
    ObjRef rec = heap.AllocObject(pair);
    heap.SetPrim<int64_t>(rec, key_off, data.keys[static_cast<size_t>(i)]);
    heap.SetPrim<double>(rec, value_off, data.values[static_cast<size_t>(i)]);
    return rec;
  });
  return rig;
}

// compile.transform_ms / compile.plan_ms: the chain through
// CompileNarrowStage and CompilePlan on a fresh analyzer (median of reps).
void TimeCompile(MapStageRig& rig, Report* report) {
  std::vector<double> transform_ms;
  std::vector<double> plan_ms;
  for (int rep = 0; rep < 9; ++rep) {
    ExprPool pool;
    DataStructAnalyzer layouts{pool};
    std::string error;
    if (!layouts.AnalyzeTopLevel(rig.pair, &error)) {
      return;
    }
    TransformStats tstats;
    int64_t t0 = NowNs();
    StagePrograms stage =
        CompileNarrowStage(EngineMode::kGerenuk, layouts, rig.pair, rig.udfs, rig.chain, false,
                           nullptr, &tstats, rig.engine->heap().klasses());
    int64_t t1 = NowNs();
    pool.FoldConstants();
    std::shared_ptr<const SerPlan> plan = CompilePlan(*stage.transformed, layouts);
    int64_t t2 = NowNs();
    transform_ms.push_back(Ms(t1 - t0));
    plan_ms.push_back(Ms(t2 - t1));
  }
  report->Layer("compile.transform_ms", Median(transform_ms), "ms");
  report->Layer("compile.plan_ms", Median(plan_ms), "ms");
}

}  // namespace

bool RunMapStage(const Options& options, Report* report) {
  PairData data;
  std::unique_ptr<MapStageRig> rig;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    rig.reset();
    data = MakePairData(options.seed);
    rig = BuildRig(MapStageConfig(true, false), data);
    for (int warm = 0; warm < 2; ++warm) {
      rig->engine->RunStage(rig->input, rig->udfs, rig->chain);
    }
  });
  report->E2E("setup_s", setup_s, "s");

  // Independent reference: the tree-walking interpreter on the same input.
  std::string expected;
  {
    std::unique_ptr<MapStageRig> reference = BuildRig(MapStageConfig(false, false), data);
    expected = DatasetBytes(
        reference->engine->RunStage(reference->input, reference->udfs, reference->chain));
  }

  // The traced run alternates an untraced twin engine with a traced one, so
  // tracing.overhead_pct compares jobs run side by side.
  Tracer tracer(options.trace);
  std::unique_ptr<MapStageRig> traced_rig;
  if (options.trace) {
    traced_rig = BuildRig(MapStageConfig(true, true), data);
    traced_rig->engine->RunStage(traced_rig->input, traced_rig->udfs, traced_rig->chain);
  }
  std::vector<double> job_ms;
  std::vector<double> traced_ms;
  StageSamples stages;
  EngineStats traced_total;
  int64_t traced_jobs = 0;
  int64_t records = 0;
  int64_t peak_bytes = 0;
  const int64_t gc_before = options.trace ? GcPauses(*traced_rig->engine) : 0;

  std::string bytes;  // the latest job's output, reused across jobs
  Tracer untraced(false);
  RunFor(options.seconds, options.trace ? 2 * kMinJobs : kMinJobs, [&](int64_t i) {
    const bool traced = options.trace && i % 2 == 1;
    MapStageRig& r = traced ? *traced_rig : *rig;
    Tracer& t = traced ? tracer : untraced;
    report->Attempt();
    r.engine->ResetMetrics();
    SpanScope job(t, "job", -1, i);
    DatasetPtr out = EngineCall(t, *r.engine, "dataflow.run_stage", job.id(), i, &stages,
                                [&] { return r.engine->RunStage(r.input, r.udfs, r.chain); });
    {
      SpanScope output(t, "dataflow.output", job.id(), i);
      DatasetBytesInto(out, &bytes);
    }
    const double ms = Ms(job.Done());
    (traced ? traced_ms : job_ms).push_back(ms);
    records += kRecords;
    peak_bytes = std::max(peak_bytes, r.engine->peak_memory_bytes());
    if (traced) {
      traced_total += r.engine->stats();
      traced_jobs += 1;
    }
    if (bytes != expected) {
      report->Mismatch("map_stage output differs from the interpreter reference");
    }
  });

  report->E2E("peak_mem_mb", static_cast<double>(peak_bytes) / (1 << 20), "MB");
  if (!options.trace) {
    return ReportJobLatencies(report, job_ms, records);
  }
  report->Layer("jobs_timed", static_cast<double>(traced_ms.size()), "count");
  ReportEngineLayers(report, traced_total, traced_jobs,
                     GcPauses(*traced_rig->engine) - gc_before);
  stages.ReportTo(report);
  ReportSpanLayers(report, tracer);
  ReportTracingOverhead(report, job_ms, traced_ms);
  TimeCompile(*rig, report);
  return tracer.WriteChromeTrace(options.work_dir + "/" + options.workload + ".trace.json");
}

}  // namespace perfbench
