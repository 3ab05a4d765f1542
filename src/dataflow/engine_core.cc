#include "src/dataflow/engine_core.h"

#include <string>

namespace gerenuk {

namespace {

// One validation gate for the whole config, crossed before any member that
// consumes a knob (the heap, the scheduler) is built.
const EngineConfig& ValidatedEngineConfig(const EngineConfig& config) {
  const std::string error = config.Validate();
  GERENUK_CHECK(error.empty()) << "invalid EngineConfig: " << error;
  return config;
}

HeapConfig EngineHeapConfig(const EngineConfig& config) {
  return HeapConfig{config.execution.heap_bytes, config.execution.gc, 0.55, 0.35, 2};
}

}  // namespace

void GerenukTask::Run(SerExecutor& exec, const TaskBodies& bodies) {
  EngineStats& stats = ctx.stats();
  if (!speculate) {
    exec.RunDirectSlowPath(io, stats.times, bodies);
    stats.slow_path_direct += 1;
    return;
  }
  const SpecOutcome outcome = exec.RunTaskIo(io, stats.times, bodies);
  if (outcome.committed_fast_path) {
    stats.fast_path_commits += 1;
  } else {
    stats.aborts += outcome.aborts;
  }
}

CommittedRecord FoldIntoScratch(SerRunner& runner, BuilderStore& builders, const Function* fn,
                                const Klass* klass, int64_t acc, int64_t next,
                                NativePartition* scratch) {
  const Value merged = runner.CallFunction(fn, {Value::Addr(acc), Value::Addr(next)});
  ByteBuffer body;
  builders.RenderBody(merged.i, klass, body);
  builders.Clear();
  const int64_t addr = scratch->AppendRecord(body.data(), static_cast<uint32_t>(body.size()));
  return {addr, static_cast<int64_t>(body.size())};
}

EngineCore::EngineCore(const EngineConfig& config)
    : config_(ValidatedEngineConfig(config)),
      heap_(std::make_unique<Heap>(EngineHeapConfig(config))),
      wk_(std::make_unique<WellKnown>(*heap_)),
      kryo_(*heap_),
      inline_serde_(*heap_),
      governor_(config.fault.governor_abort_threshold, config.fault.governor_min_tasks) {
  heap_->set_memory_tracker(&memory_);
  // Worker heaps share the core's class registry, so Klass pointers in the
  // driver-compiled programs are valid in every executor context. The core
  // WellKnown is built first (above), so the worker contexts find its
  // classes already defined. Process executors only make sense for
  // Gerenuk-mode stages (baseline stages mutate the shared engine heap and
  // always run serially in the driver).
  const bool process_mode =
      config.execution.process_executors && config.execution.mode == EngineMode::kGerenuk;
  scheduler_ = std::make_unique<TaskScheduler>(config.execution.num_workers,
                                               EngineHeapConfig(config), &heap_->klasses(),
                                               &memory_, process_mode);
  scheduler_->set_retry_policy(config.retry_policy());
  ExecutorSupervisorConfig supervision;
  supervision.heartbeat_ms = config.execution.executor_heartbeat_ms;
  supervision.heartbeat_timeout_ms = config.execution.executor_heartbeat_timeout_ms;
  supervision.max_executor_relaunches = config.execution.max_executor_relaunches;
  scheduler_->set_supervisor_config(supervision);
  if (config.observability.trace) {
    trace_ = std::make_unique<Trace>(scheduler_->num_workers(),
                                     config.observability.trace_buffer_events);
    scheduler_->set_trace(trace_.get());
    // Driver-side GC (the engine heap: sources, baseline stages, collect)
    // reports into the driver's direct sink.
    heap_->set_trace_sink(trace_->driver());
  }
}

EngineCore::~EngineCore() = default;

void EngineCore::RegisterDataType(const Klass* klass) {
  std::string error;
  GERENUK_CHECK(layouts_.AnalyzeTopLevel(klass, &error)) << error;
  if (!klass->is_array()) {
    // The collection type T[] (§3.1's third annotation) joins the hierarchy
    // so flatMap results are recognized as data collections.
    const Klass* array = heap_->klasses().DefineArray(FieldKind::kRef, klass);
    GERENUK_CHECK(layouts_.AnalyzeTopLevel(array, &error)) << error;
  }
}

DatasetPtr EngineCore::Source(const Klass* klass, int64_t count,
                              const std::function<ObjRef(int64_t, RootScope&)>& make) {
  DatasetPtr ds = MakeSourceDataset(*heap_, inline_serde_, &memory_, mode(), klass,
                                    num_partitions(), count, make);
  // Committed data carries an integrity seal from the moment it exists;
  // consumers verify it at stage input (DESIGN.md "Fault model & recovery").
  for (NativePartition& part : ds->native_parts) {
    part.Seal();
  }
  return ds;
}

void EngineCore::ResetMetrics() {
  stats_ = EngineStats{};
  memory_.ResetPeak();
  heap_->ResetStats();
}

MetricsRegistry EngineCore::metrics() const {
  MetricsRegistry registry;
  stats_.ExportTo(&registry);
  if (trace_ != nullptr) {
    registry.Merge(trace_->metrics());
  }
  return registry;
}

// ---------------------------------------------------------------------------
// Compilation through the plan cache
// ---------------------------------------------------------------------------

PlanOptions EngineCore::plan_options() const {
  PlanOptions options;
  options.vectorize = config_.execution.vectorize;
  options.vector_batch_size = config_.execution.vector_batch_size;
  options.vec_bail_after_strips = config_.execution.vec_bail_after_strips;
  return options;
}

std::shared_ptr<const SerPlan> EngineCore::CompileAndCachePlan(const ProgramSignature& signature,
                                                               PlanCache::Entry entry) {
  // The transformer may have grown the offset-expression pool; re-fold
  // before lowering so every now-constant expression becomes an immediate.
  pool_.FoldConstants();
  entry.plan = CompilePlan(*entry.transformed, layouts_, plan_options());
  stats_.plans_compiled += 1;
  if (plan_cache_ != nullptr) {
    plan_cache_->Insert(signature, entry);
  }
  return entry.plan;
}

// The cache is only consulted when the plan compiler is on: an entry always
// carries (transformed, plan) as a unit, so a mixed-configuration engine
// never receives a plan it was told not to use.
StagePrograms EngineCore::CompileStage(const Klass* in_klass, const SerProgram& udfs,
                                       const std::vector<NarrowOp>& ops, bool has_broadcast,
                                       const Klass* broadcast_klass) {
  const bool plans = config_.execution.use_plan_compiler;
  StagePrograms stage = CompileNarrowStage(
      mode(), layouts_, in_klass, udfs, ops, has_broadcast, broadcast_klass, &stats_.transform,
      heap_->klasses(), plans ? plan_cache_ : nullptr, VecSignatureOf(config_.execution));
  if (mode() == EngineMode::kGerenuk) {
    stats_.stages_compiled += 1;
    if (stage.cache_hit) {
      stats_.plan_cache_hits += 1;
    } else if (plans && stage.transformed != nullptr) {
      stage.plan = CompileAndCachePlan(stage.signature, {stage.transformed, nullptr, nullptr, 0});
    }
  }
  return stage;
}

CompiledFunction EngineCore::CompileFn(const SerProgram& udfs, const Function* fn) {
  const bool plans = config_.execution.use_plan_compiler;
  CompiledFunction compiled =
      CompileSingleFunction(mode(), layouts_, udfs, fn, &stats_.transform,
                            plans ? plan_cache_ : nullptr, VecSignatureOf(config_.execution));
  if (compiled.cache_hit) {
    stats_.plan_cache_hits += 1;
  } else if (mode() == EngineMode::kGerenuk && plans && compiled.transformed != nullptr) {
    compiled.plan = CompileAndCachePlan(
        compiled.signature, {compiled.transformed, nullptr, compiled.fast_fn, 0});
  }
  return compiled;
}

// ---------------------------------------------------------------------------
// Stage running
// ---------------------------------------------------------------------------

bool EngineCore::ShouldSpeculateFor(uint64_t signature_hash) const {
  if (!governor_.ShouldSpeculate()) {
    return false;
  }
  return oracle_.should_speculate == nullptr || oracle_.should_speculate(signature_hash);
}

void EngineCore::ObserveSpeculation(uint64_t signature_hash, int tasks, int aborts_delta) {
  if (governor_.Observe(tasks, aborts_delta)) {
    stats_.governor_flips += 1;
  }
  if (oracle_.observe != nullptr) {
    oracle_.observe(signature_hash, tasks, aborts_delta);
  }
}

void EngineCore::BindObservability(TaskIo* io, WorkerContext& ctx) const {
  io->trace = ctx.trace_sink();
  if (config_.observability.plan_profile_stride > 0) {
    io->plan_profile = &ctx.stats().plan_ops;
    io->plan_profile_stride = config_.observability.plan_profile_stride;
  }
}

void EngineCore::RunGerenukStage(const GerenukStageSpec& spec,
                                 const std::function<void(GerenukTask&)>& body) {
  const int64_t base = ClaimTaskOrdinals(spec.num_tasks);
  const FaultInjector* faults = ActiveFaults();
  const bool observed = spec.signature_hash.has_value();
  const bool speculate = !observed || ShouldSpeculateFor(*spec.signature_hash);
  const int aborts_before = stats_.aborts;
  TraceSpan stage_span(DriverSink(), TraceEventType::kStage, spec.label);
  scheduler_->RunStage(
      spec.num_tasks,
      [&](WorkerContext& ctx, int t) {
        ctx.stats().tasks_run += 1;
        GerenukTask task{ctx, t, speculate, TaskIo{}};
        task.io.stage_label = spec.label;
        task.io.partition = t;
        task.io.task_ordinal = base + t;
        task.io.faults = faults;
        task.io.attempt = ctx.attempt();
        task.io.cancelled = [&ctx] { return ctx.cancelled(); };
        BindObservability(&task.io, ctx);
        body(task);
      },
      &stats_, spec.codec);
  if (observed && speculate) {
    ObserveSpeculation(*spec.signature_hash, spec.num_tasks, stats_.aborts - aborts_before);
  }
}

void EngineCore::RunBaselineStage(const char* label, int num_tasks,
                                  const TaskScheduler::Task& body) {
  ClaimTaskOrdinals(num_tasks);
  TraceSpan stage_span(DriverSink(), TraceEventType::kStage, label);
  scheduler_->RunStageSerial(
      num_tasks,
      [&](WorkerContext& ctx, int t) {
        ctx.stats().tasks_run += 1;
        heap_->set_phase_times(&ctx.stats().times);
        body(ctx, t);
        heap_->set_phase_times(nullptr);
      },
      &stats_);
}

// Encode ships the partition's shuffle-wire bytes (seal included); decode
// lands them in the driver's slot. Parse failures are reclassified as the
// fail-closed TaskError{kCorruptInput}.
StageCodec EngineCore::PartitionCodec(std::vector<NativePartition>* parts) {
  StageCodec codec;
  codec.encode = [parts](int task, ByteBuffer* out) {
    (*parts)[static_cast<size_t>(task)].SerializeTo(*out);
  };
  codec.decode = [parts, memory = &memory_](int task, ByteReader* in) {
    try {
      (*parts)[static_cast<size_t>(task)] = NativePartition::Parse(*in, memory);
    } catch (const WireFormatError& e) {
      throw TaskError(TaskErrorKind::kCorruptInput, task, 1, 0,
                      std::string("executor result failed wire parse: ") + e.what());
    }
  };
  return codec;
}

}  // namespace gerenuk
