// The runtime the two host engines share. The paper builds one compiler and
// runtime and ports it to Spark and Hadoop; here `EngineCore` is that
// runtime, and SparkEngine (src/dataflow/spark.h) and HadoopEngine
// (src/mapreduce/hadoop.h) are thin front ends over it. The core owns the
// engine heap and its class registry, the data-structure layouts, both
// serializers, memory accounting, the TaskScheduler worker pool, the trace,
// the stats, fault injection, speculation control, the plan-cache hook and
// the task-ordinal sequence — once.
//
// A standalone front end builds a private core. A service slot builds one
// core and hands it to both front ends, so a slot has one heap, one
// scheduler and one PlanCache (see src/service/engine_service.h). Front
// ends sharing a core must be driven from one thread at a time, like a
// single engine.
#ifndef SRC_DATAFLOW_ENGINE_CORE_H_
#define SRC_DATAFLOW_ENGINE_CORE_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/dataflow/dataset.h"
#include "src/dataflow/engine_config.h"
#include "src/exec/plan_cache.h"
#include "src/exec/ser_executor.h"
#include "src/exec/task_scheduler.h"
#include "src/serde/heap_serializer.h"

namespace gerenuk {

// One Gerenuk-mode task as the stage runner hands it to a stage body: the
// executing worker, the task index, the stage's speculation decision, and a
// TaskIo whose common fields (label, partition, ordinal, faults, attempt,
// cancellation, tracing, profiling) are already filled in.
struct GerenukTask {
  WorkerContext& ctx;
  int index;
  bool speculate;
  TaskIo io;

  // Routes `io` and `bodies` (by default the record loop over `io.input`)
  // through `exec`: RunTaskIo when speculating (counting a fast-path commit
  // or the aborts), RunDirectSlowPath otherwise (counting a direct run).
  void Run(SerExecutor& exec, const TaskBodies& bodies);
  void Run(SerExecutor& exec) { Run(exec, exec.RecordLoop(io, ctx.stats().times)); }
};

// A committed native record: its body's address and size.
struct CommittedRecord {
  int64_t addr;
  int64_t size;
};

// The fast-path fold step every Gerenuk reduce shares (Spark's ReduceByKey,
// Hadoop's reducer and combiner): applies the transformed reduce function
// `fn` to two committed records on `runner` and commits the result into
// `scratch`, so the next fold reads committed bytes.
CommittedRecord FoldIntoScratch(SerRunner& runner, BuilderStore& builders, const Function* fn,
                                const Klass* klass, int64_t acc, int64_t next,
                                NativePartition* scratch);

struct GerenukStageSpec {
  const char* label = "";  // stage span and TaskIo label
  int num_tasks = 0;
  // The SER the speculation governor and oracle key this stage on. Unset
  // for a stage with no slow-path route: it always runs its fast path and
  // feeds no barrier observation.
  std::optional<uint64_t> signature_hash;
  const StageCodec* codec = nullptr;  // process-mode result wire codec
};

class EngineCore {
 public:
  // Validates `config` (GERENUK_CHECK with the offending field) before any
  // member that consumes a knob is built.
  explicit EngineCore(const EngineConfig& config);
  ~EngineCore();
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  const EngineConfig& config() const { return config_; }
  EngineMode mode() const { return config_.execution.mode; }
  int num_partitions() const { return config_.execution.num_partitions; }
  Heap& heap() { return *heap_; }
  WellKnown& wk() { return *wk_; }
  const DataStructAnalyzer& layouts() const { return layouts_; }
  HeapSerializer& kryo() { return kryo_; }
  InlineSerializer& inline_serde() { return inline_serde_; }
  MemoryTracker& memory() { return memory_; }
  TaskScheduler& scheduler() { return *scheduler_; }
  Trace* trace() { return trace_.get(); }  // null when tracing is off
  EngineStats& stats() { return stats_; }
  const EngineStats& stats() const { return stats_; }
  FaultInjector& faults() { return faults_; }
  const SpeculationGovernor& governor() const { return governor_; }
  int64_t next_task_ordinal() const { return task_seq_; }

  // Service-mode hooks; install only while the core is idle (between jobs):
  // the compiler and the stage barriers read them without synchronization.
  void set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }
  PlanCache* plan_cache() const { return plan_cache_; }
  void set_speculation_oracle(SpeculationOracle oracle) { oracle_ = std::move(oracle); }
  void set_cancel_check(CancelCheck check) { scheduler_->set_cancel_check(std::move(check)); }

  // §3.1 annotation: registers a top-level data type and its collection
  // type T[] with the layout analyzer.
  void RegisterDataType(const Klass* klass);
  // A sealed source dataset of `count` records over num_partitions(),
  // record i built by `make` (the MakeSourceDataset contract: in Gerenuk
  // mode its objects are scratch, freed right after serialization, and must
  // not be kept in any root).
  DatasetPtr Source(const Klass* klass, int64_t count,
                    const std::function<ObjRef(int64_t, RootScope&)>& make);
  void ResetMetrics();
  // Every EngineStats counter plus, when tracing, the trace's histograms.
  MetricsRegistry metrics() const;

  // Compiles through the plan cache: the SER transform (or a cache hit),
  // then, in Gerenuk mode with the plan compiler on, the plan — inserted
  // into the cache on a miss. Counts stages_compiled (narrow stages),
  // plans_compiled and plan_cache_hits.
  StagePrograms CompileStage(const Klass* in_klass, const SerProgram& udfs,
                             const std::vector<NarrowOp>& ops, bool has_broadcast,
                             const Klass* broadcast_klass);
  CompiledFunction CompileFn(const SerProgram& udfs, const Function* fn);

  // Reserves `n` task ordinals for the fault injector and returns the
  // first. Every stage claims its ordinals before submission, in both
  // modes, so a plan names the same tasks for any worker count.
  int64_t ClaimTaskOrdinals(int n) {
    const int64_t base = task_seq_;
    task_seq_ += n;
    return base;
  }

  // The one Gerenuk stage runner: claims ordinals, takes the stage's
  // speculation decision, opens the stage span, fans the tasks out with
  // prefilled TaskIos (every task counts into tasks_run), and feeds the
  // barrier observation of a speculative stage.
  void RunGerenukStage(const GerenukStageSpec& spec,
                       const std::function<void(GerenukTask&)>& body);
  // Baseline stages: serial, in task order, on the engine heap (which is
  // single-mutator), with the heap's GC time charged to the task's phases.
  void RunBaselineStage(const char* label, int num_tasks, const TaskScheduler::Task& body);

  // Process-mode wire codec for a stage whose task `t` commits one sealed
  // partition into `(*parts)[t]`.
  StageCodec PartitionCodec(std::vector<NativePartition>* parts);

  // Driver-side sink for stage spans (null when tracing is off).
  TraceSink* DriverSink() const { return trace_ != nullptr ? trace_->driver() : nullptr; }

 private:
  const FaultInjector* ActiveFaults() const { return faults_.empty() ? nullptr : &faults_; }
  // The plan-compiler knobs derived from EngineConfig::execution; must agree
  // with VecSignatureOf so the cache key always matches the compiled plan.
  PlanOptions plan_options() const;
  // Stage-submission speculation decision: the governor AND the
  // per-tenant-per-SER oracle (when installed) both have veto power.
  bool ShouldSpeculateFor(uint64_t signature_hash) const;
  // Barrier-side feed: counts one completed speculative stage and records a
  // governor flip. Driver-only, so decisions never depend on the in-flight
  // schedule.
  void ObserveSpeculation(uint64_t signature_hash, int tasks, int aborts_delta);
  void BindObservability(TaskIo* io, WorkerContext& ctx) const;
  // Lowers a freshly transformed program to a plan and caches the pair.
  std::shared_ptr<const SerPlan> CompileAndCachePlan(const ProgramSignature& signature,
                                                     PlanCache::Entry entry);

  EngineConfig config_;
  std::unique_ptr<Heap> heap_;
  std::unique_ptr<WellKnown> wk_;
  ExprPool pool_;
  DataStructAnalyzer layouts_{pool_};
  HeapSerializer kryo_;
  InlineSerializer inline_serde_;
  MemoryTracker memory_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<Trace> trace_;  // allocated only when config.trace
  EngineStats stats_;
  FaultInjector faults_;
  SpeculationGovernor governor_;
  SpeculationOracle oracle_;
  PlanCache* plan_cache_ = nullptr;  // not owned; null outside service mode
  int64_t task_seq_ = 0;
};

// The public surface both front ends share, forwarded to their core.
class EngineFrontEnd {
 public:
  EngineCore& core() { return *core_; }
  Heap& heap() { return core_->heap(); }
  WellKnown& wk() { return core_->wk(); }
  EngineMode mode() const { return core_->mode(); }
  int num_workers() const { return core_->scheduler().num_workers(); }

  void RegisterDataType(const Klass* klass) { core_->RegisterDataType(klass); }
  const DataStructAnalyzer& layouts() const { return core_->layouts(); }

  // Builds a source dataset. `make` returns a rooted heap object per index
  // (the engine roots it during conversion); records are stored per the
  // engine mode. Call ResetMetrics() afterwards to exclude generation cost.
  DatasetPtr Source(const Klass* klass, int64_t count,
                    const std::function<ObjRef(int64_t, RootScope&)>& make) {
    return core_->Source(klass, count, make);
  }

  const EngineStats& stats() const { return core_->stats(); }
  int64_t peak_memory_bytes() const { return core_->memory().peak_bytes(); }
  void ResetMetrics() { core_->ResetMetrics(); }
  // The event timeline (null when config.trace is off). Complete — merged
  // and histogram-fed — after any stage barrier; export with TraceExporter.
  Trace* trace() { return core_->trace(); }
  // Unified metrics snapshot: every EngineStats counter (completeness pinned
  // by the field-count static_assert in metrics.h), per-phase times, plan-op
  // profile totals, and — when tracing — the trace's derived histograms.
  MetricsRegistry metrics() const { return core_->metrics(); }

  // Fault injection targeting (task ordinal, record) pairs; ordinals are
  // assigned in submission order starting at next_task_ordinal().
  FaultInjector& fault_plan() { return core_->faults(); }
  int64_t next_task_ordinal() const { return core_->next_task_ordinal(); }

  // Driver-side speculation governor (consulted at stage submission, fed at
  // stage barriers; see src/exec/fault.h). Flip counts and direct-slow-path
  // task counts surface through stats().
  const SpeculationGovernor& governor() const { return core_->governor(); }

  // Service-mode hooks (see EngineCore): install only while idle.
  void set_plan_cache(PlanCache* cache) { core_->set_plan_cache(cache); }
  PlanCache* plan_cache() const { return core_->plan_cache(); }
  void set_speculation_oracle(SpeculationOracle oracle) {
    core_->set_speculation_oracle(std::move(oracle));
  }
  // Job-level cooperative cancellation (see TaskScheduler::set_cancel_check):
  // probed at every task-attempt boundary of every stage the core runs.
  void set_cancel_check(CancelCheck check) { core_->set_cancel_check(std::move(check)); }

 protected:
  explicit EngineFrontEnd(std::shared_ptr<EngineCore> core) : core_(std::move(core)) {}
  ~EngineFrontEnd() = default;

  std::shared_ptr<EngineCore> core_;
};

}  // namespace gerenuk

#endif  // SRC_DATAFLOW_ENGINE_CORE_H_
