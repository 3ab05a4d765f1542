// The speculative execution engine (§3.6): runs a task's transformed SER
// over native data; if an abort instruction fires, the executor is
// "terminated and relaunched" — every intermediate buffer and builder is
// discarded, and the *original* program re-executes over the same
// (immutable, hence intact) input, deserializing each record into heap
// objects and re-serializing the outputs into the native format the
// downstream task expects.
//
// That response is written once: RunTaskIo's speculation protocol runs a
// pair of TaskBodies. The per-record loop over `TaskIo::input` is the default
// pair (RecordLoop); reduce folds supply a fast and a slow fold body, so
// every Gerenuk task commits, aborts and re-executes the same way.
//
// The per-phase time breakdown (compute / GC / serialize / deserialize)
// accumulates into the caller's PhaseTimes — the numbers behind Figure 6's
// stacked bars and Figure 10's re-execution costs.
#ifndef SRC_EXEC_SER_EXECUTOR_H_
#define SRC_EXEC_SER_EXECUTOR_H_

#include <functional>

#include "src/exec/fault.h"
#include "src/exec/plan.h"
#include "src/serde/inline_serializer.h"
#include "src/support/trace.h"

namespace gerenuk {

struct SpecOutcome {
  bool committed_fast_path = true;  // false => the slow path produced output
  int aborts = 0;
  AbortReason abort_reason = AbortReason::kForced;
  int64_t records_processed = 0;
  int64_t records_wasted = 0;  // fast-path work discarded by the abort
};

// Engine-level task description: where records come from, where emitted
// records go (the engine may route them to shuffle buckets), and any extra
// arguments for the task body (e.g. a broadcast variable's record). The
// record fields serve the RecordLoop bodies; a fold task reads its own input
// and leaves them (and `input`, so there is no checksum gate) unset.
struct TaskIo {
  const NativePartition* input = nullptr;
  // Compiled plan for the transformed program; when set, the fast path runs
  // on the direct-threaded PlanExecutor instead of the tree-walking
  // Interpreter (identical semantics — the differential tests prove it).
  // `extra_plans` register auxiliary function plans (key extraction, reduce
  // folds) with the same runner.
  const SerPlan* plan = nullptr;
  std::vector<const SerPlan*> extra_plans;
  // Fast path: `addr` is a committed address or builder; the engine renders
  // it wherever it wants via `builders` and may call back into `runner`
  // (e.g. to evaluate a key-extraction function on the emitted record).
  std::function<void(int64_t addr, const Klass*, SerRunner& runner, BuilderStore& builders)>
      emit_native;
  // Slow path: emitted record as a rooted heap object.
  std::function<void(ObjRef, const Klass*, SerRunner& runner)> emit_heap;
  // Extra body arguments. Fast path gets kAddr values, slow path kRef.
  std::vector<Value> fast_args;
  std::vector<Value> slow_args;
  // Invoked after a fast-path abort, before the slow path re-runs: the
  // engine discards whatever partial output its emit callbacks produced
  // (the simulator's analogue of tearing down the aborted executor's
  // intermediate buffers).
  std::function<void()> on_abort;
  // Invoked before every slow-path record with the current argument vector
  // (initialized from slow_args). Engines use it to materialize heap-side
  // arguments lazily (e.g. a broadcast object deserialized into the
  // executing worker's heap) and to re-read rooted references the GC may
  // have moved between records.
  std::function<void(std::vector<Value>& args)> refresh_slow_args;
  // Diagnostic context stamped into integrity-failure TaskErrors: which
  // stage this task belongs to and which input partition it reads. A seal
  // mismatch report that names (stage, partition, attempt) is actionable;
  // a bare "checksum failed" is not.
  const char* stage_label = "";
  int partition = -1;
  // Fault injection: this task's driver-assigned ordinal and the engine's
  // plan. A null plan disables injection. A non-empty plan requires a
  // non-negative ordinal (RunTaskIo checks).
  int64_t task_ordinal = -1;
  const FaultInjector* faults = nullptr;
  // Attempt number of this execution (1-based; the scheduler's retry state),
  // used to gate fault re-firing and stamped into TaskErrors.
  int attempt = 1;
  // Cooperative cancellation probe (WorkerContext::cancelled); polled by
  // long-running injected work so a deadline turns into a straggler error.
  std::function<bool()> cancelled;
  // Tracing sink of the executing worker (null = tracing off): the executor
  // emits fast-path/slow-path spans, abort instants, and per-record
  // deserialization spans into it.
  TraceSink* trace = nullptr;
  // Sampled plan-op profiler (see PlanExecutor::EnableProfiling): when
  // `plan_profile` is set and the stride is positive, the fast path's plan
  // dispatch records per-opcode counts and sampled time into it.
  OpProfile* plan_profile = nullptr;
  int64_t plan_profile_stride = 0;

  // Planned slow-path OOM: the record index (of `records` slow-path inputs)
  // at which this attempt runs out of heap, or -1.
  int64_t SlowPathOomRecord(int64_t records) const;
  // Throws the TaskError{kOom} a slow path raises at that record.
  [[noreturn]] void ThrowSlowPathOom(int64_t records) const;
};

// What a fast body sees of one speculation attempt: the task, the runner the
// protocol built for it (the tree-walking Interpreter, or a PlanExecutor
// when TaskIo::plan is set), and the runner's builder scratch.
struct FastPath {
  TaskIo& io;
  SerRunner& runner;
  PlanExecutor* plan;  // `runner` when it is a compiled plan, else null
  BuilderStore& builders;
  // Records the body has finished; an abort counts them as wasted work.
  int64_t records_done = 0;

  // A fold body has no per-record hook: a forced abort planned on its task
  // fires once, at fold entry.
  void AbortIfForcedAtEntry() const;
};

// Notes one fast-path abort: the abort instant on `trace` (emitted while the
// enclosing fast-path span is still open, so it nests inside it) and the
// count and reason on `outcome`.
void RecordAbort(const SerAbort& abort, TraceSink* trace, SpecOutcome* outcome);

// The two halves of a task the protocol runs. `fast` runs the transformed
// program on the protocol's runner and may throw SerAbort. `slow` runs the
// original program on a fresh Interpreter and returns the records it
// processed.
struct TaskBodies {
  std::function<void(FastPath&)> fast;
  std::function<int64_t(Interpreter&)> slow;
};

class SerExecutor {
 public:
  SerExecutor(Heap& heap, WellKnown& wk, const DataStructAnalyzer& layouts,
              const SerProgram& original, const SerProgram& transformed)
      : heap_(heap),
        wk_(wk),
        layouts_(layouts),
        original_(original),
        transformed_(transformed) {}

  // The paper's user-provided `launch` method: invoked when a new executor
  // replaces an aborted one. Application-independent; defaults to nothing
  // (the simulator reuses the calling thread as the fresh executor).
  void set_launch_hook(std::function<void()> hook) { launch_hook_ = std::move(hook); }

  // Executes the task body once per input record. Output records are
  // appended to `*output` in the inline native format on both paths.
  // `faults`, when given, injects this task's planned faults (`task_ordinal`
  // keys into the plan and must be non-negative if the plan is non-empty —
  // the default matches TaskIo's "no ordinal assigned" sentinel).
  SpecOutcome RunTask(const NativePartition& input, NativePartition* output, PhaseTimes& times,
                      const FaultInjector* faults = nullptr, int64_t task_ordinal = -1);

  // Runs only the slow path (used by the unmodified-baseline engines and by
  // tests that need reference output).
  void RunSlowPath(const NativePartition& input, NativePartition* output, PhaseTimes& times);

  // The default bodies: the task body runs once per record of `io.input`,
  // reading through a RecordChannel and emitting through io's callbacks.
  TaskBodies RecordLoop(TaskIo& io, PhaseTimes& times);

  // The speculation protocol: the entry gates, then `bodies.fast` (inside the
  // fast-path span); on an abort, the abort instant, `io.on_abort`, the launch
  // hook and `bodies.slow` (inside the slow-path span). The two-argument form
  // runs RecordLoop(io, times).
  SpecOutcome RunTaskIo(TaskIo& io, PhaseTimes& times, const TaskBodies& bodies);
  SpecOutcome RunTaskIo(TaskIo& io, PhaseTimes& times) {
    return RunTaskIo(io, times, RecordLoop(io, times));
  }

  // Governor-degraded execution: skips speculation entirely and runs
  // `bodies.slow`, but keeps the task-entry gates (fault injection, input
  // checksum) and the released-slot-on-throw contract of RunTaskIo.
  void RunDirectSlowPath(TaskIo& io, PhaseTimes& times, const TaskBodies& bodies);

 private:
  bool RunFastBody(TaskIo& io, PhaseTimes& times, const TaskBodies& bodies,
                   SpecOutcome* outcome);
  // The slow path inside its span (`span_arg` 1 = routed directly, without a
  // preceding abort); a throw tears down the partial output via on_abort.
  int64_t RunSlowBody(TaskIo& io, PhaseTimes& times, const TaskBodies& bodies, int span_arg);
  // Task-entry gates: applies planned entry faults for this attempt, then
  // verifies a sealed input's integrity checksum (throws TaskError).
  void EnterTask(TaskIo& io);
  void RecordLoopFast(FastPath& fast);
  int64_t RecordLoopSlow(TaskIo& io, PhaseTimes& times, Interpreter& interp);
  // RunTask's routing: both paths append to `output`; an abort releases it.
  TaskIo OutputIo(const NativePartition& input, NativePartition* output, PhaseTimes& times,
                  InlineSerializer& serde);

  Heap& heap_;
  WellKnown& wk_;
  const DataStructAnalyzer& layouts_;
  const SerProgram& original_;
  const SerProgram& transformed_;
  std::function<void()> launch_hook_;
};

}  // namespace gerenuk

#endif  // SRC_EXEC_SER_EXECUTOR_H_
