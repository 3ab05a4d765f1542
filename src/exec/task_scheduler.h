// The parallel task scheduler: fans a stage's per-partition tasks out to a
// persistent worker pool, the analogue of a multi-core Spark/Hadoop executor.
//
// Threading model (see DESIGN.md "Threading model"):
//   * Worker confinement — every worker owns a WorkerContext with its own
//     managed mini-heap (sharing the engine's KlassRegistry, so Klass
//     pointers agree everywhere), WellKnown cache, InlineSerializer, and an
//     EngineStats accumulator. A task runs entirely inside one context:
//     slow-path (re-execution) heap objects, GC roots, and interpreter
//     frames never cross workers.
//   * Stage barrier — RunStage blocks until every task of the stage has
//     reached a terminal state (committed, quarantined, or failed), then
//     merges each worker's EngineStats into the engine's copy in worker
//     order and clears them. Counts (tasks, aborts, commits, retries,
//     shuffle bytes) are therefore deterministic for any worker count;
//     PhaseTimes become summed-CPU-time across workers rather than wall
//     time once num_workers > 1.
//   * Shared data — task inputs (committed native partitions, merged
//     segments, compiled programs, layouts) are read-only during a stage;
//     task outputs go to per-task slots the driver pre-sizes, so no two
//     tasks write the same element. The scheduler's barrier provides the
//     happens-before edges between driver writes, worker reads, and the
//     driver's post-stage reads.
//   * Shared-mutator stages — kBaseline tasks mutate the engine's single
//     managed heap (the seed's single-mutator constraint), so baseline
//     stages are submitted through RunStageSerial: same Task signature and
//     stats merging, executed in task order on the calling thread
//     (fail-fast, like the seed).
//
// Fault tolerance (see DESIGN.md "Fault model & recovery"): tasks that
// abort re-execute on the slow path *inside the worker* (the SerExecutor
// relaunch loop), so one abort never stalls sibling tasks. Tasks that
// *throw* are governed by the stage's RetryPolicy: retryable failures
// re-enter the queue with a bounded attempt budget, deterministic backoff,
// and a reset worker heap; straggler cancellations relaunch on another
// worker; corrupt input is either fatal or quarantined. Attempts of one
// task never overlap, so exactly one attempt commits into the task's
// pre-sized output slot — first (and only) committed result wins, keeping
// stage output byte-identical for any worker count.
#ifndef SRC_EXEC_TASK_SCHEDULER_H_
#define SRC_EXEC_TASK_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/exec/fault.h"
#include "src/runtime/heap.h"
#include "src/serde/inline_serializer.h"
#include "src/serde/wellknown.h"
#include "src/support/bytes.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace gerenuk {

// Per-worker executor state. One mutator per heap: a context is only ever
// used by the worker thread that owns it (or by the calling thread, for
// serial stages and single-worker pools).
class WorkerContext {
 public:
  WorkerContext(int worker_id, const HeapConfig& heap_config, KlassRegistry* shared_klasses,
                MemoryTracker* tracker)
      : worker_id_(worker_id), heap_(heap_config, shared_klasses), wk_(heap_), serde_(heap_) {
    heap_.set_memory_tracker(tracker);
  }
  WorkerContext(const WorkerContext&) = delete;
  WorkerContext& operator=(const WorkerContext&) = delete;

  int worker_id() const { return worker_id_; }
  Heap& heap() { return heap_; }
  WellKnown& wk() { return wk_; }
  InlineSerializer& serde() { return serde_; }
  // Stage-local accumulator; merged into the engine's stats and cleared at
  // every stage barrier.
  EngineStats& stats() { return stats_; }

  // This worker's trace sink (null = tracing off). The sink is also attached
  // to the worker heap so GC pauses are attributed to the running task.
  TraceSink* trace_sink() const { return trace_sink_; }
  void set_trace_sink(TraceSink* sink) {
    trace_sink_ = sink;
    heap_.set_trace_sink(sink);
  }

  // Resets the heap in place (Heap::Reset; stats survive). Used between
  // retry attempts so damage from a failed attempt — half-built objects, a
  // heap filled mid-OOM — cannot leak into the next one. The WellKnown cache
  // and serializer hold no heap objects and keep their Heap&. Only the
  // owning worker may call this, between tasks, once the failed attempt has
  // unwound every root it registered.
  void Recycle() { heap_.Reset(); }

  // --- Per-attempt state, set by the scheduler before each task attempt ---

  void BeginAttempt(int attempt, int64_t deadline_ms) {
    attempt_ = attempt;
    deadline_ms_ = deadline_ms;
    cancel_.store(false, std::memory_order_relaxed);
    attempt_start_ = std::chrono::steady_clock::now();
  }
  // Attempt number of the running task, starting at 1.
  int attempt() const { return attempt_; }
  // Cooperative cancellation probe: true once the attempt is past its
  // deadline (or was cancelled externally). Long-running task code — the
  // injected-delay loop in particular — polls this and throws
  // TaskError{kStraggler} so the scheduler can relaunch elsewhere.
  bool cancelled() const {
    if (cancel_.load(std::memory_order_relaxed)) {
      return true;
    }
    if (deadline_ms_ <= 0) {
      return false;
    }
    auto elapsed = std::chrono::steady_clock::now() - attempt_start_;
    return std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count() >=
           deadline_ms_;
  }
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }

 private:
  int worker_id_;
  Heap heap_;
  WellKnown wk_;
  InlineSerializer serde_;
  EngineStats stats_;
  TraceSink* trace_sink_ = nullptr;

  int attempt_ = 1;
  int64_t deadline_ms_ = 0;
  std::atomic<bool> cancel_{false};
  std::chrono::steady_clock::time_point attempt_start_{};
};

// Wire codec for one stage's process-mode execution: how an executor child
// serializes a finished task's output onto the reply frame, and how the
// driver lands those bytes back into the task's pre-sized output slot. A
// stage without a codec cannot cross a process boundary and runs inline on
// the driver (context 0) even when the scheduler is in process mode.
struct StageCodec {
  // Executor-side: append task `task`'s output bytes (runs after the task
  // body committed its output into this process's slot).
  std::function<void(int task, ByteBuffer* out)> encode;
  // Driver-side: parse the executor's bytes into the driver's output slot.
  // Must throw TaskError{kCorruptInput} (not WireFormatError) on damage.
  std::function<void(int task, ByteReader* in)> decode;
};

// Liveness/relaunch policy for the driver-side executor supervisor.
struct ExecutorSupervisorConfig {
  // Child heartbeat period.
  int64_t heartbeat_ms = 25;
  // No heartbeat (or task result) for this long => the executor is declared
  // wedged, SIGKILLed, and its in-flight task rerouted. 0 disables the
  // liveness check (a SIGSTOP'd child would then hang the stage).
  int64_t heartbeat_timeout_ms = 1000;
  // Per-slot budget of fresh processes after the initial launch.
  int max_executor_relaunches = 3;
};

class TaskScheduler {
 public:
  // A task: runs one partition's work inside the given worker context.
  //
  // Fault-tolerance contract: a task that throws must leave its output slot
  // released (engines route cleanup through their on_abort teardown), so a
  // retry starts from a clean slot and a quarantined task contributes no
  // partial records.
  using Task = std::function<void(WorkerContext& ctx, int task_index)>;

  // Creates `num_workers` contexts (and, when num_workers > 1, as many
  // persistent worker threads). Worker heaps use `worker_heap_config` and
  // share `shared_klasses`; allocations report into `tracker`.
  //
  // With `process_mode` set, NO worker threads are spawned (fork safety:
  // the driver must be effectively single-threaded when it forks); stages
  // that carry a StageCodec run in forked executor processes under the
  // supervisor, and codec-less stages run inline on context 0.
  TaskScheduler(int num_workers, const HeapConfig& worker_heap_config,
                KlassRegistry* shared_klasses, MemoryTracker* tracker,
                bool process_mode = false);
  ~TaskScheduler();
  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  int num_workers() const { return static_cast<int>(contexts_.size()); }
  // Worker `w`'s context; touch it only between stages.
  WorkerContext& context(int w) { return *contexts_[static_cast<size_t>(w)]; }

  // Policy applied by every subsequent RunStage. The default (1 attempt,
  // fail-fast) reproduces the seed's behavior exactly.
  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }
  const RetryPolicy& retry_policy() const { return policy_; }

  bool process_mode() const { return process_mode_; }
  void set_supervisor_config(const ExecutorSupervisorConfig& config) {
    supervisor_config_ = config;
  }
  const ExecutorSupervisorConfig& supervisor_config() const { return supervisor_config_; }

  // Job-level cooperative cancellation (service mode). The check is probed
  // at every task-attempt boundary — before an attempt starts, in slices of
  // a retry backoff sleep, and between serial-stage tasks — and a non-kNone
  // cause fails the attempt with JobCancelled (never retried), so the stage
  // unwinds promptly with whatever tasks already committed reflected in the
  // stats. Install while the scheduler is idle (between stages), like
  // set_trace: workers read it without synchronization beyond the stage
  // barrier. Pass nullptr to detach.
  void set_cancel_check(CancelCheck check) { cancel_check_ = std::move(check); }

  // Attaches a trace (or detaches with nullptr): each worker context gets
  // its per-worker sink, task attempts are bracketed with spans, scheduler
  // decisions (retry/relaunch/quarantine) become instants, and worker sinks
  // are drained into the merged timeline at every stage barrier. Call
  // before any stage runs — sink assignment is not synchronized.
  void set_trace(Trace* trace);
  Trace* trace() const { return trace_; }

  // Runs tasks [0, num_tasks) across the pool and blocks until every task
  // is terminal (the stage barrier), then merges worker stats — plus the
  // stage's retry/relaunch/quarantine counters — into *stage_stats in
  // worker order. The first task error (by task index) is rethrown.
  // With a single worker the stage runs inline on the calling thread.
  //
  // In process mode, a stage that supplies `codec` executes in forked
  // executor processes: the supervisor dispatches tasks over the wire,
  // classifies executor death into TaskError{kExecutorLost} (retryable
  // through the same RetryPolicy machinery), relaunches dead executors
  // within budget, and lands codec-decoded outputs into the driver's
  // pre-sized slots — preserving the byte-identical-output invariant.
  void RunStage(int num_tasks, const Task& task, EngineStats* stage_stats,
                const StageCodec* codec = nullptr);

  // Same submission API and stats merging, but every task runs on the
  // calling thread in task order, inside context 0 — for stages that mutate
  // a shared single-mutator heap (the kBaseline engine heap). Fail-fast:
  // retries never apply (the shared heap cannot be recycled per attempt).
  void RunStageSerial(int num_tasks, const Task& task, EngineStats* stage_stats);

 private:
  // One queued execution of a task (a retry or a straggler relaunch).
  struct Attempt {
    int task = 0;
    int attempt = 1;          // 1-based
    int banned_worker = -1;   // straggler relaunch: not on this worker
    bool fresh_context = false;
    // Process mode only: earliest steady-clock ms at which the supervisor
    // may dispatch this retry (drives backoff without sleeping the driver).
    int64_t not_before_ms = 0;
  };

  void WorkerLoop(int slot);
  void RunTasksOn(WorkerContext& ctx, int slot);
  void RunAttempt(WorkerContext& ctx, int task, int attempt, bool fresh_context);
  // Throws JobCancelled when the installed cancel check reports a cause.
  void ThrowIfJobCancelled() const;
  // Classifies a failed attempt under mu_: requeue, quarantine, or record
  // the error. `slot` is the worker the attempt ran on (banned for straggler
  // relaunches). Returns true if the stage gained new runnable work.
  bool HandleFailure(int task, int attempt, int slot, std::exception_ptr error);
  // After a JobCancelled (under mu_): every task that has not started is
  // terminal, so the stage ends once the attempts in flight do.
  void CloseStageOnCancel();
  void MergeStats(EngineStats* stage_stats);
  void RethrowFirstError();

  // Process mode: the driver-side supervisor loop — fork one executor per
  // slot, dispatch over the wire, poll for results/heartbeats, classify
  // deaths, relaunch within budget.
  void RunStageProcess(int num_tasks, const Task& task, EngineStats* stage_stats,
                       const StageCodec& codec);
  // Runs inside the forked child: heartbeat thread + blocking task loop.
  // Never returns (always _exit).
  [[noreturn]] void ExecutorChildMain(int fd, int slot, const StageCodec& codec);

  std::vector<std::unique_ptr<WorkerContext>> contexts_;
  std::vector<std::thread> threads_;
  RetryPolicy policy_;
  CancelCheck cancel_check_;  // null = no job-level cancellation
  Trace* trace_ = nullptr;
  bool process_mode_ = false;
  ExecutorSupervisorConfig supervisor_config_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a stage / new retries
  std::condition_variable done_cv_;   // the driver waits for the barrier
  uint64_t stage_gen_ = 0;            // bumped per stage (guarded by mu_)
  bool shutdown_ = false;             // guarded by mu_
  const Task* current_ = nullptr;     // guarded by mu_ (stable during a stage)
  int num_tasks_ = 0;                 // guarded by mu_
  int next_fresh_ = 0;                // next first-attempt task (guarded by mu_)
  int tasks_terminal_ = 0;            // committed/quarantined/failed (guarded by mu_)
  int workers_done_ = 0;              // guarded by mu_
  std::deque<Attempt> retry_queue_;   // guarded by mu_
  // Per-stage fault-tolerance counters (guarded by mu_), merged into the
  // stage stats at the barrier. Sums of per-task events, so they are
  // deterministic for any worker count.
  int stage_retries_ = 0;
  int stage_relaunches_ = 0;
  int stage_quarantined_tasks_ = 0;
  int64_t stage_quarantined_records_ = 0;
  // Process-mode supervisor counters (driver thread only).
  int stage_executors_launched_ = 0;
  int stage_executor_deaths_ = 0;
  int stage_executor_relaunches_ = 0;
  int64_t stage_heartbeats_ = 0;
  // (task_index, exception) pairs captured during the stage; guarded by mu_.
  std::vector<std::pair<int, std::exception_ptr>> errors_;
};

}  // namespace gerenuk

#endif  // SRC_EXEC_TASK_SCHEDULER_H_
