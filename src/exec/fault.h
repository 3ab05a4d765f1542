// Fault-tolerant execution: the fault model, the error taxonomy, and the
// policies the TaskScheduler and both engines share.
//
// Gerenuk's correctness story is "speculate; when an assumption breaks,
// abort and re-execute" — but a production executor survives far more than
// the one failure the paper models. This header generalizes deterministic
// forced SER aborts into a FaultInjector covering five reproducible fault
// kinds (the engines expose it as fault_plan()), and adds the recovery-side
// vocabulary:
//
//   * FaultInjector — deterministic, (task ordinal, record)-keyed faults:
//     forced SER abort (the paper's Fig. 10(b) hook), a task exception at
//     entry, a simulated heap-OOM during slow-path re-execution, a
//     corrupted input record (caught by the partition checksum), and an
//     artificial delay (a straggler). Ordinals are driver-assigned in
//     submission order, so a plan injects the same faults for every worker
//     count and schedule.
//   * TaskError — the structured error a failing task attempt throws;
//     carries the fault kind, task ordinal, attempt number, and the input
//     record count (for quarantine accounting).
//   * RetryPolicy / QuarantinePolicy — how the scheduler responds: bounded
//     attempts with deterministic backoff and a fresh WorkerContext per
//     retry; per-task deadlines with straggler relaunch; fail-fast vs.
//     skip-and-record for poisoned partitions.
//   * SpeculationGovernor — a driver-side abort-rate tracker: past a
//     configured threshold the engines stop speculating and route remaining
//     tasks directly to the slow path, so a workload whose assumptions
//     break on every record degrades gracefully instead of paying
//     speculate-then-abort forever.
#ifndef SRC_EXEC_FAULT_H_
#define SRC_EXEC_FAULT_H_

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace gerenuk {

class NativePartition;

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

enum class TaskErrorKind : uint8_t {
  kException = 0,     // generic task failure (body threw)
  kOom = 1,           // heap exhaustion during slow-path re-execution
  kCorruptInput = 2,  // input partition failed its integrity checksum
  kStraggler = 3,     // attempt exceeded its deadline and was cancelled
  kExecutorLost = 4,  // executor process died / stopped heartbeating mid-task
};

const char* TaskErrorKindName(TaskErrorKind kind);

// Structured task failure. The scheduler classifies these: retryable kinds
// re-enter the queue (bounded by RetryPolicy); corrupt input is permanent —
// retrying cannot repair bytes — so it either fails the stage or is
// quarantined.
class TaskError : public std::runtime_error {
 public:
  TaskError(TaskErrorKind kind, int64_t task_ordinal, int attempt, int64_t input_records,
            const std::string& detail)
      : std::runtime_error("task " + std::to_string(task_ordinal) + " attempt " +
                           std::to_string(attempt) + " [" + TaskErrorKindName(kind) +
                           "]: " + detail),
        kind_(kind),
        task_ordinal_(task_ordinal),
        attempt_(attempt),
        input_records_(input_records),
        detail_(detail) {}

  TaskErrorKind kind() const { return kind_; }
  int64_t task_ordinal() const { return task_ordinal_; }
  int attempt() const { return attempt_; }
  int64_t input_records() const { return input_records_; }
  // The bare detail string, kept separate from what() so the executor wire
  // protocol can round-trip a TaskError without re-parsing the message.
  const std::string& detail() const { return detail_; }
  bool retryable() const { return kind_ != TaskErrorKind::kCorruptInput; }

 private:
  TaskErrorKind kind_;
  int64_t task_ordinal_;
  int attempt_;
  int64_t input_records_;
  std::string detail_;
};

// ---------------------------------------------------------------------------
// Job-level cooperative cancellation
// ---------------------------------------------------------------------------

// Why a running job should stop: a client called JobHandle::cancel(), or the
// job's deadline expired. kNone means "keep going".
enum class CancelCause : uint8_t { kNone = 0, kUserCancel = 1, kDeadline = 2 };

inline const char* CancelCauseName(CancelCause cause) {
  switch (cause) {
    case CancelCause::kNone:
      return "none";
    case CancelCause::kUserCancel:
      return "cancel";
    case CancelCause::kDeadline:
      return "deadline";
  }
  return "?";
}

// Probe installed by the service layer (TaskScheduler::set_cancel_check):
// returns the first non-kNone cause once the enclosing job should stop. Must
// be cheap and thread-safe — the scheduler polls it from every worker at
// task-attempt boundaries and between retry backoffs.
using CancelCheck = std::function<CancelCause()>;

// Thrown by the scheduler when the cancel check fires. Unlike TaskError it
// is never retryable: the stage fails fast, unwinds out of the engine and the
// job body, and the service maps the cause to kCancelled/kDeadlineExceeded.
class JobCancelled : public std::runtime_error {
 public:
  explicit JobCancelled(CancelCause cause)
      : std::runtime_error(cause == CancelCause::kDeadline
                               ? "job deadline exceeded (cooperative cancel at a task boundary)"
                               : "job cancelled (cooperative cancel at a task boundary)"),
        cause_(cause) {}

  CancelCause cause() const { return cause_; }

 private:
  CancelCause cause_;
};

// ---------------------------------------------------------------------------
// Recovery policies
// ---------------------------------------------------------------------------

// What to do with a task whose input is poisoned (checksum mismatch after
// retries are ruled out): fail the stage, or skip the partition and record
// the loss in EngineStats.
enum class QuarantinePolicy : uint8_t { kFailFast = 0, kSkip = 1 };

// Scheduler-level retry policy for parallel stages. Attempt numbers start
// at 1; a task runs at most `max_attempts` times in total.
struct RetryPolicy {
  int max_attempts = 1;  // 1 = seed behavior: any exception fails the stage
  // Deterministic backoff before attempt n: backoff_base_ms << (n - 2),
  // computed from the attempt number alone (never from wall-clock state).
  int64_t backoff_base_ms = 0;
  // Deterministic jitter added on top of the exponential term: a SplitMix64
  // hash of (jitter_seed, task, attempt) reduced to [0, backoff_jitter_ms].
  // Same seed + same task + same attempt => same delay, on every worker
  // count and every run — jitter decorrelates retries without giving up
  // schedule reproducibility. 0 disables (seed behavior).
  int64_t backoff_jitter_ms = 0;
  uint64_t jitter_seed = 0;
  // Full backoff (exponential + jitter) before running `attempt` of `task`;
  // 0 for first attempts. Pure function of its arguments and the policy.
  int64_t BackoffMsFor(int64_t task, int attempt) const;
  // Recycle the executing worker's context (fresh heap, serializer, roots)
  // before a retry, so heap damage from the failed attempt — a mid-GC
  // exception, simulated OOM — cannot leak into the next one.
  bool fresh_context_on_retry = true;
  // Per-attempt deadline; 0 disables. Cancellation is cooperative: the
  // attempt observes WorkerContext::cancelled() (the injected-delay loop
  // polls it), throws TaskError{kStraggler}, and the scheduler relaunches
  // the task on another worker. Detection is in-attempt, so relaunch counts
  // are deterministic for any worker count.
  int64_t task_deadline_ms = 0;
  QuarantinePolicy quarantine = QuarantinePolicy::kFailFast;
};

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

enum class FaultKind : uint8_t {
  kSerAbort = 0,      // forced SER abort at (task, record) — the legacy plan
  kException = 1,     // throw TaskError{kException} at task entry
  kOom = 2,           // throw TaskError{kOom} at a slow-path record
  kCorruptInput = 3,  // flip a byte of the input partition at task entry
  kDelay = 4,         // sleep at task entry (straggler), cooperatively
  kExecutorKill = 5,  // raise(signal) in a forked executor at task entry
};

// Process-mode fault routing: forked executor children set this once after
// fork so kExecutorKill faults raise a real signal (genuine process death,
// exercising the supervisor) instead of throwing. In the driver / in-process
// mode the same fault throws TaskError{kExecutorLost}, which is retryable,
// so one fault plan behaves equivalently in both modes.
void SetInForkedExecutor(bool in_executor);
bool InForkedExecutor();

// One planned fault. `max_attempt` gates re-firing across retries: a fault
// fires on attempts <= max_attempt, or on every attempt when it is < 0.
struct FaultSpec {
  FaultKind kind = FaultKind::kSerAbort;
  int64_t record = 0;      // kSerAbort / kOom: record index (or kLateInTask)
  int64_t delay_ms = 0;    // kDelay
  int max_attempt = 1;
  int signal = 0;          // kExecutorKill: signal to raise (SIGKILL, SIGSTOP)
  // kCorruptInput flips one input byte exactly once; attempts of one task
  // are serialized by the scheduler, so this needs no synchronization.
  // Mutable: the plan is shared read-only across workers otherwise.
  mutable bool applied = false;

  bool FiresOn(int attempt) const { return max_attempt < 0 || attempt <= max_attempt; }
};

// The unified deterministic fault plan (generalizing the Fig. 10(b) hook).
// All injection points key on the task's driver-assigned ordinal, so the
// same faults hit the same tasks for every worker count. The plan is
// read-only during stage execution (corruption's one-shot `applied` flag is
// confined to the serialized attempts of its own task).
class FaultInjector {
 public:
  // Sentinel record index: fault late in the task (records - 1 - records/8),
  // where nearly all speculative work is wasted — the worst case the paper's
  // forced-abort experiment probes.
  static constexpr int64_t kLateInTask = -2;

  bool empty() const { return faults_.empty(); }
  void Clear() { faults_.clear(); }

  // A forced SER abort (the Fig. 10(b) hook), firing on every attempt.
  void AbortTask(int64_t task_ordinal, int64_t record = kLateInTask) {
    Add(task_ordinal, FaultSpec{FaultKind::kSerAbort, record, 0, -1});
  }
  // Record index at which the given attempt's fast path aborts, or -1. A
  // task with no records never enters its record loop and cannot abort.
  int64_t RecordFor(int64_t task_ordinal, int64_t records, int attempt = 1) const {
    return RecordOf(FaultKind::kSerAbort, task_ordinal, records, attempt);
  }

  void InjectException(int64_t task_ordinal, int max_attempt = 1) {
    Add(task_ordinal, FaultSpec{FaultKind::kException, 0, 0, max_attempt});
  }
  void InjectSlowPathOom(int64_t task_ordinal, int64_t record = kLateInTask,
                         int max_attempt = 1) {
    Add(task_ordinal, FaultSpec{FaultKind::kOom, record, 0, max_attempt});
  }
  void InjectCorruption(int64_t task_ordinal) {
    Add(task_ordinal, FaultSpec{FaultKind::kCorruptInput, 0, 0, -1});
  }
  void InjectDelay(int64_t task_ordinal, int64_t delay_ms, int max_attempt = 1) {
    Add(task_ordinal, FaultSpec{FaultKind::kDelay, 0, delay_ms, max_attempt});
  }
  // Kill the executor running this task at task entry. In a forked executor
  // the process raises `signal` (SIGKILL = death, SIGSTOP = wedged —
  // heartbeats stop and the supervisor SIGKILLs it on timeout); in-process
  // it throws the retryable TaskError{kExecutorLost} instead. Defaults to
  // firing on attempt 1 only, so the relaunched attempt survives.
  void InjectExecutorKill(int64_t task_ordinal, int signal = 9 /* SIGKILL */,
                          int max_attempt = 1) {
    Add(task_ordinal, FaultSpec{FaultKind::kExecutorKill, 0, 0, max_attempt, signal});
  }

  // Slow-path OOM record for the given attempt, or -1 (same contract as
  // RecordFor). Polled once per slow-path run, then compared per record.
  int64_t OomRecordFor(int64_t task_ordinal, int64_t records, int attempt) const {
    return RecordOf(FaultKind::kOom, task_ordinal, records, attempt);
  }

  // Applies entry faults for one attempt, in deterministic order: first
  // executor kill (raise the signal in a forked executor, or throw
  // TaskError{kExecutorLost} in-process), then corruption (flip one input
  // byte, once), then delay (sleeps in slices, polling `cancelled`; throws
  // TaskError{kStraggler} when it returns true), then exception (throws
  // TaskError{kException}). Checksum
  // verification happens after this, at the stage-input boundary, so a
  // flipped byte is caught there rather than as undefined interpreter
  // behavior.
  void AtTaskEntry(int64_t task_ordinal, int attempt, const NativePartition* input,
                   const std::function<bool()>& cancelled) const;

 private:
  void Add(int64_t task_ordinal, FaultSpec spec) {
    faults_[task_ordinal].push_back(spec);
  }
  const FaultSpec* Find(FaultKind kind, int64_t task_ordinal, int attempt) const;
  int64_t RecordOf(FaultKind kind, int64_t task_ordinal, int64_t records, int attempt) const;

  std::unordered_map<int64_t, std::vector<FaultSpec>> faults_;
};

// ---------------------------------------------------------------------------
// Adaptive speculation governor
// ---------------------------------------------------------------------------

// Driver-side abort-rate tracker. The engines consult it once per stage at
// submission and feed it the stage's (speculative tasks, aborts) at the
// barrier, so its decisions depend only on completed-stage totals — never on
// the in-flight schedule — and reproduce exactly for any worker count.
//
// Once the cumulative abort rate over speculatively executed tasks reaches
// `threshold` (with at least `min_tasks` observed), the governor flips off:
// remaining stages run the slow path directly, skipping the
// speculate-then-abort tax. With speculation off no new aborts accrue, so
// the rate freezes and the governor stays off — one deterministic flip.
// It is the one abort-rate rule: each engine core keeps one, and the service
// keeps one per (tenant, SER) behind its SpeculationOracle.
class SpeculationGovernor {
 public:
  // threshold <= 0 disables the governor (always speculate).
  SpeculationGovernor(double threshold, int min_tasks)
      : threshold_(threshold), min_tasks_(min_tasks) {}

  bool enabled() const { return threshold_ > 0.0; }
  bool ShouldSpeculate() const { return !enabled() || speculating_; }

  // Reports one completed speculative stage. Returns true if this
  // observation flipped the governor off.
  bool Observe(int64_t tasks, int64_t aborts) {
    if (!enabled() || !speculating_ || tasks <= 0) {
      return false;
    }
    tasks_ += tasks;
    aborts_ += aborts;
    if (tasks_ >= min_tasks_ &&
        static_cast<double>(aborts_) >= threshold_ * static_cast<double>(tasks_)) {
      speculating_ = false;
      return true;
    }
    return false;
  }

 private:
  double threshold_;
  int min_tasks_;
  int64_t tasks_ = 0;
  int64_t aborts_ = 0;
  bool speculating_ = true;
};

}  // namespace gerenuk

#endif  // SRC_EXEC_FAULT_H_
