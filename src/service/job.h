// Job-level types of the multi-tenant engine service: what a client submits
// (JobSpec), what a job body sees (EngineContext), what comes back
// (JobResult via JobHandle), and the queued form the admission controller
// schedules (QueuedJob).
//
// A job body is a plain function over one pooled engine slot. It returns the
// job's canonical output bytes as a string — the service never interprets
// them, it only stores them in the result — so "byte-identical to a
// sequential run" is checkable by the caller with a string compare. A body
// that throws fails the job with the exception's message; it never takes the
// service down.
#ifndef SRC_SERVICE_JOB_H_
#define SRC_SERVICE_JOB_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "src/support/metrics.h"

namespace gerenuk {

class SparkEngine;
class HadoopEngine;
class AdmissionController;

// Terminal states are kSucceeded / kFailed / kRejected / kCancelled /
// kDeadlineExceeded. kRejected is decided synchronously at Submit (admission
// queue or byte budget full, invalid spec, or service shut down). kCancelled
// and kDeadlineExceeded resolve either synchronously (the job was still
// queued) or cooperatively at the next task-attempt boundary (the job was
// running), in which case the result carries the partial EngineStats delta.
enum class JobStatus : uint8_t {
  kQueued,
  kRunning,
  kSucceeded,
  kFailed,
  kRejected,
  kCancelled,
  kDeadlineExceeded,
};

inline const char* JobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kSucceeded:
      return "succeeded";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kRejected:
      return "rejected";
    case JobStatus::kCancelled:
      return "cancelled";
    case JobStatus::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "?";
}

// One pooled engine slot as a job body sees it: two front ends over the
// slot's one EngineCore (heap, class registry, scheduler, plan cache). Both
// run on the slot's dispatcher thread, so a body may use either (or both)
// without synchronizing. `setup` is the slot's ServiceConfig::setup payload
// — klasses and SER programs built once per slot, shared by every job that
// runs on it (registering the same data types per job would redefine them
// and defeat the signature-keyed plan cache).
struct EngineContext {
  SparkEngine* spark = nullptr;
  HadoopEngine* hadoop = nullptr;
  std::shared_ptr<void> setup;
  int slot = 0;
};

struct JobSpec {
  std::string name;  // metrics/trace label; not part of scheduling identity
  // DRR cost in abstract units (>= 1): a tenant submitting cost-4 jobs gets
  // one dispatched for every four cost-1 jobs of its neighbors.
  int64_t cost = 1;
  // Wall-clock budget from Submit to completion. 0 inherits the service's
  // default_deadline_ms (0 there too = no deadline); negative is rejected at
  // Submit. Expiry is checked when the job is dequeued and cooperatively at
  // every task-attempt boundary while it runs; a body that finishes despite
  // an expired deadline still succeeds (the work is done — keep it).
  int64_t deadline_ms = 0;
  // Within this tenant's queue only: higher priority dispatches first, FIFO
  // among equals. Cross-tenant fairness is still DRR — priority never lets
  // one tenant starve another.
  int priority = 0;
  // Estimated input bytes, used for byte-quota admission (corrected by the
  // tenant's observed output/input ratio). 0 = unknown: the job bypasses
  // byte accounting entirely.
  int64_t input_bytes = 0;
  // The job body; returns the job's canonical output bytes.
  std::function<std::string(EngineContext&)> run;
};

// Everything a terminal job reports. `stats` is the per-job EngineStats
// delta: the dispatcher resets the slot's metrics before the body runs and
// snapshots them (the slot's one core) after it returns — including for
// kCancelled / kDeadlineExceeded bodies, whose partial progress is visible.
struct JobResult {
  JobStatus status = JobStatus::kQueued;
  std::string output;
  std::string error;  // kFailed: exception message; kRejected: admission reason
  EngineStats stats;
  int64_t queue_wait_ns = 0;
  int64_t exec_ns = 0;
};

namespace internal {

// Shared between the client's JobHandle, the service's dispatcher, and the
// admission controller (synchronous cancel of still-queued jobs).
struct JobState {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t id = 0;
  JobResult result;

  // Cooperative cancel flag: set by JobHandle::cancel(), read by the per-job
  // CancelCheck the dispatcher installs on the slot's core. Lock-free so task
  // workers can probe it at attempt boundaries without touching `mu`.
  std::atomic<bool> cancel_requested{false};
  // Absolute deadline as steady_clock nanoseconds-since-epoch (0 = none),
  // fixed at Submit before the handle is published, so reads are race-free.
  int64_t deadline_steady_ns = 0;

  // Back-pointers for JobHandle::cancel(): which tenant queue to search, and
  // the controller that owns it. Weak so a handle outliving the service
  // degrades to a no-op cancel instead of a dangling pointer.
  std::string tenant;
  std::weak_ptr<AdmissionController> admission;
};

inline bool IsTerminal(JobStatus status) {
  return status == JobStatus::kSucceeded || status == JobStatus::kFailed ||
         status == JobStatus::kRejected || status == JobStatus::kCancelled ||
         status == JobStatus::kDeadlineExceeded;
}

}  // namespace internal

// Client-side handle to one submitted job. Copyable; all copies observe the
// same job. poll() never blocks; wait() blocks until a terminal status and
// returns the result by value, so it stays valid after the handle (even a
// temporary `Submit(...).wait()` chain) is gone.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const { return state_ != nullptr ? state_->id : 0; }

  JobStatus poll() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->result.status;
  }

  JobResult wait() const {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return internal::IsTerminal(state_->result.status); });
    return state_->result;
  }

  // Bounded wait: the result if the job reached a terminal status within
  // `timeout`, std::nullopt otherwise. The job keeps running either way.
  std::optional<JobResult> wait_for(std::chrono::milliseconds timeout) const {
    std::unique_lock<std::mutex> lock(state_->mu);
    if (!state_->cv.wait_for(lock, timeout,
                             [this] { return internal::IsTerminal(state_->result.status); })) {
      return std::nullopt;
    }
    return state_->result;
  }

  // Requests cancellation. A still-queued job resolves to kCancelled
  // synchronously (removed from the admission queue, never runs); a running
  // job observes the flag at its next task-attempt boundary and unwinds with
  // partial stats. Returns true if this call initiated a cancel that can
  // still take effect, false if the job was already terminal (or the handle
  // is invalid / the service is gone). Defined in admission.cc — it needs
  // the controller to dequeue synchronously.
  bool cancel();

 private:
  friend class EngineService;
  explicit JobHandle(std::shared_ptr<internal::JobState> state) : state_(std::move(state)) {}

  std::shared_ptr<internal::JobState> state_;
};

// A job in the admission queue: the spec plus the handle state to resolve,
// the enqueue instant (queue-wait accounting), and the byte charge the
// admission controller debited (released when the job reaches a terminal
// state, or at synchronous cancel).
struct QueuedJob {
  std::string tenant;
  JobSpec spec;
  std::shared_ptr<internal::JobState> state;
  std::chrono::steady_clock::time_point enqueued{};
  int64_t byte_charge = 0;
};

}  // namespace gerenuk

#endif  // SRC_SERVICE_JOB_H_
