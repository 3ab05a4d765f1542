#include "src/exec/ser_executor.h"

#include <algorithm>

namespace gerenuk {

namespace {

// Charges the heap's GC time to `times` while a body runs, on every exit.
struct HeapPhaseScope {
  HeapPhaseScope(Heap& heap, PhaseTimes& times) : heap(heap) { heap.set_phase_times(&times); }
  ~HeapPhaseScope() { heap.set_phase_times(nullptr); }
  Heap& heap;
};

// The fault plan's forced abort, thrown by a fast body at its planned point.
[[noreturn]] void ThrowForcedAbort() {
  throw SerAbort{AbortReason::kForced, "forced abort (fault plan)"};
}

}  // namespace

int64_t TaskIo::SlowPathOomRecord(int64_t records) const {
  return faults != nullptr ? faults->OomRecordFor(task_ordinal, records, attempt) : -1;
}

void TaskIo::ThrowSlowPathOom(int64_t records) const {
  throw TaskError(TaskErrorKind::kOom, task_ordinal, attempt, records,
                  "simulated heap exhaustion during re-execution");
}

void FastPath::AbortIfForcedAtEntry() const {
  if (io.faults != nullptr && io.faults->RecordFor(io.task_ordinal, 1, io.attempt) >= 0) {
    ThrowForcedAbort();
  }
}

void RecordAbort(const SerAbort& abort, TraceSink* trace, SpecOutcome* outcome) {
  if (trace != nullptr) {
    trace->Instant(TraceEventType::kAbort, "abort", static_cast<int64_t>(abort.reason));
  }
  outcome->aborts += 1;
  outcome->abort_reason = abort.reason;
}

bool SerExecutor::RunFastBody(TaskIo& io, PhaseTimes& times, const TaskBodies& bodies,
                              SpecOutcome* outcome) {
  BuilderStore builders(layouts_);
  std::unique_ptr<SerRunner> runner =
      MakeFastRunner(io.plan, transformed_, heap_, wk_, &layouts_, &builders, io.extra_plans);
  PlanExecutor* plan_exec =
      io.plan != nullptr ? static_cast<PlanExecutor*>(runner.get()) : nullptr;
  if (plan_exec != nullptr && io.plan_profile != nullptr && io.plan_profile_stride > 0) {
    plan_exec->EnableProfiling(io.plan_profile, io.plan_profile_stride);
  }
  FastPath fast{io, *runner, plan_exec, builders};

  HeapPhaseScope heap_phase(heap_, times);
  TraceSpan fast_span(io.trace, TraceEventType::kFastPath, "fast_path");
  try {
    ComputePhaseScope compute(times);
    bodies.fast(fast);
  } catch (const SerAbort& abort) {
    // Buffered emits die with the runner: the abort contract discards every
    // intermediate buffer, and io.on_abort tears down engine-side output.
    // The instant is emitted before fast_span closes, so its timestamp nests
    // inside the fast-path span in the exported timeline.
    RecordAbort(abort, io.trace, outcome);
    outcome->records_wasted = fast.records_done;
    return false;
  }
  outcome->records_processed = fast.records_done;
  return true;
}

int64_t SerExecutor::RunSlowBody(TaskIo& io, PhaseTimes& times, const TaskBodies& bodies,
                                 int span_arg) {
  try {
    Interpreter interp(original_, heap_, wk_, &layouts_, nullptr);
    HeapPhaseScope heap_phase(heap_, times);
    TraceSpan slow_span(io.trace, TraceEventType::kSlowPath, "slow_path", span_arg);
    ComputePhaseScope compute(times);
    return bodies.slow(interp);
  } catch (...) {
    // The slow path itself failed (e.g. simulated OOM). Tear down its
    // partial output too, so the task honors the scheduler's contract that
    // a throwing task leaves its output slot released.
    if (io.on_abort) {
      io.on_abort();
    }
    throw;
  }
}

void SerExecutor::EnterTask(TaskIo& io) {
  if (io.faults != nullptr && !io.faults->empty()) {
    GERENUK_CHECK(io.task_ordinal >= 0)
        << "a fault plan requires a driver-assigned task ordinal";
    io.faults->AtTaskEntry(io.task_ordinal, io.attempt, io.input, io.cancelled);
  }
  // Stage-input integrity gate: sealed partitions carry a commit-time
  // checksum; a mismatch means the bytes rotted between commit and read,
  // which no retry can repair.
  if (io.input != nullptr && io.input->sealed() && !io.input->VerifyChecksum()) {
    std::string detail = "input partition failed its integrity checksum (stage ";
    detail += (io.stage_label != nullptr && io.stage_label[0] != '\0') ? io.stage_label
                                                                       : "<unlabeled>";
    detail += ", partition " + std::to_string(io.partition) + ", attempt " +
              std::to_string(io.attempt) + ")";
    throw TaskError(TaskErrorKind::kCorruptInput, io.task_ordinal, io.attempt,
                    static_cast<int64_t>(io.input->record_count()), detail);
  }
}

void SerExecutor::RunDirectSlowPath(TaskIo& io, PhaseTimes& times, const TaskBodies& bodies) {
  EnterTask(io);
  RunSlowBody(io, times, bodies, 1);
}

SpecOutcome SerExecutor::RunTaskIo(TaskIo& io, PhaseTimes& times, const TaskBodies& bodies) {
  EnterTask(io);
  SpecOutcome outcome;
  if (RunFastBody(io, times, bodies, &outcome)) {
    return outcome;
  }
  // Abort: terminate the executor — every intermediate buffer is discarded;
  // the input is untouched (the runner aborts before any write to committed
  // records), so the fresh executor re-runs the original task on it.
  if (io.on_abort) {
    io.on_abort();
  }
  if (launch_hook_) {
    launch_hook_();
  }
  outcome.records_processed = RunSlowBody(io, times, bodies, 0);
  outcome.committed_fast_path = false;
  return outcome;
}

TaskBodies SerExecutor::RecordLoop(TaskIo& io, PhaseTimes& times) {
  return {[this](FastPath& fast) { RecordLoopFast(fast); },
          [this, &io, &times](Interpreter& interp) { return RecordLoopSlow(io, times, interp); }};
}

void SerExecutor::RecordLoopFast(FastPath& fast) {
  TaskIo& io = fast.io;
  PlanExecutor* plan_exec = fast.plan;

  size_t cursor = 0;
  RecordChannel channel;
  channel.next_native_record = [&io, &cursor]() {
    GERENUK_CHECK_LT(cursor, io.input->record_count());
    return io.input->record_addr(cursor);
  };
  channel.emit_native_record = [&fast](int64_t addr, const Klass* klass) {
    fast.io.emit_native(addr, klass, fast.runner, fast.builders);
  };
  // The plan path widens the channel: input addresses are handed out in runs
  // (one std::function hop per batch instead of per record) and emits arrive
  // as buffered runs. `batch_cursor` tracks handed-out prefetch positions;
  // the outer loop's `cursor` still drives per-record abort accounting, and
  // since the body consumes exactly one address per record the two agree.
  size_t batch_cursor = 0;
  if (plan_exec != nullptr) {
    channel.next_native_batch = [&io, &batch_cursor](int64_t* out, size_t cap) {
      size_t total = io.input->record_count();
      GERENUK_CHECK_LT(batch_cursor, total);
      size_t n = std::min(cap, total - batch_cursor);
      for (size_t i = 0; i < n; ++i) {
        out[i] = io.input->record_addr(batch_cursor + i);
      }
      batch_cursor += n;
      return n;
    };
    channel.emit_native_batch = [&fast](const EmittedRecord* records, size_t count) {
      for (size_t i = 0; i < count; ++i) {
        fast.io.emit_native(records[i].addr, records[i].klass, fast.runner, fast.builders);
      }
    };
  }
  fast.runner.set_channel(&channel);

  // The plan runner buffers emits, so builders stay live across a batch
  // (buffered emits can still render them) and flush-then-clear runs at batch
  // boundaries. The interpreter emits directly: builders are per-record
  // scratch state, and a fresh record starts clean.
  const int clear_interval = plan_exec != nullptr ? 64 : 1;
  int since_clear = 0;
  const int64_t records = static_cast<int64_t>(io.input->record_count());
  const int64_t forced =
      io.faults != nullptr ? io.faults->RecordFor(io.task_ordinal, records, io.attempt) : -1;
  for (cursor = 0; cursor < io.input->record_count(); ++cursor) {
    if (static_cast<int64_t>(cursor) == forced) {
      ThrowForcedAbort();
    }
    fast.runner.CallFunction(transformed_.body, io.fast_args);
    fast.records_done += 1;
    if (++since_clear == clear_interval) {
      if (plan_exec != nullptr) {
        plan_exec->FlushEmits();
      }
      fast.builders.Clear();
      since_clear = 0;
    }
  }
  if (plan_exec != nullptr) {
    plan_exec->FlushEmits();
  }
}

int64_t SerExecutor::RecordLoopSlow(TaskIo& io, PhaseTimes& times, Interpreter& interp) {
  InlineSerializer serde(heap_);
  const Klass* record_klass = nullptr;
  for (const Statement& s : original_.body->body) {
    if (s.op == Op::kDeserialize) {
      record_klass = s.klass;
      break;
    }
  }
  GERENUK_CHECK(record_klass != nullptr) << "slow path body has no deserialization point";

  size_t cursor = 0;
  RecordChannel channel;
  channel.next_heap_record = [&serde, &io, &cursor, &times, record_klass]() {
    GERENUK_CHECK_LT(cursor, io.input->record_count());
    TraceSpan deser_span(io.trace, TraceEventType::kDeserialize, "deserialize");
    ScopedPhase phase(times, Phase::kDeserialize);
    int64_t addr = io.input->record_addr(cursor);
    uint32_t size = io.input->record_size(cursor);
    ByteReader reader(reinterpret_cast<const uint8_t*>(addr), size);
    return serde.ReadBody(record_klass, reader);
  };
  channel.emit_heap_record = [&io, &interp](ObjRef ref, const Klass* klass) {
    io.emit_heap(ref, klass, interp);
  };
  interp.set_channel(&channel);

  // Planned re-execution fault: at this record index the slow path runs out
  // of heap (the paper's executor would die and be relaunched; here the
  // scheduler retries the whole task on a reset worker heap).
  const int64_t records = static_cast<int64_t>(io.input->record_count());
  const int64_t oom = io.SlowPathOomRecord(records);
  std::vector<Value> args = io.slow_args;
  for (cursor = 0; cursor < io.input->record_count(); ++cursor) {
    if (static_cast<int64_t>(cursor) == oom) {
      io.ThrowSlowPathOom(records);
    }
    if (io.refresh_slow_args) {
      io.refresh_slow_args(args);
    }
    interp.CallFunction(original_.body, args);
  }
  return records;
}

SpecOutcome SerExecutor::RunTask(const NativePartition& input, NativePartition* output,
                                 PhaseTimes& times, const FaultInjector* faults,
                                 int64_t task_ordinal) {
  InlineSerializer serde(heap_);
  TaskIo io = OutputIo(input, output, times, serde);
  io.faults = faults;
  io.task_ordinal = task_ordinal;
  return RunTaskIo(io, times);
}

void SerExecutor::RunSlowPath(const NativePartition& input, NativePartition* output,
                              PhaseTimes& times) {
  InlineSerializer serde(heap_);
  TaskIo io = OutputIo(input, output, times, serde);
  RunSlowBody(io, times, RecordLoop(io, times), 0);
}

TaskIo SerExecutor::OutputIo(const NativePartition& input, NativePartition* output,
                             PhaseTimes& times, InlineSerializer& serde) {
  TaskIo io;
  io.input = &input;
  io.emit_native = [output](int64_t addr, const Klass* klass, SerRunner&,
                            BuilderStore& builders) {
    builders.Render(addr, klass, *output);
  };
  io.emit_heap = [output, &serde, &times](ObjRef ref, const Klass* klass, SerRunner&) {
    ScopedPhase phase(times, Phase::kSerialize);
    ByteBuffer body;
    serde.WriteRecord(ref, klass, body);
    output->AppendRecord(body.data() + 4, static_cast<uint32_t>(body.size() - 4));
  };
  io.on_abort = [output] { output->Release(); };  // discard partial output
  return io;
}

}  // namespace gerenuk
