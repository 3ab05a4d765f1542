// Fault-tolerance tests: every injected fault kind must be recovered (or
// deliberately quarantined) without failing the job, with byte-identical
// output and identical EngineStats for every worker count — retries,
// relaunches, and the governor flip are deterministic, never schedule-
// dependent. Also covers the NativePartition integrity seal the corrupt-
// input path relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "src/exec/fault.h"
#include "src/exec/task_scheduler.h"
#include "src/nativebuf/native_buffer.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

// ---------------------------------------------------------------------------
// NativePartition integrity seal
// ---------------------------------------------------------------------------

NativePartition PartitionWithRecords(int n) {
  NativePartition part;
  std::vector<uint8_t> body(16);
  for (int r = 0; r < n; ++r) {
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<uint8_t>(r * 31 + i);
    }
    part.AppendRecord(body.data(), static_cast<uint32_t>(body.size()));
  }
  return part;
}

TEST(NativePartitionIntegrityTest, SealAndVerifyDetectBitRot) {
  NativePartition part = PartitionWithRecords(4);
  EXPECT_FALSE(part.sealed());
  EXPECT_TRUE(part.VerifyChecksum());  // unsealed: nothing to verify against
  part.Seal();
  EXPECT_TRUE(part.sealed());
  EXPECT_TRUE(part.VerifyChecksum());
  uint8_t* body = reinterpret_cast<uint8_t*>(part.record_addr(2));
  body[3] ^= 0x01;  // a single flipped bit anywhere must be caught
  EXPECT_FALSE(part.VerifyChecksum());
  body[3] ^= 0x01;
  EXPECT_TRUE(part.VerifyChecksum());
}

TEST(NativePartitionIntegrityTest, AppendingUnseals) {
  NativePartition part = PartitionWithRecords(2);
  part.Seal();
  ASSERT_TRUE(part.sealed());
  uint8_t extra[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  part.AppendRecord(extra, sizeof(extra));
  EXPECT_FALSE(part.sealed());
  part.Seal();
  EXPECT_TRUE(part.VerifyChecksum());
}

TEST(NativePartitionIntegrityTest, WireFormatCarriesTheSeal) {
  NativePartition part = PartitionWithRecords(3);
  part.Seal();
  ByteBuffer wire;
  part.SerializeTo(wire);
  ByteReader reader(wire.data(), wire.size());
  NativePartition parsed = NativePartition::Parse(reader);
  EXPECT_TRUE(parsed.sealed());
  EXPECT_EQ(parsed.checksum(), part.checksum());
  EXPECT_TRUE(parsed.VerifyChecksum());
  reinterpret_cast<uint8_t*>(parsed.record_addr(0))[0] ^= 0x5a;
  EXPECT_FALSE(parsed.VerifyChecksum());
}

// A sealed partition of ~4 KB: records of 0..63 bytes, so every word-tail
// length of the seal hash occurs.
NativePartition SealedFourKilobytePartition() {
  NativePartition part;
  std::vector<uint8_t> body;
  for (int r = 0; part.bytes_used() < 4096; ++r) {
    body.resize(static_cast<size_t>(r * 7 % 64));
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<uint8_t>(r * 131 + i * 17);
    }
    part.AppendRecord(body.data(), static_cast<uint32_t>(body.size()));
  }
  part.Seal();
  return part;
}

TEST(NativePartitionIntegrityTest, EverySingleBitFlipOfABodyFailsTheSeal) {
  NativePartition part = SealedFourKilobytePartition();
  ASSERT_TRUE(part.VerifyChecksum());
  int64_t flips = 0;
  for (size_t r = 0; r < part.record_count(); ++r) {
    uint8_t* body = reinterpret_cast<uint8_t*>(part.record_addr(r));
    for (uint32_t i = 0; i < part.record_size(r); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        body[i] ^= static_cast<uint8_t>(1u << bit);
        ASSERT_FALSE(part.VerifyChecksum()) << "record " << r << " byte " << i << " bit " << bit;
        body[i] ^= static_cast<uint8_t>(1u << bit);
        ++flips;
      }
    }
  }
  EXPECT_GT(flips, 8 * 3000);
  EXPECT_TRUE(part.VerifyChecksum());
}

TEST(NativePartitionIntegrityTest, EverySingleBitFlipOnTheWireFailsClosed) {
  // Size prefixes, count and trailer included: each flip either breaks the
  // structure (WireFormatError) or parses into a partition whose seal fails.
  NativePartition part = SealedFourKilobytePartition();
  ByteBuffer wire;
  part.SerializeTo(wire);
  std::vector<uint8_t> bytes = wire.bytes();
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<uint8_t>(1u << bit);
      ByteReader reader(bytes.data(), bytes.size());
      bool rejected = false;
      try {
        rejected = !NativePartition::Parse(reader).VerifyChecksum();
      } catch (const WireFormatError&) {
        rejected = true;
      }
      ASSERT_TRUE(rejected) << "wire byte " << i << " bit " << bit;
      bytes[i] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_TRUE(NativePartition::Parse(reader).VerifyChecksum());
}

TEST(NativePartitionIntegrityTest, UnsealedPartitionChecksumsOnTheWire) {
  // Writers that never sealed still emit a valid trailing checksum, so the
  // receiving side always gets a verifiable partition.
  NativePartition part = PartitionWithRecords(3);
  ByteBuffer wire;
  part.SerializeTo(wire);
  ByteReader reader(wire.data(), wire.size());
  NativePartition parsed = NativePartition::Parse(reader);
  EXPECT_TRUE(parsed.sealed());
  EXPECT_TRUE(parsed.VerifyChecksum());
}

// ---------------------------------------------------------------------------
// Scheduler-level retry / relaunch / quarantine (no engine)
// ---------------------------------------------------------------------------

TEST(FaultToleranceSchedulerTest, TransientFailureRetriedWithBoundedAttempts) {
  for (int workers : kWorkerCounts) {
    MemoryTracker tracker;
    TaskScheduler sched(workers, HeapConfig{8u << 20}, nullptr, &tracker);
    RetryPolicy policy;
    policy.max_attempts = 3;
    sched.set_retry_policy(policy);
    EngineStats stats;
    std::atomic<int> runs{0};
    sched.RunStage(
        8,
        [&](WorkerContext& ctx, int t) {
          runs.fetch_add(1);
          if (t == 5 && ctx.attempt() < 3) {
            throw TaskError(TaskErrorKind::kException, t, ctx.attempt(), 0, "transient");
          }
        },
        &stats);
    EXPECT_EQ(stats.retries, 2) << "workers=" << workers;
    EXPECT_EQ(stats.straggler_relaunches, 0) << "workers=" << workers;
    EXPECT_EQ(runs.load(), 10) << "workers=" << workers;  // 8 tasks + 2 retries
  }
}

TEST(FaultToleranceSchedulerTest, PlainExceptionsAreRetryable) {
  for (int workers : kWorkerCounts) {
    MemoryTracker tracker;
    TaskScheduler sched(workers, HeapConfig{8u << 20}, nullptr, &tracker);
    RetryPolicy policy;
    policy.max_attempts = 2;
    sched.set_retry_policy(policy);
    EngineStats stats;
    sched.RunStage(
        4,
        [&](WorkerContext& ctx, int t) {
          if (t == 2 && ctx.attempt() == 1) {
            throw std::runtime_error("flaky");
          }
        },
        &stats);
    EXPECT_EQ(stats.retries, 1) << "workers=" << workers;
  }
}

TEST(FaultToleranceSchedulerTest, ExhaustedRetriesRethrowFirstByTaskIndex) {
  for (int workers : kWorkerCounts) {
    MemoryTracker tracker;
    TaskScheduler sched(workers, HeapConfig{8u << 20}, nullptr, &tracker);
    RetryPolicy policy;
    policy.max_attempts = 2;
    sched.set_retry_policy(policy);
    EngineStats stats;
    try {
      sched.RunStage(
          6,
          [&](WorkerContext& ctx, int t) {
            if (t == 1 || t == 4) {
              throw TaskError(TaskErrorKind::kException, t, ctx.attempt(), 0, "permanent");
            }
          },
          &stats);
      FAIL() << "expected an exception (workers=" << workers << ")";
    } catch (const TaskError& e) {
      EXPECT_EQ(e.task_ordinal(), 1);
      EXPECT_EQ(e.attempt(), 2);  // the terminal attempt's error is kept
    }
    EXPECT_EQ(stats.retries, 2) << "workers=" << workers;  // one per failing task
    // The pool survives the failed stage.
    std::atomic<int> ran{0};
    sched.RunStage(4, [&](WorkerContext&, int) { ran.fetch_add(1); }, &stats);
    EXPECT_EQ(ran.load(), 4) << "workers=" << workers;
  }
}

TEST(FaultToleranceSchedulerTest, CorruptInputIsNeverRetriedAndFailsFastByDefault) {
  for (int workers : kWorkerCounts) {
    MemoryTracker tracker;
    TaskScheduler sched(workers, HeapConfig{8u << 20}, nullptr, &tracker);
    RetryPolicy policy;
    policy.max_attempts = 3;  // a retry budget must not apply: bytes stay rotten
    sched.set_retry_policy(policy);
    EngineStats stats;
    try {
      sched.RunStage(
          4,
          [&](WorkerContext& ctx, int t) {
            if (t == 3) {
              throw TaskError(TaskErrorKind::kCorruptInput, t, ctx.attempt(), 99, "bad bytes");
            }
          },
          &stats);
      FAIL() << "expected corrupt input to fail the stage (workers=" << workers << ")";
    } catch (const TaskError& e) {
      EXPECT_EQ(e.kind(), TaskErrorKind::kCorruptInput);
      EXPECT_EQ(e.attempt(), 1);
    }
    EXPECT_EQ(stats.retries, 0) << "workers=" << workers;
    EXPECT_EQ(stats.quarantined_tasks, 0) << "workers=" << workers;
  }
}

TEST(FaultToleranceSchedulerTest, QuarantineSkipRecordsLossInsteadOfFailing) {
  for (int workers : kWorkerCounts) {
    MemoryTracker tracker;
    TaskScheduler sched(workers, HeapConfig{8u << 20}, nullptr, &tracker);
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.quarantine = QuarantinePolicy::kSkip;
    sched.set_retry_policy(policy);
    EngineStats stats;
    std::atomic<int> completed{0};
    sched.RunStage(
        8,
        [&](WorkerContext& ctx, int t) {
          if (t == 3) {
            throw TaskError(TaskErrorKind::kCorruptInput, t, ctx.attempt(), 42, "bad bytes");
          }
          completed.fetch_add(1);
        },
        &stats);
    EXPECT_EQ(stats.quarantined_tasks, 1) << "workers=" << workers;
    EXPECT_EQ(stats.quarantined_records, 42) << "workers=" << workers;
    EXPECT_EQ(stats.retries, 0) << "workers=" << workers;
    EXPECT_EQ(completed.load(), 7) << "workers=" << workers;
  }
}

TEST(FaultToleranceSchedulerTest, StragglerRelaunchAvoidsTheSlowWorker) {
  for (int workers : kWorkerCounts) {
    MemoryTracker tracker;
    TaskScheduler sched(workers, HeapConfig{8u << 20}, nullptr, &tracker);
    RetryPolicy policy;
    policy.max_attempts = 2;
    sched.set_retry_policy(policy);
    EngineStats stats;
    std::mutex mu;
    std::vector<int> attempt_workers;
    sched.RunStage(
        4,
        [&](WorkerContext& ctx, int t) {
          if (t == 2) {
            std::lock_guard<std::mutex> lock(mu);
            attempt_workers.push_back(ctx.worker_id());
          }
          if (t == 2 && ctx.attempt() == 1) {
            throw TaskError(TaskErrorKind::kStraggler, t, 1, 0, "deadline exceeded");
          }
        },
        &stats);
    EXPECT_EQ(stats.straggler_relaunches, 1) << "workers=" << workers;
    EXPECT_EQ(stats.retries, 0) << "workers=" << workers;
    ASSERT_EQ(attempt_workers.size(), 2u) << "workers=" << workers;
    if (workers > 1) {
      // The relaunch must land on a different worker than the slow one.
      EXPECT_NE(attempt_workers[0], attempt_workers[1]);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level recovery: Spark
// ---------------------------------------------------------------------------

std::vector<uint8_t> CleanMapBytes() {
  SparkJob job(SparkWith(1));
  DatasetPtr out = job.engine.RunStage(job.MakeInput(600), job.udfs,
                                       {NarrowOp::Map(job.double_value, job.pair)});
  return DatasetBytes(out);
}

TEST(FaultToleranceSparkTest, EntryExceptionRetriedAndRecovered) {
  const std::vector<uint8_t> clean = CleanMapBytes();
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.fault.max_task_attempts = 2;
    SparkJob job(config);
    DatasetPtr in = job.MakeInput(600);
    job.engine.fault_plan().InjectException(job.engine.next_task_ordinal() + 1);
    DatasetPtr out = job.engine.RunStage(in, job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    const EngineStats& stats = job.engine.stats();
    EXPECT_EQ(stats.retries, 1) << "workers=" << workers;
    EXPECT_EQ(stats.tasks_run, 5) << "workers=" << workers;  // 4 tasks + 1 retry
    EXPECT_EQ(stats.fast_path_commits, 4) << "workers=" << workers;
    EXPECT_EQ(stats.aborts, 0) << "workers=" << workers;
    EXPECT_EQ(DatasetBytes(out), clean) << "workers=" << workers;
  }
}

TEST(FaultToleranceSparkTest, SlowPathOomRetriedOnFreshContext) {
  const std::vector<uint8_t> clean = CleanMapBytes();
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.fault.max_task_attempts = 2;
    SparkJob job(config);
    DatasetPtr in = job.MakeInput(600);
    const int64_t base = job.engine.next_task_ordinal();
    // Attempt 1: the fast path aborts, then the slow-path re-execution hits a
    // simulated OOM. Attempt 2 (fresh context): aborts again, slow path runs
    // through. The abort of the failed attempt is lost with its outcome, so
    // exactly one abort is counted.
    job.engine.fault_plan().AbortTask(base + 2);
    job.engine.fault_plan().InjectSlowPathOom(base + 2);
    DatasetPtr out = job.engine.RunStage(in, job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    const EngineStats& stats = job.engine.stats();
    EXPECT_EQ(stats.retries, 1) << "workers=" << workers;
    EXPECT_EQ(stats.aborts, 1) << "workers=" << workers;
    EXPECT_EQ(stats.fast_path_commits, 3) << "workers=" << workers;
    EXPECT_EQ(stats.tasks_run, 5) << "workers=" << workers;
    EXPECT_EQ(DatasetBytes(out), clean) << "workers=" << workers;
  }
}

TEST(FaultToleranceSparkTest, StragglerRelaunchedPastDeadline) {
  const std::vector<uint8_t> clean = CleanMapBytes();
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.fault.max_task_attempts = 2;
    config.fault.task_deadline_ms = 50;
    SparkJob job(config);
    DatasetPtr in = job.MakeInput(600);
    // The injected delay (far beyond the deadline) cooperatively observes the
    // cancellation probe and throws kStraggler; attempt 2 runs undelayed.
    job.engine.fault_plan().InjectDelay(job.engine.next_task_ordinal() + 0, 10000);
    DatasetPtr out = job.engine.RunStage(in, job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    const EngineStats& stats = job.engine.stats();
    EXPECT_EQ(stats.straggler_relaunches, 1) << "workers=" << workers;
    EXPECT_EQ(stats.retries, 0) << "workers=" << workers;
    EXPECT_EQ(stats.tasks_run, 5) << "workers=" << workers;
    EXPECT_EQ(stats.fast_path_commits, 4) << "workers=" << workers;
    EXPECT_EQ(DatasetBytes(out), clean) << "workers=" << workers;
  }
}

TEST(FaultToleranceSparkTest, CorruptInputQuarantinedWhenPolicyAllows) {
  std::vector<uint8_t> reference;
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.fault.max_task_attempts = 3;  // must not be consumed: corruption is permanent
    config.fault.quarantine = QuarantinePolicy::kSkip;
    SparkJob job(config);
    DatasetPtr in = job.MakeInput(600);
    job.engine.fault_plan().InjectCorruption(job.engine.next_task_ordinal() + 1);
    DatasetPtr out = job.engine.RunStage(in, job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    const EngineStats& stats = job.engine.stats();
    EXPECT_EQ(out->TotalRecords(), 450);  // 600 minus the poisoned partition
    EXPECT_EQ(stats.quarantined_tasks, 1) << "workers=" << workers;
    EXPECT_EQ(stats.quarantined_records, 150) << "workers=" << workers;
    EXPECT_EQ(stats.retries, 0) << "workers=" << workers;
    EXPECT_EQ(stats.fast_path_commits, 3) << "workers=" << workers;
    std::vector<uint8_t> bytes = DatasetBytes(out);
    if (workers == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "workers=" << workers;
    }
  }
}

TEST(FaultToleranceSparkTest, CorruptInputFailsTheStageByDefault) {
  for (int workers : kWorkerCounts) {
    SparkJob job(SparkWith(workers));
    DatasetPtr in = job.MakeInput(600);
    job.engine.fault_plan().InjectCorruption(job.engine.next_task_ordinal() + 0);
    try {
      job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
      FAIL() << "expected corrupt input to fail the stage (workers=" << workers << ")";
    } catch (const TaskError& e) {
      EXPECT_EQ(e.kind(), TaskErrorKind::kCorruptInput);
    }
    // The engine survives: a clean stage over fresh input still runs.
    job.engine.fault_plan().Clear();
    DatasetPtr in2 = job.MakeInput(200);
    DatasetPtr out2 = job.engine.RunStage(in2, job.udfs,
                                          {NarrowOp::Map(job.double_value, job.pair)});
    EXPECT_EQ(out2->TotalRecords(), 200) << "workers=" << workers;
  }
}

TEST(FaultToleranceSparkTest, ReduceByKeyWithRetryIdenticalAcrossWorkerCounts) {
  std::vector<uint8_t> reference;
  int64_t reference_shuffle = 0;
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.fault.max_task_attempts = 2;
    SparkJob job(config);
    DatasetPtr in = job.MakeInput(1000);
    // Fail the first shuffle-write task's first attempt at entry.
    job.engine.fault_plan().InjectException(job.engine.next_task_ordinal() + 0);
    DatasetPtr out = job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false},
                                            job.sum_values);
    const EngineStats& stats = job.engine.stats();
    EXPECT_EQ(out->TotalRecords(), 10);
    EXPECT_EQ(stats.retries, 1) << "workers=" << workers;
    std::vector<uint8_t> bytes = DatasetBytes(out);
    if (workers == 1) {
      reference = bytes;
      reference_shuffle = stats.shuffle_bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "workers=" << workers;
      EXPECT_EQ(stats.shuffle_bytes, reference_shuffle) << "workers=" << workers;
    }
  }
}

TEST(FaultToleranceSparkTest, ThrowingReduceSlowPathLeavesNoRegisteredRoot) {
  // Ordinals base..base+3 are the shuffle writes; base+5 is the second fold.
  // Its fast path aborts at entry, so the reference runs that fold's slow
  // path too (a slow fold emits keys in first-seen order).
  constexpr int64_t kFold = 5;
  std::vector<uint8_t> clean;
  {
    SparkJob job(SparkWith(1));
    DatasetPtr in = job.MakeInput(1000);
    job.engine.fault_plan().AbortTask(job.engine.next_task_ordinal() + kFold);
    clean = DatasetBytes(job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false},
                                                job.sum_values));
  }
  // Without a reset between attempts, a root the failed fold left behind
  // would still point at its destroyed value vector on the next GC.
  for (bool fresh_context : {true, false}) {
    for (int workers : kWorkerCounts) {
      EngineConfig config = SparkWith(workers);
      config.fault.max_task_attempts = 2;
      auto core = std::make_shared<EngineCore>(config);
      RetryPolicy policy = config.retry_policy();
      policy.fresh_context_on_retry = fresh_context;
      core->scheduler().set_retry_policy(policy);
      PairJob<SparkEngine, std::shared_ptr<EngineCore>> job(core);
      DatasetPtr in = job.MakeInput(1000);
      // The fold's slow path throws an OOM after it registered its value
      // vector.
      const int64_t fold = job.engine.next_task_ordinal() + kFold;
      job.engine.fault_plan().AbortTask(fold);
      job.engine.fault_plan().InjectSlowPathOom(fold);
      DatasetPtr out = job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false},
                                              job.sum_values);
      const std::string where =
          "workers=" + std::to_string(workers) + " fresh=" + std::to_string(fresh_context);
      EXPECT_EQ(job.engine.stats().retries, 1) << where;
      EXPECT_EQ(DatasetBytes(out), clean) << where;
      for (int w = 0; w < workers; ++w) {
        EXPECT_EQ(core->scheduler().context(w).heap().registered_roots(), 0u) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Adaptive speculation governor
// ---------------------------------------------------------------------------

TEST(SpeculationGovernorTest, DisabledByDefault) {
  SparkJob job(SparkWith(1));
  EXPECT_FALSE(job.engine.governor().enabled());
  EXPECT_TRUE(job.engine.governor().ShouldSpeculate());
}

TEST(SpeculationGovernorTest, FlipsOnceAtThresholdAndRoutesToSlowPath) {
  // Clean reference: two chained map stages, no faults, no governor.
  std::vector<uint8_t> clean;
  {
    SparkJob job(SparkWith(1));
    DatasetPtr mid = job.engine.RunStage(job.MakeInput(600), job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    DatasetPtr out = job.engine.RunStage(mid, job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    clean = DatasetBytes(out);
  }
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.fault.governor_abort_threshold = 0.5;
    config.fault.governor_min_tasks = 4;
    SparkJob job(config);
    ASSERT_TRUE(job.engine.governor().enabled());
    DatasetPtr in = job.MakeInput(600);
    // Stage 1: every task aborts — abort rate 1.0 >= 0.5, so the governor
    // flips at the barrier and stage 2 skips speculation entirely.
    job.engine.ForceAborts(4);
    DatasetPtr mid = job.engine.RunStage(in, job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    EXPECT_EQ(job.engine.stats().aborts, 4) << "workers=" << workers;
    EXPECT_EQ(job.engine.stats().governor_flips, 1) << "workers=" << workers;
    EXPECT_FALSE(job.engine.governor().ShouldSpeculate());
    DatasetPtr out = job.engine.RunStage(mid, job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    const EngineStats& stats = job.engine.stats();
    EXPECT_EQ(stats.slow_path_direct, 4) << "workers=" << workers;
    EXPECT_EQ(stats.governor_flips, 1) << "workers=" << workers;  // exactly one flip
    EXPECT_EQ(stats.aborts, 4) << "workers=" << workers;  // no new aborts accrue
    EXPECT_EQ(DatasetBytes(out), clean) << "workers=" << workers;
  }
}

TEST(SpeculationGovernorTest, BelowThresholdKeepsSpeculating) {
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.fault.governor_abort_threshold = 0.75;
    config.fault.governor_min_tasks = 4;
    SparkJob job(config);
    DatasetPtr in = job.MakeInput(600);
    job.engine.ForceAborts(2);  // rate 0.5 < 0.75
    DatasetPtr mid = job.engine.RunStage(in, job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    EXPECT_TRUE(job.engine.governor().ShouldSpeculate());
    DatasetPtr out = job.engine.RunStage(mid, job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    const EngineStats& stats = job.engine.stats();
    EXPECT_EQ(stats.governor_flips, 0) << "workers=" << workers;
    EXPECT_EQ(stats.slow_path_direct, 0) << "workers=" << workers;
    EXPECT_EQ(stats.fast_path_commits, 6) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Engine-level recovery: Hadoop
// ---------------------------------------------------------------------------

TEST(FaultToleranceHadoopTest, MapFaultsRecoveredIdenticallyAcrossWorkerCounts) {
  std::vector<uint8_t> clean;
  {
    HadoopJob job(HadoopWith(1));
    DatasetPtr in = job.MakeInput(800);
    clean = DatasetBytes(job.engine.RunJob(in, job.udfs, job.explode, job.pair,
                                           KeySpec{job.get_key, false}, job.sum_values,
                                           job.sum_values));
  }
  // Second input: reducer 0 (its ordinal follows the map tasks') is forced to
  // abort too. A fold task's forced abort fires at fold entry, and the whole
  // reducer task re-runs on the slow path.
  for (bool abort_reducer : {false, true}) {
    std::vector<uint8_t> reference;
    EngineStats reference_stats;
    for (int workers : kWorkerCounts) {
      HadoopConfig config = HadoopWith(workers);
      config.engine.fault.max_task_attempts = 2;
      HadoopJob job(config);
      DatasetPtr in = job.MakeInput(800);
      const int64_t base = job.engine.next_task_ordinal();
      job.engine.fault_plan().InjectException(base + 1);  // map task 1, attempt 1 only
      job.engine.fault_plan().AbortTask(base + 2);        // map task 2, every attempt
      if (abort_reducer) {
        job.engine.fault_plan().AbortTask(base + static_cast<int64_t>(in->native_parts.size()));
      }
      DatasetPtr out = job.engine.RunJob(in, job.udfs, job.explode, job.pair,
                                         KeySpec{job.get_key, false}, job.sum_values,
                                         job.sum_values);
      EXPECT_EQ(out->TotalRecords(), 20);
      const EngineStats& stats = job.engine.stats();
      EXPECT_EQ(stats.retries, 1) << "workers=" << workers;
      EXPECT_EQ(stats.aborts, abort_reducer ? 2 : 1) << "workers=" << workers;
      std::vector<uint8_t> bytes = DatasetBytes(out);
      EXPECT_EQ(bytes, clean) << "workers=" << workers << " abort_reducer=" << abort_reducer;
      if (workers == 1) {
        reference = bytes;
        reference_stats = stats;
      } else {
        EXPECT_EQ(bytes, reference) << "workers=" << workers;
        EXPECT_EQ(stats.tasks_run, reference_stats.tasks_run);
        EXPECT_EQ(stats.map_tasks, reference_stats.map_tasks);
        EXPECT_EQ(stats.reduce_tasks, reference_stats.reduce_tasks);
        EXPECT_EQ(stats.spills, reference_stats.spills);
        EXPECT_EQ(stats.fast_path_commits, reference_stats.fast_path_commits);
        EXPECT_EQ(stats.shuffle_bytes, reference_stats.shuffle_bytes);
        EXPECT_EQ(stats.combine_calls, reference_stats.combine_calls);
      }
    }
  }
}

TEST(FaultToleranceHadoopTest, GovernorRoutesReducePhaseToSlowPath) {
  std::vector<uint8_t> reference;
  for (int workers : kWorkerCounts) {
    HadoopConfig config = HadoopWith(workers);
    config.engine.fault.governor_abort_threshold = 0.5;
    config.engine.fault.governor_min_tasks = 4;
    HadoopJob job(config);
    DatasetPtr in = job.MakeInput(800);
    const int64_t base = job.engine.next_task_ordinal();
    for (int t = 0; t < 4; ++t) {
      job.engine.fault_plan().AbortTask(base + t);  // every map task aborts
    }
    DatasetPtr out = job.engine.RunJob(in, job.udfs, job.explode, job.pair,
                                       KeySpec{job.get_key, false}, job.sum_values,
                                       job.sum_values);
    EXPECT_EQ(out->TotalRecords(), 20);
    const EngineStats& stats = job.engine.stats();
    EXPECT_EQ(stats.aborts, 4) << "workers=" << workers;
    EXPECT_EQ(stats.governor_flips, 1) << "workers=" << workers;
    // The reduce phase ran degraded: one direct-slow-path count per reducer.
    EXPECT_EQ(stats.slow_path_direct, 3) << "workers=" << workers;
    EXPECT_FALSE(job.engine.governor().ShouldSpeculate());
    std::vector<uint8_t> bytes = DatasetBytes(out);
    if (workers == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace gerenuk
