// Determinism tests for the parallel task scheduler: a Gerenuk stage must
// produce byte-identical output and identical abort/commit counts for every
// worker count — the scheduler changes wall-clock shape, never results.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <string>

#include "src/exec/task_scheduler.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

// ---------------------------------------------------------------------------
// Scheduler-level tests (no engine)
// ---------------------------------------------------------------------------

TEST(TaskSchedulerTest, RunsEveryTaskExactlyOnceAndMergesStats) {
  for (int workers : kWorkerCounts) {
    MemoryTracker tracker;
    TaskScheduler sched(workers, HeapConfig{8u << 20}, nullptr, &tracker);
    std::vector<int> slots(64, 0);
    EngineStats stats;
    sched.RunStage(
        64,
        [&](WorkerContext& ctx, int t) {
          slots[static_cast<size_t>(t)] += t * 2 + 1;  // += catches double runs
          ctx.stats().tasks_run += 1;
        },
        &stats);
    EXPECT_EQ(stats.tasks_run, 64) << "workers=" << workers;
    for (int t = 0; t < 64; ++t) {
      EXPECT_EQ(slots[static_cast<size_t>(t)], t * 2 + 1) << "task " << t;
    }
  }
}

TEST(TaskSchedulerTest, FirstErrorByTaskIndexIsRethrown) {
  for (int workers : kWorkerCounts) {
    MemoryTracker tracker;
    TaskScheduler sched(workers, HeapConfig{8u << 20}, nullptr, &tracker);
    EngineStats stats;
    try {
      sched.RunStage(
          16,
          [&](WorkerContext&, int t) {
            if (t == 3 || t == 11) {
              throw std::runtime_error("task " + std::to_string(t));
            }
          },
          &stats);
      FAIL() << "expected an exception (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
    // The pool survives a failed stage: every task of the next stage runs,
    // for every worker count.
    std::atomic<int> ran{0};
    sched.RunStage(4, [&](WorkerContext&, int) { ran.fetch_add(1); }, &stats);
    EXPECT_EQ(ran.load(), 4) << "workers=" << workers;
  }
}

TEST(TaskSchedulerTest, WorkerHeapsAreIsolatedMutators) {
  MemoryTracker tracker;
  TaskScheduler sched(4, HeapConfig{8u << 20}, nullptr, &tracker);
  EngineStats stats;
  // Every task allocates in its worker's heap; arrays from different tasks
  // never alias because each context owns its storage.
  sched.RunStage(
      32,
      [&](WorkerContext& ctx, int t) {
        const Klass* i64s = ctx.heap().klasses().Find("i64[]");
        ASSERT_NE(i64s, nullptr);
        ObjRef arr = ctx.heap().AllocArray(i64s, 8);
        for (int64_t i = 0; i < 8; ++i) {
          ctx.heap().ASet<int64_t>(arr, i, t * 100 + i);
        }
        for (int64_t i = 0; i < 8; ++i) {
          GERENUK_CHECK_EQ(ctx.heap().AGet<int64_t>(arr, i), t * 100 + i);
        }
      },
      &stats);
}

TEST(TaskSchedulerTest, FirstCancelClosesTheStageAndKeepsWorkerHeaps) {
  for (int workers : kWorkerCounts) {
    MemoryTracker tracker;
    TaskScheduler sched(workers, HeapConfig{8u << 20}, nullptr, &tracker);
    std::atomic<bool> cancelled{false};
    std::atomic<int> checks{0};
    sched.set_cancel_check([&] {
      checks.fetch_add(1);
      return cancelled.load() ? CancelCause::kUserCancel : CancelCause::kNone;
    });
    std::atomic<int> ran{0};
    EngineStats stats;
    // Every task that starts allocates in its worker's heap and cancels the
    // job, so each worker runs at most one task body.
    EXPECT_THROW(sched.RunStage(
                     64,
                     [&](WorkerContext& ctx, int) {
                       ran.fetch_add(1);
                       ctx.heap().AllocArray(ctx.heap().klasses().Find("i64[]"), 8);
                       cancelled.store(true);
                     },
                     &stats),
                 JobCancelled);
    EXPECT_GE(ran.load(), 1);
    EXPECT_LE(ran.load(), workers);
    // The first attempt to observe the cancel closes the stage: the tasks
    // that had not started never reach their entry check.
    EXPECT_LE(checks.load(), 2 * workers) << "workers=" << workers;
    // A cancel is not a fault: no worker heap was reset on the way out.
    int64_t used = 0;
    for (int w = 0; w < workers; ++w) {
      used += sched.context(w).heap().used_bytes();
    }
    EXPECT_GT(used, 0) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Engine-level determinism across worker counts
// ---------------------------------------------------------------------------
// The PairJob workload, SparkWith/HadoopWith configs, and DatasetBytes live
// in tests/pair_job.h (shared with fault_tolerance_test.cc).

TEST(SchedulerDeterminismTest, NarrowStageBytesIdenticalAcrossWorkerCounts) {
  std::vector<uint8_t> reference;
  for (int workers : kWorkerCounts) {
    SparkJob job(SparkWith(workers));
    DatasetPtr in = job.MakeInput(600);
    DatasetPtr out = job.engine.RunStage(
        in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
    std::vector<uint8_t> bytes = DatasetBytes(out);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(job.engine.stats().tasks_run, 4) << "workers=" << workers;
    EXPECT_EQ(job.engine.stats().fast_path_commits, 4) << "workers=" << workers;
    EXPECT_EQ(job.engine.stats().aborts, 0) << "workers=" << workers;
    if (workers == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "workers=" << workers;
    }
  }
}

TEST(SchedulerDeterminismTest, ReduceByKeyBytesIdenticalAcrossWorkerCounts) {
  std::vector<uint8_t> reference;
  int64_t reference_shuffle = 0;
  for (int workers : kWorkerCounts) {
    SparkJob job(SparkWith(workers));
    DatasetPtr in = job.MakeInput(1000);
    DatasetPtr out = job.engine.ReduceByKey(in, job.udfs, {},
                                            KeySpec{job.get_key, false}, job.sum_values);
    EXPECT_EQ(out->TotalRecords(), 10);  // keys are i % 10
    std::vector<uint8_t> bytes = DatasetBytes(out);
    if (workers == 1) {
      reference = bytes;
      reference_shuffle = job.engine.stats().shuffle_bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "workers=" << workers;
      EXPECT_EQ(job.engine.stats().shuffle_bytes, reference_shuffle);
    }
    EXPECT_EQ(job.engine.stats().aborts, 0);
  }
}

TEST(SchedulerDeterminismTest, ForcedAbortsIdenticalAcrossWorkerCounts) {
  // Two planned aborts: the same two tasks re-execute on the slow path for
  // every worker count, and the slow path reproduces the fast-path bytes.
  std::vector<uint8_t> clean;
  {
    SparkJob job(SparkWith(1));
    DatasetPtr out = job.engine.RunStage(job.MakeInput(600), job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    clean = DatasetBytes(out);
  }
  for (int workers : kWorkerCounts) {
    SparkJob job(SparkWith(workers));
    DatasetPtr in = job.MakeInput(600);
    job.engine.ForceAborts(2);
    DatasetPtr out = job.engine.RunStage(
        in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
    EXPECT_EQ(job.engine.stats().aborts, 2) << "workers=" << workers;
    EXPECT_EQ(job.engine.stats().fast_path_commits, 2) << "workers=" << workers;
    EXPECT_EQ(DatasetBytes(out), clean) << "workers=" << workers;
  }
}

TEST(SchedulerDeterminismTest, FaultPlanTargetsSpecificTaskAndRecord) {
  std::vector<uint8_t> reference;
  for (int workers : kWorkerCounts) {
    SparkJob job(SparkWith(workers));
    DatasetPtr in = job.MakeInput(600);
    // Abort exactly task 2 of the next stage, at record 7.
    job.engine.fault_plan().AbortTask(job.engine.next_task_ordinal() + 2, 7);
    DatasetPtr out = job.engine.RunStage(
        in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
    EXPECT_EQ(job.engine.stats().aborts, 1) << "workers=" << workers;
    EXPECT_EQ(job.engine.stats().fast_path_commits, 3) << "workers=" << workers;
    std::vector<uint8_t> bytes = DatasetBytes(out);
    if (workers == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "workers=" << workers;
    }
  }
}

TEST(SchedulerDeterminismTest, HadoopJobIdenticalAcrossWorkerCounts) {
  std::vector<uint8_t> reference;
  EngineStats reference_stats;
  for (int workers : kWorkerCounts) {
    HadoopJob job(HadoopWith(workers));
    DatasetPtr in = job.MakeInput(800);
    DatasetPtr out = job.engine.RunJob(in, job.udfs, job.explode, job.pair,
                                       KeySpec{job.get_key, false}, job.sum_values,
                                       job.sum_values);
    EXPECT_EQ(out->TotalRecords(), 20);  // keys i%10 plus their +1000 twins
    std::vector<uint8_t> bytes = DatasetBytes(out);
    const EngineStats& stats = job.engine.stats();
    if (workers == 1) {
      reference = bytes;
      reference_stats = stats;
    } else {
      EXPECT_EQ(bytes, reference) << "workers=" << workers;
      EXPECT_EQ(stats.map_tasks, reference_stats.map_tasks);
      EXPECT_EQ(stats.reduce_tasks, reference_stats.reduce_tasks);
      EXPECT_EQ(stats.spills, reference_stats.spills);
      EXPECT_EQ(stats.aborts, reference_stats.aborts);
      EXPECT_EQ(stats.fast_path_commits, reference_stats.fast_path_commits);
      EXPECT_EQ(stats.shuffle_bytes, reference_stats.shuffle_bytes);
      EXPECT_EQ(stats.combine_calls, reference_stats.combine_calls);
    }
  }
}

}  // namespace
}  // namespace gerenuk
