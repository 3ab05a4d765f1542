// Process-executor tests: stages run in forked executor processes under the
// driver-side supervisor, and the stack's core promises survive the move —
// byte-identical output for every executor count, a SIGKILL'd (or SIGSTOP-
// wedged) executor is a recoverable event rerouted through the retry
// machinery, wire-shipped TaskErrors keep their classification, and the
// supervision counters/trace events are visible to the driver. Also the
// deterministic-jitter backoff schedule (RetryPolicy::BackoffMsFor).
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "src/exec/fault.h"
#include "src/support/trace.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

// ---------------------------------------------------------------------------
// Deterministic jitter (RetryPolicy::BackoffMsFor)
// ---------------------------------------------------------------------------

TEST(JitterBackoffTest, ScheduleIsReproducible) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_base_ms = 2;
  policy.backoff_jitter_ms = 7;
  policy.jitter_seed = 42;

  RetryPolicy same = policy;
  std::vector<int64_t> schedule;
  for (int64_t task = 0; task < 6; ++task) {
    // First attempts never wait.
    EXPECT_EQ(policy.BackoffMsFor(task, 1), 0);
    for (int attempt = 2; attempt <= policy.max_attempts; ++attempt) {
      int64_t delay = policy.BackoffMsFor(task, attempt);
      schedule.push_back(delay);
      // Identical policy => identical schedule, delay by delay.
      EXPECT_EQ(same.BackoffMsFor(task, attempt), delay);
      // Exponential floor plus bounded jitter.
      int64_t floor = policy.backoff_base_ms << (attempt - 2);
      EXPECT_GE(delay, floor);
      EXPECT_LE(delay, floor + policy.backoff_jitter_ms);
    }
  }
  // The jitter decorrelates: not every task may hash to the same offset.
  bool any_differ = false;
  for (size_t i = 4; i < schedule.size(); i += 4) {
    any_differ = any_differ || schedule[i] != schedule[0];
  }
  EXPECT_TRUE(any_differ) << "jitter hash degenerate: every task got the same delay";

  RetryPolicy reseeded = policy;
  reseeded.jitter_seed = 43;
  bool seed_matters = false;
  for (int64_t task = 0; task < 6 && !seed_matters; ++task) {
    for (int attempt = 2; attempt <= policy.max_attempts; ++attempt) {
      seed_matters = seed_matters ||
                     reseeded.BackoffMsFor(task, attempt) != policy.BackoffMsFor(task, attempt);
    }
  }
  EXPECT_TRUE(seed_matters);

  RetryPolicy no_jitter = policy;
  no_jitter.backoff_jitter_ms = 0;
  EXPECT_EQ(no_jitter.BackoffMsFor(3, 2), no_jitter.backoff_base_ms);
  EXPECT_EQ(no_jitter.BackoffMsFor(3, 4), no_jitter.backoff_base_ms << 2);
}

// ---------------------------------------------------------------------------
// Process-mode pipelines
// ---------------------------------------------------------------------------

EngineConfig ProcessSparkWith(int workers) {
  EngineConfig config = SparkWith(workers);
  config.execution.process_executors = true;
  config.execution.executor_heartbeat_ms = 1;  // short stages still collect heartbeats
  return config;
}

std::vector<uint8_t> RunSparkPipeline(SparkJob& job, int64_t records) {
  DatasetPtr in = job.MakeInput(records);
  job.engine.ResetMetrics();
  DatasetPtr mapped =
      job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
  DatasetPtr out = job.engine.ReduceByKey(mapped, job.udfs, {}, KeySpec{job.get_key, false},
                                          job.sum_values);
  return DatasetBytes(out);
}

TEST(ProcessModeTest, ByteIdenticalToInProcessAcrossExecutorCounts) {
  std::vector<uint8_t> reference;
  {
    SparkJob in_process(SparkWith(2));
    reference = RunSparkPipeline(in_process, 600);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(in_process.engine.stats().executors_launched, 0);
  }  // destroyed before any fork: the forking driver stays single-threaded
  for (int workers : kWorkerCounts) {
    SparkJob job(ProcessSparkWith(workers));
    EXPECT_EQ(RunSparkPipeline(job, 600), reference) << "executors=" << workers;
    EXPECT_GT(job.engine.stats().executors_launched, 0);
    EXPECT_EQ(job.engine.stats().executor_deaths, 0);
  }
}

TEST(ProcessModeTest, SigkilledExecutorIsRecovered) {
  std::vector<uint8_t> reference;
  {
    SparkJob in_process(SparkWith(2));
    reference = RunSparkPipeline(in_process, 1200);
  }
  for (int workers : kWorkerCounts) {
    EngineConfig config = ProcessSparkWith(workers);
    config.fault.max_task_attempts = 3;
    config.observability.trace = true;
    SparkJob job(config);
    // Kill the executor running the second task of the first (narrow)
    // stage, on its first attempt only: genuine SIGKILL mid-stage.
    job.engine.fault_plan().InjectExecutorKill(job.engine.next_task_ordinal() + 1, SIGKILL,
                                               /*max_attempt=*/1);
    EXPECT_EQ(RunSparkPipeline(job, 1200), reference) << "executors=" << workers;

    const EngineStats& stats = job.engine.stats();
    EXPECT_GE(stats.executor_deaths, 1) << "executors=" << workers;
    EXPECT_GE(stats.executor_relaunches, 1) << "executors=" << workers;
    EXPECT_GE(stats.retries, 1) << "executors=" << workers;
    EXPECT_GT(stats.heartbeats_received, 0) << "executors=" << workers;
    // The supervision counters surface through the unified metrics view...
    MetricsRegistry registry = job.engine.metrics();
    EXPECT_GE(registry.counters().at("executor_deaths"), 1);
    EXPECT_GE(registry.counters().at("executor_relaunches"), 1);
    EXPECT_GT(registry.counters().at("heartbeats_received"), 0);
    // ...and the recovery is visible in the exported Chrome trace.
    std::string json = TraceExporter(*job.engine.trace()).ChromeJson();
    EXPECT_NE(json.find("executor_dead"), std::string::npos);
    EXPECT_NE(json.find("executor_relaunch"), std::string::npos);
  }
}

TEST(ProcessModeTest, SigkillRecoveryCostsOneRelaunchAtTheDefaultHeap) {
  // The default 64 MB heap, where value-initializing one arena alone costs
  // about 50 ms: an executor that rebuilt its heap for the retry would blow
  // the budget.
  EngineConfig config = ProcessSparkWith(2);
  config.execution.heap_bytes = EngineConfig{}.execution.heap_bytes;
  config.fault.max_task_attempts = 3;
  // Wall time of the map stage, the one the kill lands in.
  auto map_stage_ms = [&config](bool kill) {
    SparkJob job(config);
    DatasetPtr in = job.MakeInput(1200);
    if (kill) {
      job.engine.fault_plan().InjectExecutorKill(job.engine.next_task_ordinal() + 1, SIGKILL,
                                                 /*max_attempt=*/1);
    }
    const auto start = std::chrono::steady_clock::now();
    job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
    const double ms = MsSince(start);
    EXPECT_EQ(job.engine.stats().executor_deaths, kill ? 1 : 0);
    return ms;
  };
  const double clean_ms = map_stage_ms(false);
  const double killed_ms = map_stage_ms(true);
  // Recovery budget: the supervisor sees the death within one poll interval
  // (10 ms), then relaunches one executor and reruns one task. The clean
  // stage launched both executors and ran all four tasks, so that is at
  // most half of it. No executor heap is rebuilt for the retry: a reset
  // costs microseconds.
  constexpr double kSupervisorPollMs = 10.0;
  if (!kSanitizedBuild) {
    EXPECT_LE(killed_ms - clean_ms, clean_ms / 2 + kSupervisorPollMs + kWakeupSlackMs)
        << "clean " << clean_ms << " ms, killed " << killed_ms << " ms";
  }
}

TEST(ProcessModeTest, WedgedExecutorHitsHeartbeatTimeout) {
  std::vector<uint8_t> reference;
  {
    SparkJob in_process(SparkWith(2));
    reference = RunSparkPipeline(in_process, 400);
  }
  EngineConfig config = ProcessSparkWith(2);
  config.fault.max_task_attempts = 3;
  config.execution.executor_heartbeat_ms = 10;
  config.execution.executor_heartbeat_timeout_ms = 150;
  SparkJob job(config);
  // SIGSTOP wedges the executor without killing it: only the liveness check
  // can reclaim the task (the supervisor SIGKILLs the stopped child).
  job.engine.fault_plan().InjectExecutorKill(job.engine.next_task_ordinal(), SIGSTOP,
                                             /*max_attempt=*/1);
  EXPECT_EQ(RunSparkPipeline(job, 400), reference);
  EXPECT_GE(job.engine.stats().executor_deaths, 1);
  EXPECT_GE(job.engine.stats().executor_relaunches, 1);
}

TEST(ProcessModeTest, WireShippedTaskErrorKeepsClassification) {
  std::vector<uint8_t> reference;
  {
    SparkJob in_process(SparkWith(2));
    reference = RunSparkPipeline(in_process, 400);
  }
  {
    // Retryable: the child survives, ships TaskError{kException} over the
    // wire, and the supervisor requeues within the attempt budget.
    EngineConfig config = ProcessSparkWith(2);
    config.fault.max_task_attempts = 2;
    SparkJob job(config);
    job.engine.fault_plan().InjectException(job.engine.next_task_ordinal() + 1);
    EXPECT_EQ(RunSparkPipeline(job, 400), reference);
    EXPECT_GE(job.engine.stats().retries, 1);
    EXPECT_EQ(job.engine.stats().executor_deaths, 0);  // clean failure, no death
  }
  {
    // Non-retryable: an exhausted attempt budget fails the stage with the
    // original classification intact.
    EngineConfig config = ProcessSparkWith(2);
    config.fault.max_task_attempts = 1;
    SparkJob job(config);
    job.engine.fault_plan().InjectException(job.engine.next_task_ordinal() + 1);
    try {
      RunSparkPipeline(job, 400);
      FAIL() << "exhausted attempts must rethrow";
    } catch (const TaskError& e) {
      EXPECT_EQ(e.kind(), TaskErrorKind::kException);
    }
  }
}

TEST(ProcessModeTest, HadoopJobByteIdenticalToInProcess) {
  std::vector<uint8_t> reference;
  {
    HadoopJob in_process(HadoopWith(2));
    DatasetPtr in = in_process.MakeInput(500);
    in_process.engine.ResetMetrics();
    DatasetPtr out = in_process.engine.RunJob(in, in_process.udfs, in_process.explode,
                                              in_process.pair, KeySpec{in_process.get_key, false},
                                              in_process.sum_values, in_process.sum_values);
    reference = DatasetBytes(out);
    ASSERT_FALSE(reference.empty());
  }
  for (int workers : kWorkerCounts) {
    HadoopConfig config = HadoopWith(workers);
    config.engine.execution.process_executors = true;
    config.engine.execution.executor_heartbeat_ms = 1;
    HadoopJob job(config);
    DatasetPtr in = job.MakeInput(500);
    job.engine.ResetMetrics();
    DatasetPtr out = job.engine.RunJob(in, job.udfs, job.explode, job.pair,
                                       KeySpec{job.get_key, false}, job.sum_values,
                                       job.sum_values);
    EXPECT_EQ(DatasetBytes(out), reference) << "executors=" << workers;
    EXPECT_GT(job.engine.stats().executors_launched, 0);
  }
}

TEST(ProcessModeTest, IntegritySealFailureNamesStagePartitionAttempt) {
  // Satellite: a corrupt-input TaskError must carry (stage, partition,
  // attempt) in its detail string, in any execution mode.
  EngineConfig config = SparkWith(2);
  SparkJob job(config);
  DatasetPtr in = job.MakeInput(200);
  job.engine.fault_plan().InjectCorruption(job.engine.next_task_ordinal() + 2);
  try {
    job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
    FAIL() << "corrupted input must fail the stage";
  } catch (const TaskError& e) {
    EXPECT_EQ(e.kind(), TaskErrorKind::kCorruptInput);
    EXPECT_NE(e.detail().find("stage narrow"), std::string::npos) << e.detail();
    EXPECT_NE(e.detail().find("partition 2"), std::string::npos) << e.detail();
    EXPECT_NE(e.detail().find("attempt 1"), std::string::npos) << e.detail();
  }
}

}  // namespace
}  // namespace gerenuk
