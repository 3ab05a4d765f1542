// Multi-tenant service mode: config validation, the Session/JobHandle
// lifecycle, DRR fair-share dispatch, bounded-queue and byte-quota
// rejection, job deadlines and cancellation, per-slot circuit breakers,
// per-tenant metrics scoping, the per-tenant-per-SER speculation oracle,
// and the acceptance storm — 16 tenants x 64 heterogeneous jobs whose
// outputs are byte-identical to sequential single-engine runs with a >90%
// plan-cache hit rate.
#include "src/service/engine_service.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/admission.h"
#include "src/service/job.h"
#include "tests/pair_service.h"

namespace gerenuk {
namespace {

// Bounded wait for tests: no test should ever block forever on a handle. A
// job that misses the budget fails the test instead of hanging the suite.
JobResult WaitDone(const JobHandle& handle,
                   std::chrono::milliseconds timeout = std::chrono::minutes(2)) {
  std::optional<JobResult> result = handle.wait_for(timeout);
  EXPECT_TRUE(result.has_value()) << "job " << handle.id()
                                  << " did not reach a terminal status in time";
  return result.has_value() ? *result : JobResult{};
}

// A gate job parks a dispatcher so the queue can fill deterministically.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> running{false};
};

JobSpec GateJob(const std::shared_ptr<Gate>& gate) {
  JobSpec spec;
  spec.name = "gate";
  spec.run = [gate](EngineContext&) -> std::string {
    gate->running.store(true);
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&] { return gate->open; });
    return "";
  };
  return spec;
}

void OpenGate(const std::shared_ptr<Gate>& gate) {
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->open = true;
  }
  gate->cv.notify_all();
}

void AwaitGateRunning(const std::shared_ptr<Gate>& gate) {
  while (!gate->running.load()) {
    std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// Config validation (the one-call Validate() satellite)
// ---------------------------------------------------------------------------

TEST(EngineConfigValidateTest, AcceptsDefaults) {
  EXPECT_EQ(EngineConfig{}.Validate(), "");
  EXPECT_EQ(HadoopConfig{}.Validate(), "");
  EXPECT_EQ(ServiceConfig{}.Validate(), "");
}

TEST(EngineConfigValidateTest, NamesTheOffendingField) {
  EngineConfig config;
  config.execution.num_partitions = 0;
  EXPECT_NE(config.Validate().find("num_partitions"), std::string::npos);

  config = EngineConfig{};
  config.execution.heap_bytes = 0;
  EXPECT_NE(config.Validate().find("heap_bytes"), std::string::npos);

  config = EngineConfig{};
  config.execution.executor_heartbeat_timeout_ms = 1;  // < heartbeat period
  EXPECT_NE(config.Validate().find("heartbeat"), std::string::npos);

  config = EngineConfig{};
  config.fault.max_task_attempts = 0;
  EXPECT_NE(config.Validate().find("max_task_attempts"), std::string::npos);

  config = EngineConfig{};
  config.fault.governor_abort_threshold = 1.5;
  EXPECT_NE(config.Validate().find("governor_abort_threshold"), std::string::npos);

  config = EngineConfig{};
  config.observability.trace = true;
  config.observability.trace_buffer_events = 0;
  EXPECT_NE(config.Validate().find("trace_buffer_events"), std::string::npos);
}

TEST(EngineConfigValidateTest, HadoopConfigComposesEngineValidation) {
  HadoopConfig config;
  config.num_reducers = 0;
  EXPECT_NE(config.Validate().find("num_reducers"), std::string::npos);

  config = HadoopConfig{};
  config.sort_buffer_bytes = 0;
  EXPECT_NE(config.Validate().find("sort_buffer_bytes"), std::string::npos);

  config = HadoopConfig{};
  config.engine.execution.num_workers = 0;  // engine error surfaces through
  EXPECT_NE(config.Validate().find("num_workers"), std::string::npos);
}

TEST(ServiceConfigValidateTest, RejectsProcessExecutorsAndBadBounds) {
  ServiceConfig config;
  config.engine.execution.process_executors = true;
  EXPECT_NE(config.Validate().find("process_executors"), std::string::npos);

  config = ServiceConfig{};
  config.num_engines = 0;
  EXPECT_NE(config.Validate().find("num_engines"), std::string::npos);

  config = ServiceConfig{};
  config.max_queue_depth_per_tenant = config.max_queue_depth + 1;
  EXPECT_NE(config.Validate().find("max_queue_depth_per_tenant"), std::string::npos);

  config = ServiceConfig{};
  config.drr_quantum = 0;
  EXPECT_NE(config.Validate().find("drr_quantum"), std::string::npos);
}

TEST(ServiceConfigValidateTest, NamesResilienceFields) {
  ServiceConfig config;
  config.default_deadline_ms = -1;
  EXPECT_NE(config.Validate().find("default_deadline_ms"), std::string::npos);

  config = ServiceConfig{};
  config.max_inflight_bytes = 0;  // zero byte budget: would reject everything
  EXPECT_NE(config.Validate().find("max_inflight_bytes"), std::string::npos);

  config = ServiceConfig{};
  config.max_inflight_bytes_per_tenant = 0;
  EXPECT_NE(config.Validate().find("max_inflight_bytes_per_tenant"), std::string::npos);

  config = ServiceConfig{};
  config.max_inflight_bytes = 1024;
  config.max_inflight_bytes_per_tenant = 2048;  // per-tenant above global
  EXPECT_NE(config.Validate().find("max_inflight_bytes_per_tenant"), std::string::npos);

  config = ServiceConfig{};
  config.breaker_failure_threshold = 0;
  EXPECT_NE(config.Validate().find("breaker_failure_threshold"), std::string::npos);

  config = ServiceConfig{};
  config.breaker_probe_jobs = 0;
  EXPECT_NE(config.Validate().find("breaker_probe_jobs"), std::string::npos);

  config = ServiceConfig{};
  config.breaker_open_ms = -5;
  EXPECT_NE(config.Validate().find("breaker_open_ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// DRR admission control (deterministic, controller in isolation)
// ---------------------------------------------------------------------------

QueuedJob Queued(const std::string& tenant, int64_t cost, int priority = 0,
                 int64_t input_bytes = 0) {
  QueuedJob job;
  job.tenant = tenant;
  job.spec.cost = cost;
  job.spec.priority = priority;
  job.spec.input_bytes = input_bytes;
  job.state = std::make_shared<internal::JobState>();
  job.state->tenant = tenant;
  return job;
}

TEST(AdmissionControllerTest, EqualCostsRoundRobinAcrossTenants) {
  AdmissionController admission(64, 32, /*drr_quantum=*/1);
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(admission.Submit(Queued("a", 1)), AdmitResult::kAdmitted);
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(admission.Submit(Queued("b", 1)), AdmitResult::kAdmitted);
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(admission.Submit(Queued("c", 1)), AdmitResult::kAdmitted);
  std::vector<std::string> order;
  QueuedJob job;
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(admission.Next(&job));
    order.push_back(job.tenant);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "a", "b", "c", "a", "b", "c"}));
  EXPECT_EQ(admission.depth(), 0);
}

TEST(AdmissionControllerTest, CostWeightedSharing) {
  // Tenant "cheap" submits cost-1 jobs, "pricey" cost-4: with quantum 4,
  // every round serves four cheap jobs and one pricey job.
  AdmissionController admission(64, 32, /*drr_quantum=*/4);
  for (int i = 0; i < 8; ++i)
    ASSERT_EQ(admission.Submit(Queued("cheap", 1)), AdmitResult::kAdmitted);
  for (int i = 0; i < 2; ++i)
    ASSERT_EQ(admission.Submit(Queued("pricey", 4)), AdmitResult::kAdmitted);
  std::vector<std::string> order;
  QueuedJob job;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(admission.Next(&job));
    order.push_back(job.tenant);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"cheap", "cheap", "cheap", "cheap", "pricey",
                                             "cheap", "cheap", "cheap", "cheap", "pricey"}));
}

TEST(AdmissionControllerTest, BoundsAndShutdownDrainWithTypedRejections) {
  AdmissionController admission(/*max_queue_depth=*/4, /*max_queue_depth_per_tenant=*/2, 1);
  EXPECT_EQ(admission.Submit(Queued("a", 1)), AdmitResult::kAdmitted);
  EXPECT_EQ(admission.Submit(Queued("a", 1)), AdmitResult::kAdmitted);
  EXPECT_EQ(admission.Submit(Queued("a", 1)), AdmitResult::kRejectedTenantDepth);
  EXPECT_EQ(admission.Submit(Queued("b", 1)), AdmitResult::kAdmitted);
  EXPECT_EQ(admission.Submit(Queued("c", 1)), AdmitResult::kAdmitted);
  EXPECT_EQ(admission.Submit(Queued("d", 1)), AdmitResult::kRejectedGlobalDepth);
  admission.Shutdown();
  EXPECT_EQ(admission.Submit(Queued("e", 1)), AdmitResult::kRejectedShutdown);
  QueuedJob job;
  int drained = 0;
  while (admission.Next(&job)) {
    drained += 1;
  }
  EXPECT_EQ(drained, 4) << "queued jobs drain through shutdown";
  const AdmissionController::Stats stats = admission.stats();
  EXPECT_EQ(stats.rejected, 3);
  EXPECT_EQ(stats.rejected_tenant_depth, 1);
  EXPECT_EQ(stats.rejected_global_depth, 1);
  EXPECT_EQ(stats.rejected_shutdown, 1);
  EXPECT_EQ(stats.dispatched, 4);
}

TEST(AdmissionControllerTest, PriorityOrdersWithinOneTenantOnly) {
  AdmissionController admission(64, 32, /*drr_quantum=*/1);
  // Tenant "a": priorities 0, 5, 1, 5 — dispatch order 5, 5 (FIFO among
  // equals), 1, 0. Tenant "b" keeps its DRR turn regardless of "a"'s
  // priorities.
  ASSERT_EQ(admission.Submit(Queued("a", 1, /*priority=*/0)), AdmitResult::kAdmitted);
  ASSERT_EQ(admission.Submit(Queued("b", 1, /*priority=*/0)), AdmitResult::kAdmitted);
  ASSERT_EQ(admission.Submit(Queued("a", 1, /*priority=*/5)), AdmitResult::kAdmitted);
  ASSERT_EQ(admission.Submit(Queued("a", 1, /*priority=*/1)), AdmitResult::kAdmitted);
  ASSERT_EQ(admission.Submit(Queued("a", 1, /*priority=*/5)), AdmitResult::kAdmitted);
  std::vector<std::pair<std::string, int>> order;
  QueuedJob job;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(admission.Next(&job));
    order.emplace_back(job.tenant, job.spec.priority);
  }
  EXPECT_EQ(order, (std::vector<std::pair<std::string, int>>{
                       {"a", 5}, {"b", 0}, {"a", 5}, {"a", 1}, {"a", 0}}));
}

TEST(AdmissionControllerTest, ByteQuotaRejectsChargesAndReleases) {
  AdmissionController admission(64, 32, 1, /*max_inflight_bytes=*/1000,
                                /*max_inflight_bytes_per_tenant=*/600);
  ASSERT_EQ(admission.Submit(Queued("a", 1, 0, /*input_bytes=*/500)), AdmitResult::kAdmitted);
  EXPECT_EQ(admission.stats().inflight_bytes, 500);
  EXPECT_EQ(admission.Submit(Queued("a", 1, 0, 500)), AdmitResult::kRejectedBytes)
      << "per-tenant byte budget";
  ASSERT_EQ(admission.Submit(Queued("b", 1, 0, 400)), AdmitResult::kAdmitted);
  EXPECT_EQ(admission.Submit(Queued("c", 1, 0, 200)), AdmitResult::kRejectedBytes)
      << "global byte budget";
  ASSERT_EQ(admission.Submit(Queued("c", 1, 0, /*input_bytes=*/0)), AdmitResult::kAdmitted)
      << "jobs of unknown size bypass byte accounting";
  EXPECT_EQ(admission.stats().rejected_bytes, 2);
  EXPECT_EQ(admission.stats().inflight_bytes, 900);

  // Dispatch + release returns the budget.
  QueuedJob job;
  int64_t released = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(admission.Next(&job));
    released += job.byte_charge;
    admission.Release(job.tenant, job.byte_charge);
  }
  EXPECT_EQ(released, 900);
  EXPECT_EQ(admission.stats().inflight_bytes, 0);
}

TEST(AdmissionControllerTest, ObservedOutputsCorrectFutureCharges) {
  AdmissionController admission(64, 32, 1, /*max_inflight_bytes=*/10000, -1);
  // The tenant's jobs double their input: after observations, a 100-byte
  // job is charged more than its raw estimate.
  for (int i = 0; i < 20; ++i) {
    admission.ObserveCompletion("a", /*input_bytes=*/100, /*output_bytes=*/100);
  }
  ASSERT_EQ(admission.Submit(Queued("a", 1, 0, /*input_bytes=*/100)), AdmitResult::kAdmitted);
  QueuedJob job;
  ASSERT_TRUE(admission.Next(&job));
  EXPECT_GT(job.byte_charge, 150) << "EWMA correction lifted the charge toward 2x";
  EXPECT_LE(job.byte_charge, 200);
  admission.Release(job.tenant, job.byte_charge);
  EXPECT_EQ(admission.stats().inflight_bytes, 0);
}

TEST(AdmissionControllerTest, CancelRemovesQueuedJobAndReleasesBytes) {
  AdmissionController admission(64, 32, 1, /*max_inflight_bytes=*/1000, -1);
  QueuedJob queued = Queued("a", 1, 0, /*input_bytes=*/400);
  const internal::JobState* state = queued.state.get();
  ASSERT_EQ(admission.Submit(std::move(queued)), AdmitResult::kAdmitted);
  ASSERT_EQ(admission.Submit(Queued("a", 1)), AdmitResult::kAdmitted);

  QueuedJob removed;
  EXPECT_TRUE(admission.Cancel(state, &removed));
  EXPECT_EQ(removed.state.get(), state);
  EXPECT_EQ(admission.depth(), 1);
  EXPECT_EQ(admission.stats().cancelled_queued, 1);
  EXPECT_EQ(admission.stats().inflight_bytes, 0) << "the cancel released its byte charge";
  EXPECT_FALSE(admission.Cancel(state, &removed)) << "double cancel finds nothing";

  QueuedJob job;
  ASSERT_TRUE(admission.Next(&job));
  EXPECT_NE(job.state.get(), state) << "the cancelled job never dispatches";
}

// ---------------------------------------------------------------------------
// Session / JobHandle lifecycle
// ---------------------------------------------------------------------------

TEST(ServiceTest, SubmitWaitSucceedsWithPerJobStats) {
  EngineService service(SmallService(1));
  Session session = service.CreateSession("alice");
  JobHandle handle = session.Submit(KindJob(0));
  ASSERT_TRUE(handle.valid());
  const JobResult result = WaitDone(handle);
  EXPECT_EQ(result.status, JobStatus::kSucceeded);
  EXPECT_EQ(handle.poll(), JobStatus::kSucceeded) << "poll observes the terminal status";
  EXPECT_EQ(result.output, SequentialExpected()[0]);
  EXPECT_GT(result.stats.tasks_run, 0) << "per-job stats delta, not engine lifetime";
  EXPECT_GT(result.exec_ns, 0);
  EXPECT_GE(result.queue_wait_ns, 0);
}

// ---------------------------------------------------------------------------
// One EngineCore per slot
// ---------------------------------------------------------------------------

TEST(ServiceTest, SlotFrontEndsShareOneCore) {
  EngineService service(SmallService(2));
  Session session = service.CreateSession("alice");
  JobSpec probe;
  probe.name = "probe";
  probe.run = [](EngineContext& ctx) -> std::string {
    std::string flags;
    flags += &ctx.spark->core() == &ctx.hadoop->core() ? '1' : '0';
    flags += &ctx.spark->heap() == &ctx.hadoop->heap() ? '1' : '0';
    flags += &ctx.spark->core().scheduler() == &ctx.hadoop->core().scheduler() ? '1' : '0';
    flags += ctx.spark->plan_cache() != nullptr &&
                     ctx.spark->plan_cache() == ctx.hadoop->plan_cache()
                 ? '1'
                 : '0';
    return flags;
  };
  for (int i = 0; i < 4; ++i) {
    const JobResult result = WaitDone(session.Submit(probe));
    ASSERT_EQ(result.status, JobStatus::kSucceeded) << result.error;
    EXPECT_EQ(result.output, "1111") << "core, heap, scheduler, plan cache";
  }
}

TEST(ServiceTest, JobStatsMatchTheSameBodyOnStandaloneEngines) {
  // One core per slot means one EngineStats: a job's stats must count each
  // task once, exactly as the same body on a fresh standalone engine does.
  std::vector<EngineStats> standalone(kJobKinds);
  for (int kind = 0; kind < 3; ++kind) {
    SparkEngine spark(ServiceEngineConfig());
    PairUdfs udfs;
    BuildPairUdfs(spark, &udfs);
    RunKindOnSpark(kind, spark, udfs);
    standalone[kind] = spark.stats();
  }
  {
    HadoopConfig hadoop_config;
    hadoop_config.engine = ServiceEngineConfig();
    HadoopEngine hadoop(hadoop_config);
    PairUdfs udfs;
    BuildPairUdfs(hadoop, &udfs);
    RunKindOnHadoop(hadoop, udfs);
    standalone[3] = hadoop.stats();
  }

  EngineService service(SmallService(1));
  Session session = service.CreateSession("alice");
  for (int kind = 0; kind < kJobKinds; ++kind) {
    const JobResult result = WaitDone(session.Submit(KindJob(kind)));
    ASSERT_EQ(result.status, JobStatus::kSucceeded) << result.error;
    EXPECT_GT(result.stats.tasks_run, 0) << "kind " << kind;
    EXPECT_EQ(result.stats.tasks_run, standalone[kind].tasks_run) << "kind " << kind;
    EXPECT_EQ(result.stats.fast_path_commits, standalone[kind].fast_path_commits)
        << "kind " << kind;
    EXPECT_EQ(result.stats.shuffle_bytes, standalone[kind].shuffle_bytes) << "kind " << kind;
  }
}

TEST(ServiceTest, FailedJobCarriesTheError) {
  EngineService service(SmallService(1));
  Session session = service.CreateSession("alice");
  JobSpec bad;
  bad.name = "throws";
  bad.run = [](EngineContext&) -> std::string { throw std::runtime_error("boom"); };
  const JobResult result = WaitDone(session.Submit(std::move(bad)));
  EXPECT_EQ(result.status, JobStatus::kFailed);
  EXPECT_EQ(result.error, "boom");
  // The slot survives: the next job on the same engine still succeeds.
  const JobResult next = WaitDone(session.Submit(KindJob(0)));
  EXPECT_EQ(next.status, JobStatus::kSucceeded);
}

TEST(ServiceTest, WaitForTimesOutWhileRunningThenObservesCompletion) {
  EngineService service(SmallService(1));
  Session session = service.CreateSession("alice");
  auto gate = std::make_shared<Gate>();
  JobHandle handle = session.Submit(GateJob(gate));
  AwaitGateRunning(gate);
  EXPECT_FALSE(handle.wait_for(std::chrono::milliseconds(30)).has_value())
      << "bounded wait returns nullopt while the job runs";
  OpenGate(gate);
  EXPECT_EQ(WaitDone(handle).status, JobStatus::kSucceeded);
}

TEST(ServiceTest, OverflowingSubmitsAreRejected) {
  ServiceConfig config = SmallService(1);
  config.max_queue_depth = 3;
  config.max_queue_depth_per_tenant = 3;
  EngineService service(config);
  Session session = service.CreateSession("alice");

  auto gate = std::make_shared<Gate>();
  JobHandle blocked = session.Submit(GateJob(gate));
  AwaitGateRunning(gate);

  std::vector<JobHandle> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(session.Submit(KindJob(0)));
  }
  JobHandle rejected = session.Submit(KindJob(0));
  EXPECT_EQ(rejected.poll(), JobStatus::kRejected) << "rejection is synchronous";
  const JobResult rejection = WaitDone(rejected);
  EXPECT_EQ(rejection.status, JobStatus::kRejected);
  EXPECT_NE(rejection.error.find("max_queue_depth"), std::string::npos)
      << "the error names the bound that fired: " << rejection.error;

  OpenGate(gate);
  EXPECT_EQ(WaitDone(blocked).status, JobStatus::kSucceeded);
  for (JobHandle& handle : queued) {
    EXPECT_EQ(WaitDone(handle).status, JobStatus::kSucceeded);
  }
  EXPECT_EQ(service.admission_stats().rejected, 1);
  EXPECT_EQ(service.admission_stats().rejected_global_depth, 1)
      << "global and per-tenant bounds are equal here; global is checked first";
  EXPECT_EQ(service.metrics().Counter("service.rejected_global_depth"), 1);
}

TEST(ServiceTest, PerTenantDepthRejectionIsTyped) {
  ServiceConfig config = SmallService(1);
  config.max_queue_depth = 16;
  config.max_queue_depth_per_tenant = 1;
  config.engine.observability.trace = true;  // capture the rejection instant
  EngineService service(config);
  Session session = service.CreateSession("alice");

  auto gate = std::make_shared<Gate>();
  JobHandle blocked = session.Submit(GateJob(gate));
  AwaitGateRunning(gate);
  JobHandle queued = session.Submit(KindJob(0));
  JobHandle rejected = session.Submit(KindJob(0));
  const JobResult rejection = WaitDone(rejected);
  EXPECT_EQ(rejection.status, JobStatus::kRejected);
  EXPECT_NE(rejection.error.find("max_queue_depth_per_tenant"), std::string::npos)
      << rejection.error;
  EXPECT_EQ(service.admission_stats().rejected_tenant_depth, 1);
  EXPECT_EQ(service.metrics().Counter("service.rejected_tenant_depth"), 1);

  ASSERT_NE(service.service_trace(), nullptr);
  int reject_instants = 0;
  for (const TraceEvent& ev : service.service_trace()->events()) {
    if (ev.type == TraceEventType::kAdmissionReject &&
        std::string(ev.name) == "rejected_tenant_depth") {
      reject_instants += 1;
    }
  }
  EXPECT_EQ(reject_instants, 1) << "each rejection emits a typed trace instant";

  OpenGate(gate);
  EXPECT_EQ(WaitDone(blocked).status, JobStatus::kSucceeded);
  EXPECT_EQ(WaitDone(queued).status, JobStatus::kSucceeded);
}

TEST(ServiceTest, ByteQuotaRejectionIsTypedAndCounted) {
  ServiceConfig config = SmallService(1);
  config.max_inflight_bytes = 1000;
  config.engine.observability.trace = true;
  EngineService service(config);
  Session session = service.CreateSession("alice");

  auto gate = std::make_shared<Gate>();
  JobHandle blocked = session.Submit(GateJob(gate));
  AwaitGateRunning(gate);

  JobSpec big = KindJob(0);
  big.input_bytes = 800;
  JobHandle queued = session.Submit(std::move(big));
  JobSpec over = KindJob(0);
  over.input_bytes = 800;
  JobHandle rejected = session.Submit(std::move(over));
  const JobResult rejection = WaitDone(rejected);
  EXPECT_EQ(rejection.status, JobStatus::kRejected);
  EXPECT_NE(rejection.error.find("max_inflight_bytes"), std::string::npos) << rejection.error;
  EXPECT_EQ(service.admission_stats().rejected_bytes, 1);
  EXPECT_EQ(service.metrics().Counter("service.rejected_bytes"), 1);
  ASSERT_NE(service.service_trace(), nullptr);
  int byte_rejects = 0;
  for (const TraceEvent& ev : service.service_trace()->events()) {
    if (ev.type == TraceEventType::kAdmissionReject &&
        std::string(ev.name) == "rejected_bytes") {
      byte_rejects += 1;
    }
  }
  EXPECT_EQ(byte_rejects, 1);

  OpenGate(gate);
  EXPECT_EQ(WaitDone(blocked).status, JobStatus::kSucceeded);
  EXPECT_EQ(WaitDone(queued).status, JobStatus::kSucceeded);
  EXPECT_EQ(service.admission_stats().inflight_bytes, 0)
      << "charges are released at terminal states";
}

// ---------------------------------------------------------------------------
// Deadlines & cancellation
// ---------------------------------------------------------------------------

TEST(ServiceTest, NegativeDeadlineIsRejectedNamingTheField) {
  EngineService service(SmallService(1));
  Session session = service.CreateSession("alice");
  JobSpec spec = KindJob(0);
  spec.deadline_ms = -7;
  JobHandle handle = session.Submit(std::move(spec));
  EXPECT_EQ(handle.poll(), JobStatus::kRejected) << "spec validation is synchronous";
  const JobResult result = WaitDone(handle);
  EXPECT_NE(result.error.find("deadline_ms"), std::string::npos) << result.error;
}

TEST(ServiceTest, CancelQueuedJobResolvesSynchronously) {
  EngineService service(SmallService(1));
  Session session = service.CreateSession("alice");
  auto gate = std::make_shared<Gate>();
  JobHandle blocked = session.Submit(GateJob(gate));
  AwaitGateRunning(gate);

  JobHandle queued = session.Submit(KindJob(0));
  EXPECT_EQ(queued.poll(), JobStatus::kQueued);
  EXPECT_TRUE(queued.cancel());
  EXPECT_EQ(queued.poll(), JobStatus::kCancelled) << "queued cancel is synchronous";
  const JobResult result = WaitDone(queued);
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_NE(result.error.find("before dispatch"), std::string::npos) << result.error;
  EXPECT_EQ(result.stats.tasks_run, 0) << "the job never touched an engine";
  EXPECT_FALSE(queued.cancel()) << "cancelling a terminal job reports no effect";
  EXPECT_EQ(service.admission_stats().cancelled_queued, 1);

  OpenGate(gate);
  EXPECT_EQ(WaitDone(blocked).status, JobStatus::kSucceeded);
  // The cancelled job must not have been dispatched.
  EXPECT_EQ(service.admission_stats().dispatched, 1);
}

TEST(ServiceTest, CancelRunningJobUnwindsAtATaskBoundaryWithPartialStats) {
  EngineService service(SmallService(1));
  Session session = service.CreateSession("alice");

  // An endless body: loops stages until cancelled. Without cooperative
  // cancellation this job would never finish.
  auto started = std::make_shared<std::atomic<bool>>(false);
  JobSpec endless;
  endless.name = "endless";
  endless.run = [started](EngineContext& ctx) -> std::string {
    auto* setup = static_cast<PairServiceSetup*>(ctx.setup.get());
    for (;;) {
      RunKindOnSpark(0, *ctx.spark, setup->udfs);
      started->store(true);
    }
  };
  JobHandle handle = session.Submit(std::move(endless));
  while (!started->load()) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(handle.cancel());
  const JobResult result = WaitDone(handle, std::chrono::seconds(30));
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_NE(result.error.find("cancel"), std::string::npos) << result.error;
  EXPECT_GT(result.stats.tasks_run, 0) << "partial progress is visible in the stats delta";
  EXPECT_EQ(service.metrics().Counter("service.jobs_cancelled"), 1);
  EXPECT_EQ(service.metrics().Counter("tenant.alice.jobs_cancelled"), 1);

  // The slot survives a cancelled job like it survives a failed one.
  EXPECT_EQ(WaitDone(session.Submit(KindJob(0))).status, JobStatus::kSucceeded);
}

TEST(ServiceTest, DeadlineExpiresMidRunAtATaskBoundary) {
  EngineService service(SmallService(1));
  Session session = service.CreateSession("alice");
  JobSpec slow;
  slow.name = "slow";
  slow.deadline_ms = 40;
  slow.run = [](EngineContext& ctx) -> std::string {
    // Uncooperative prefix outlives the deadline; the next task boundary
    // observes the expiry.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    auto* setup = static_cast<PairServiceSetup*>(ctx.setup.get());
    for (;;) {
      RunKindOnSpark(0, *ctx.spark, setup->udfs);
    }
  };
  const JobResult result = WaitDone(session.Submit(std::move(slow)), std::chrono::seconds(30));
  EXPECT_EQ(result.status, JobStatus::kDeadlineExceeded);
  EXPECT_NE(result.error.find("deadline"), std::string::npos) << result.error;
  EXPECT_EQ(service.metrics().Counter("service.jobs_deadline_exceeded"), 1);
}

TEST(ServiceTest, DeadlineCanExpireInTheQueueWithoutRunning) {
  EngineService service(SmallService(1));
  Session session = service.CreateSession("alice");
  auto gate = std::make_shared<Gate>();
  JobHandle blocked = session.Submit(GateJob(gate));
  AwaitGateRunning(gate);

  JobSpec doomed = KindJob(0);
  doomed.deadline_ms = 20;
  JobHandle handle = session.Submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  OpenGate(gate);
  const JobResult result = WaitDone(handle);
  EXPECT_EQ(result.status, JobStatus::kDeadlineExceeded);
  EXPECT_NE(result.error.find("queue"), std::string::npos) << result.error;
  EXPECT_EQ(result.stats.tasks_run, 0) << "the job was never run";
  EXPECT_EQ(WaitDone(blocked).status, JobStatus::kSucceeded);
}

TEST(ServiceTest, DefaultDeadlineAppliesWhenSpecLeavesItZero) {
  ServiceConfig config = SmallService(1);
  config.default_deadline_ms = 40;
  EngineService service(config);
  Session session = service.CreateSession("alice");
  JobSpec slow;
  slow.run = [](EngineContext& ctx) -> std::string {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    auto* setup = static_cast<PairServiceSetup*>(ctx.setup.get());
    for (;;) {
      RunKindOnSpark(0, *ctx.spark, setup->udfs);
    }
  };
  EXPECT_EQ(WaitDone(session.Submit(std::move(slow)), std::chrono::seconds(30)).status,
            JobStatus::kDeadlineExceeded);
}

TEST(ServiceTest, PriorityDispatchesFirstWithinATenant) {
  EngineService service(SmallService(1));
  Session session = service.CreateSession("alice");
  auto gate = std::make_shared<Gate>();
  JobHandle blocked = session.Submit(GateJob(gate));
  AwaitGateRunning(gate);

  auto order = std::make_shared<std::vector<int>>();
  auto order_mu = std::make_shared<std::mutex>();
  std::vector<JobHandle> handles;
  for (int priority : {0, 5, 1}) {
    JobSpec spec;
    spec.priority = priority;
    spec.run = [priority, order, order_mu](EngineContext&) -> std::string {
      std::lock_guard<std::mutex> lock(*order_mu);
      order->push_back(priority);
      return "";
    };
    handles.push_back(session.Submit(std::move(spec)));
  }
  OpenGate(gate);
  EXPECT_EQ(WaitDone(blocked).status, JobStatus::kSucceeded);
  for (JobHandle& handle : handles) {
    EXPECT_EQ(WaitDone(handle).status, JobStatus::kSucceeded);
  }
  EXPECT_EQ(*order, (std::vector<int>{5, 1, 0})) << "highest priority first within the tenant";
}

// ---------------------------------------------------------------------------
// Slot circuit breakers
// ---------------------------------------------------------------------------

TEST(ServiceTest, BreakerOpensRebuildsAndClosesAfterProbes) {
  ServiceConfig config = SmallService(1);
  config.breaker_failure_threshold = 2;
  config.breaker_probe_jobs = 2;
  EngineService service(config);
  Session session = service.CreateSession("alice");

  JobSpec bad;
  bad.run = [](EngineContext&) -> std::string { throw std::runtime_error("sick slot"); };
  EXPECT_EQ(WaitDone(session.Submit(bad)).status, JobStatus::kFailed);
  EXPECT_EQ(service.breaker_stats().opens, 0) << "one failure stays under the threshold";
  EXPECT_EQ(WaitDone(session.Submit(bad)).status, JobStatus::kFailed);

  EngineService::BreakerStats breaker = service.breaker_stats();
  EXPECT_EQ(breaker.opens, 1) << "the second consecutive failure crossed the threshold";
  EXPECT_EQ(breaker.rebuilds, 1);
  EXPECT_EQ(breaker.half_opens, 1);
  EXPECT_EQ(breaker.closes, 0);

  // Two probe successes close the breaker; the rebuilt slot (fresh engines,
  // re-run setup) still produces the reference bytes.
  const std::string expected = SequentialExpected()[0];
  for (int i = 0; i < 2; ++i) {
    const JobResult result = WaitDone(session.Submit(KindJob(0)));
    ASSERT_EQ(result.status, JobStatus::kSucceeded);
    EXPECT_EQ(result.output, expected);
  }
  breaker = service.breaker_stats();
  EXPECT_EQ(breaker.closes, 1);
  EXPECT_EQ(breaker.probe_failures, 0);
  EXPECT_EQ(service.metrics().Counter("service.breaker.closes"), 1);
}

TEST(ServiceTest, HalfOpenFailureReopensTheBreaker) {
  ServiceConfig config = SmallService(1);
  config.breaker_failure_threshold = 1;
  config.breaker_probe_jobs = 1;
  EngineService service(config);
  Session session = service.CreateSession("alice");

  JobSpec bad;
  bad.run = [](EngineContext&) -> std::string { throw std::runtime_error("still sick"); };
  EXPECT_EQ(WaitDone(session.Submit(bad)).status, JobStatus::kFailed);  // opens
  EXPECT_EQ(WaitDone(session.Submit(bad)).status, JobStatus::kFailed);  // probe fails, reopens
  const EngineService::BreakerStats breaker = service.breaker_stats();
  EXPECT_EQ(breaker.opens, 2);
  EXPECT_EQ(breaker.probe_failures, 1);
  EXPECT_EQ(breaker.closes, 0);
  // A clean probe still closes it.
  EXPECT_EQ(WaitDone(session.Submit(KindJob(0))).status, JobStatus::kSucceeded);
  EXPECT_EQ(service.breaker_stats().closes, 1);
}

TEST(ServiceTest, TripBreakerForcesAFullCycle) {
  ServiceConfig config = SmallService(1);
  config.breaker_probe_jobs = 2;
  config.engine.observability.trace = true;
  EngineService service(config);
  Session session = service.CreateSession("alice");

  ASSERT_TRUE(service.TripBreaker(0));
  EXPECT_FALSE(service.TripBreaker(99)) << "out-of-range slot";
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(WaitDone(session.Submit(KindJob(0))).status, JobStatus::kSucceeded);
  }
  const EngineService::BreakerStats breaker = service.breaker_stats();
  EXPECT_EQ(breaker.opens, 1);
  EXPECT_EQ(breaker.rebuilds, 1);
  EXPECT_EQ(breaker.half_opens, 1);
  EXPECT_EQ(breaker.closes, 1);

  // The transitions are visible as trace instants, in lifecycle order.
  ASSERT_NE(service.service_trace(), nullptr);
  std::vector<std::string> names;
  for (const TraceEvent& ev : service.service_trace()->events()) {
    if (ev.type == TraceEventType::kBreaker) {
      names.push_back(ev.name);
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{"breaker_open", "breaker_rebuild",
                                             "breaker_half_open", "breaker_close"}));
}

// ---------------------------------------------------------------------------
// DRR fairness under saturation
// ---------------------------------------------------------------------------

TEST(ServiceTest, DrrDispatchOrderIsFairUnderSaturation) {
  ServiceConfig config = SmallService(1);
  config.max_queue_depth = 64;
  config.max_queue_depth_per_tenant = 16;
  config.drr_quantum = 1;
  EngineService service(config);

  auto gate = std::make_shared<Gate>();
  Session warmup = service.CreateSession("warmup");
  JobHandle blocked = warmup.Submit(GateJob(gate));
  AwaitGateRunning(gate);

  // With the dispatcher parked, enqueue 4 tenants x 8 jobs; the dispatch
  // order over the static queue is pure DRR — strict round-robin at
  // quantum 1 and equal costs.
  auto order = std::make_shared<std::vector<std::string>>();
  auto order_mu = std::make_shared<std::mutex>();
  const std::vector<std::string> tenants = {"a", "b", "c", "d"};
  std::vector<JobHandle> handles;
  for (const std::string& tenant : tenants) {
    Session session = service.CreateSession(tenant);
    for (int i = 0; i < 8; ++i) {
      JobSpec spec;
      spec.run = [tenant, order, order_mu](EngineContext&) -> std::string {
        std::lock_guard<std::mutex> lock(*order_mu);
        order->push_back(tenant);
        return "";
      };
      handles.push_back(session.Submit(std::move(spec)));
    }
  }
  OpenGate(gate);
  WaitDone(blocked);
  for (JobHandle& handle : handles) {
    EXPECT_EQ(WaitDone(handle).status, JobStatus::kSucceeded);
  }

  ASSERT_EQ(order->size(), 32u);
  for (size_t i = 0; i < order->size(); ++i) {
    EXPECT_EQ((*order)[i], tenants[i % 4]) << "strict round-robin at index " << i;
  }
  // Completed-job spread at every prefix is within one round (trivially
  // within the 2x acceptance bound).
  for (const std::string& tenant : tenants) {
    EXPECT_EQ(service.TenantJobsCompleted(tenant), 8);
  }
}

// ---------------------------------------------------------------------------
// Per-tenant metrics scoping + speculation oracle
// ---------------------------------------------------------------------------

TEST(ServiceTest, MetricsAreScopedPerTenant) {
  EngineService service(SmallService(1));
  Session alice = service.CreateSession("alice");
  Session bob = service.CreateSession("bob");
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(WaitDone(alice.Submit(KindJob(0))).status, JobStatus::kSucceeded);
  }
  ASSERT_EQ(WaitDone(bob.Submit(KindJob(2))).status, JobStatus::kSucceeded);

  MetricsRegistry alice_metrics = alice.metrics();
  EXPECT_EQ(alice_metrics.Counter("jobs_succeeded"), 3);
  EXPECT_EQ(alice_metrics.Counter("jobs_completed"), 3);
  EXPECT_EQ(alice_metrics.Hist("job_exec").count(), 3);
  MetricsRegistry bob_metrics = bob.metrics();
  EXPECT_EQ(bob_metrics.Counter("jobs_succeeded"), 1);

  MetricsRegistry combined = service.metrics();
  EXPECT_EQ(combined.Counter("tenant.alice.jobs_succeeded"), 3);
  EXPECT_EQ(combined.Counter("tenant.bob.jobs_succeeded"), 1);
  EXPECT_EQ(combined.Counter("service.jobs_dispatched"), 4);
  EXPECT_GT(combined.Counter("service.plan_cache.hits"), 0) << "repeat kinds hit the cache";
  // Per-tenant task counts stay separated: alice ran 3x the kind-0 stage.
  EXPECT_EQ(combined.Counter("tenant.alice.tasks_run"),
            3 * WaitDone(alice.Submit(KindJob(0))).stats.tasks_run);
}

TEST(ServiceTest, SpeculationOracleIsPerTenantAndPerSer) {
  ServiceConfig config = SmallService(1);
  config.engine.fault.governor_abort_threshold = 0.5;
  config.engine.fault.governor_min_tasks = 4;
  EngineService service(config);
  Session alice = service.CreateSession("alice");
  Session bob = service.CreateSession("bob");

  // Alice poisons her SER: every task of the stage aborts once.
  JobSpec poison = KindJob(0);
  auto run = poison.run;
  poison.run = [run](EngineContext& ctx) -> std::string {
    ctx.spark->ForceAborts(4);
    return run(ctx);
  };
  const JobResult poisoned = WaitDone(alice.Submit(std::move(poison)));
  ASSERT_EQ(poisoned.status, JobStatus::kSucceeded);
  EXPECT_EQ(poisoned.stats.aborts, 4);

  // Alice's abort rate (1.0 >= 0.5 over >= 4 tasks) turns her SER's
  // speculation off; the job still succeeds via the direct slow path.
  const JobResult alice_after = WaitDone(alice.Submit(KindJob(0)));
  ASSERT_EQ(alice_after.status, JobStatus::kSucceeded);
  EXPECT_EQ(alice_after.stats.slow_path_direct, 4);
  EXPECT_EQ(alice_after.stats.fast_path_commits, 0);

  // Bob runs the same SER untouched — the history is keyed per tenant.
  const JobResult bob_same_ser = WaitDone(bob.Submit(KindJob(0)));
  ASSERT_EQ(bob_same_ser.status, JobStatus::kSucceeded);
  EXPECT_EQ(bob_same_ser.stats.slow_path_direct, 0);
  EXPECT_GT(bob_same_ser.stats.fast_path_commits, 0);

  // A different SER of alice's still speculates — the history is keyed
  // per signature, not per tenant alone.
  const JobResult alice_other_ser = WaitDone(alice.Submit(KindJob(1)));
  ASSERT_EQ(alice_other_ser.status, JobStatus::kSucceeded);
  EXPECT_EQ(alice_other_ser.stats.slow_path_direct, 0);
  EXPECT_GT(alice_other_ser.stats.fast_path_commits, 0);

  // Every path produced the same bytes.
  const std::string expected = SequentialExpected()[0];
  EXPECT_EQ(poisoned.output, expected);
  EXPECT_EQ(alice_after.output, expected);
  EXPECT_EQ(bob_same_ser.output, expected);
}

// ---------------------------------------------------------------------------
// The acceptance storm: 16 tenants x 64 heterogeneous jobs, concurrent
// submitters, outputs byte-identical to sequential runs, hit rate > 90%.
// ---------------------------------------------------------------------------

TEST(ServiceTest, SixteenTenantStormIsByteIdenticalWithHotCache) {
  const std::vector<std::string> expected = SequentialExpected();

  ServiceConfig config = SmallService(4);
  config.max_queue_depth = 2048;
  config.max_queue_depth_per_tenant = 64;
  EngineService service(config);

  constexpr int kTenants = 16;
  constexpr int kJobsPerTenant = 64;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      Session session = service.CreateSession("tenant" + std::to_string(t));
      std::vector<JobHandle> handles;
      std::vector<int> kinds;
      handles.reserve(kJobsPerTenant);
      for (int j = 0; j < kJobsPerTenant; ++j) {
        const int kind = (t + j) % kJobKinds;
        kinds.push_back(kind);
        handles.push_back(session.Submit(KindJob(kind)));
      }
      for (int j = 0; j < kJobsPerTenant; ++j) {
        const JobResult result = WaitDone(handles[j]);
        if (result.status != JobStatus::kSucceeded) {
          failures.fetch_add(1);
        } else if (result.output != expected[kinds[j]]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0) << "service outputs must be byte-identical to sequential runs";

  const PlanCache::Stats cache = service.plan_cache_stats();
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  ASSERT_GT(lookups, 0.0);
  EXPECT_GT(static_cast<double>(cache.hits) / lookups, 0.9)
      << "hits=" << cache.hits << " misses=" << cache.misses;
  EXPECT_EQ(cache.evictions, 0) << "the storm's working set fits the default budget";

  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(service.TenantJobsCompleted("tenant" + std::to_string(t)), kJobsPerTenant);
  }
  const AdmissionController::Stats admission = service.admission_stats();
  EXPECT_EQ(admission.submitted, kTenants * kJobsPerTenant);
  EXPECT_EQ(admission.dispatched, kTenants * kJobsPerTenant);
  EXPECT_EQ(admission.rejected, 0);
}

TEST(ServiceTest, ShutdownDrainsQueuedJobs) {
  auto service = std::make_unique<EngineService>(SmallService(2));
  Session session = service->CreateSession("alice");
  std::vector<JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(session.Submit(KindJob(i % kJobKinds)));
  }
  service->Shutdown();  // drains, then joins
  for (JobHandle& handle : handles) {
    EXPECT_EQ(WaitDone(handle).status, JobStatus::kSucceeded) << "queued jobs drain on shutdown";
  }
  JobHandle late = session.Submit(KindJob(0));
  EXPECT_EQ(late.poll(), JobStatus::kRejected);
  service.reset();
}

}  // namespace
}  // namespace gerenuk
