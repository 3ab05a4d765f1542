// Multi-tenant service-mode harness. Prints human-readable rows and writes
// BENCH_service.json so future PRs can track the service trajectory:
//
//   1. Submit latency — the same job cold (first submission compiles its
//      plans) vs cache-hot (repeat submissions hit the signature-keyed
//      PlanCache and skip CompilePlan). The acceptance bar is hot < cold.
//   2. Throughput scaling — jobs/sec with 1, 4, and 16 concurrent tenants
//      against a fixed engine pool.
//   3. Fairness — under saturation, the per-tenant completed-job spread in
//      the first half of the run (DRR should keep max/min within 2x).
//   4. Resilience — cancel latency (cancel() on a running job to terminal
//      status) and breaker recovery time (TripBreaker to the close after
//      rebuild + probes).
//
// Run with --quick for the perf-smoke pass (smaller job counts, same shape).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/service/engine_service.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

ServiceConfig BenchService(int num_engines) {
  ServiceConfig config;
  config.engine.execution.mode = EngineMode::kGerenuk;
  config.engine.execution.heap_bytes = 32u << 20;
  config.engine.execution.num_partitions = 4;
  config.engine.execution.num_workers = 2;
  config.num_engines = num_engines;
  config.max_queue_depth = 4096;
  config.max_queue_depth_per_tenant = 1024;
  // Per-slot setup payload: the Pair klasses + UDFs, built once per slot
  // (both front ends share its class registry) so repeat submissions share
  // klass identity and keep the plan cache hot.
  config.setup = [](EngineContext& ctx) -> std::shared_ptr<void> {
    auto udfs = std::make_shared<PairUdfs>();
    BuildPairUdfs(*ctx.spark, udfs.get());
    return udfs;
  };
  return config;
}

// The benchmark job: a map stage over `records` Pair records. Returns the
// output bytes so the service path is end-to-end comparable to a direct run.
JobSpec MapJob(int64_t records) {
  JobSpec spec;
  spec.name = "map" + std::to_string(records);
  spec.run = [records](EngineContext& ctx) -> std::string {
    const PairUdfs& u = *static_cast<PairUdfs*>(ctx.setup.get());
    DatasetPtr in = MakePairInput(*ctx.spark, u, records);
    DatasetPtr out = ctx.spark->RunStage(in, u.udfs, {NarrowOp::Map(u.double_value, u.pair)});
    std::vector<uint8_t> bytes = DatasetBytes(out);
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  };
  return spec;
}

// A heavier mixed job for the throughput/fairness sections.
JobSpec MixedJob(int kind, int64_t records) {
  JobSpec spec;
  spec.name = "mixed" + std::to_string(kind);
  spec.run = [kind, records](EngineContext& ctx) -> std::string {
    const PairUdfs& u = *static_cast<PairUdfs*>(ctx.setup.get());
    DatasetPtr in = MakePairInput(*ctx.spark, u, records);
    DatasetPtr out;
    switch (kind % 3) {
      case 0:
        out = ctx.spark->RunStage(in, u.udfs, {NarrowOp::Map(u.double_value, u.pair)});
        break;
      case 1:
        out = ctx.spark->RunStage(in, u.udfs, {NarrowOp::FlatMap(u.explode, u.pair)});
        break;
      default:
        out = ctx.spark->ReduceByKey(in, u.udfs, {}, KeySpec{u.get_key, false}, u.sum_values);
        break;
    }
    std::vector<uint8_t> bytes = DatasetBytes(out);
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  };
  return spec;
}

void SubmitLatency(bench::JsonWriter& json, int hot_rounds) {
  bench::PrintHeader("Service 1: submit latency, cold compile vs plan-cache hit");
  EngineService service(BenchService(1));
  Session session = service.CreateSession("latency");

  Clock::time_point start = Clock::now();
  JobResult cold = session.Submit(MapJob(2000)).wait();
  double cold_ms = MsSince(start);
  GERENUK_CHECK(cold.status == JobStatus::kSucceeded) << cold.error;
  GERENUK_CHECK_EQ(cold.stats.plan_cache_hits, 0);
  GERENUK_CHECK_GT(cold.stats.plans_compiled, 0);

  double hot_ms = 1e30;  // best-of filters scheduler noise out of the ratio
  for (int i = 0; i < hot_rounds; ++i) {
    start = Clock::now();
    JobResult hot = session.Submit(MapJob(2000)).wait();
    hot_ms = std::min(hot_ms, MsSince(start));
    GERENUK_CHECK(hot.status == JobStatus::kSucceeded) << hot.error;
    GERENUK_CHECK_EQ(hot.stats.plans_compiled, 0) << "repeat submission must not recompile";
    GERENUK_CHECK_GT(hot.stats.plan_cache_hits, 0);
    GERENUK_CHECK(hot.output == cold.output) << "cache hit must be byte-identical";
  }
  PlanCache::Stats cache = service.plan_cache_stats();
  double hit_rate = static_cast<double>(cache.hits) /
                    static_cast<double>(cache.hits + cache.misses);
  std::printf("cold submit:       %8.2fms (compiles %lld plans)\n", cold_ms,
              static_cast<long long>(cold.stats.plans_compiled));
  std::printf("cache-hit submit:  %8.2fms (best of %d)\n", hot_ms, hot_rounds);
  std::printf("cold/hot = %.2fx  cache hit rate = %.1f%%\n", cold_ms / hot_ms,
              hit_rate * 100.0);

  json.BeginObject("submit_latency");
  json.Field("cold_ms", cold_ms);
  json.Field("cache_hit_ms", hot_ms);
  json.Field("cold_vs_hot", cold_ms / hot_ms);
  json.Field("plan_cache_hit_rate", hit_rate);
  json.Field("cache_hit_regression", hot_ms < cold_ms ? 0 : 1);
  json.End();
}

// One tenant thread: submit `jobs` mixed jobs, wait for each, record
// completion instants into `completions` (tenant index + ms offset).
struct Completion {
  int tenant;
  double ms;
};

double RunTenants(EngineService& service, int tenants, int jobs_per_tenant, int64_t records,
                  std::vector<Completion>* completions) {
  std::mutex mu;
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(tenants);
  for (int t = 0; t < tenants; ++t) {
    threads.emplace_back([&, t] {
      Session session = service.CreateSession("tenant" + std::to_string(t));
      for (int j = 0; j < jobs_per_tenant; ++j) {
        JobResult result = session.Submit(MixedJob(j, records)).wait();
        GERENUK_CHECK(result.status == JobStatus::kSucceeded) << result.error;
        if (completions != nullptr) {
          std::lock_guard<std::mutex> lock(mu);
          completions->push_back({t, MsSince(start)});
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return MsSince(start);
}

void ThroughputScaling(bench::JsonWriter& json, int num_engines, int jobs_per_tenant) {
  bench::PrintHeader("Service 2: jobs/sec vs concurrent tenants (fixed engine pool)");
  json.BeginArray("throughput");
  for (int tenants : {1, 4, 16}) {
    EngineService service(BenchService(num_engines));
    // Warm the caches so scaling measures dispatch, not first-compile.
    RunTenants(service, 1, 3, 400, nullptr);
    double elapsed_ms = RunTenants(service, tenants, jobs_per_tenant, 400, nullptr);
    int total_jobs = tenants * jobs_per_tenant;
    double jobs_per_sec = total_jobs / (elapsed_ms / 1000.0);
    PlanCache::Stats cache = service.plan_cache_stats();
    double hit_rate = static_cast<double>(cache.hits) /
                      static_cast<double>(cache.hits + cache.misses);
    std::printf("%2d tenants x %2d jobs on %d engines: %7.1f jobs/s  (%.0fms, hit rate %.1f%%)\n",
                tenants, jobs_per_tenant, num_engines, jobs_per_sec, elapsed_ms,
                hit_rate * 100.0);
    json.BeginObject();
    json.Field("tenants", tenants);
    json.Field("jobs", total_jobs);
    json.Field("engines", num_engines);
    json.Field("jobs_per_sec", jobs_per_sec);
    json.Field("plan_cache_hit_rate", hit_rate);
    json.End();
  }
  json.End();
}

void Fairness(bench::JsonWriter& json, int tenants, int jobs_per_tenant) {
  bench::PrintHeader("Service 3: DRR fairness under saturation");
  // One engine slot and many tenants: the queue stays saturated, so the
  // completion order is the dispatch order DRR chose.
  EngineService service(BenchService(1));
  RunTenants(service, 1, 3, 400, nullptr);  // warm the plan cache
  std::vector<Completion> completions;
  RunTenants(service, tenants, jobs_per_tenant, 400, &completions);

  // Per-tenant completed-job counts within the first half of the run: a fair
  // scheduler serves every saturated tenant at the same rate, so the spread
  // (max/min) stays near 1. The acceptance bar is < 2x.
  std::sort(completions.begin(), completions.end(),
            [](const Completion& a, const Completion& b) { return a.ms < b.ms; });
  size_t half = completions.size() / 2;
  std::vector<int64_t> counts(tenants, 0);
  for (size_t i = 0; i < half; ++i) {
    counts[completions[i].tenant] += 1;
  }
  int64_t min_count = *std::min_element(counts.begin(), counts.end());
  int64_t max_count = *std::max_element(counts.begin(), counts.end());
  double ratio = min_count > 0 ? static_cast<double>(max_count) / min_count : 1e30;
  std::printf("%d tenants x %d jobs, first %zu completions: per-tenant min=%lld max=%lld\n",
              tenants, jobs_per_tenant, half, static_cast<long long>(min_count),
              static_cast<long long>(max_count));
  std::printf("fairness ratio (max/min) = %.2fx (acceptance bar: < 2x)\n", ratio);

  json.BeginObject("fairness");
  json.Field("tenants", tenants);
  json.Field("jobs_per_tenant", jobs_per_tenant);
  json.Field("first_half_min", min_count);
  json.Field("first_half_max", max_count);
  json.Field("fairness_ratio", ratio);
  json.Field("fairness_regression", ratio < 2.0 ? 0 : 1);
  json.End();
}

void Resilience(bench::JsonWriter& json, int rounds) {
  bench::PrintHeader("Service 4: cancel latency and breaker recovery time");
  EngineService service(BenchService(1));
  Session session = service.CreateSession("resilience");
  RunTenants(service, 1, 3, 400, nullptr);  // warm the plan cache

  // Cancel latency: a long-running body (many stages) is cancelled mid-run;
  // measured from cancel() to the handle turning terminal — the cooperative
  // unwind reaching the next task-attempt boundary plus handle resolution.
  std::vector<double> cancel_ms;
  for (int i = 0; i < rounds; ++i) {
    auto started = std::make_shared<std::atomic<bool>>(false);
    JobSpec endless;
    endless.name = "endless";
    endless.run = [started](EngineContext& ctx) -> std::string {
      const PairUdfs& u = *static_cast<PairUdfs*>(ctx.setup.get());
      for (;;) {
        DatasetPtr in = MakePairInput(*ctx.spark, u, 400);
        ctx.spark->RunStage(in, u.udfs, {NarrowOp::Map(u.double_value, u.pair)});
        started->store(true);
      }
    };
    JobHandle handle = session.Submit(std::move(endless));
    while (!started->load()) {
      std::this_thread::yield();
    }
    Clock::time_point start = Clock::now();
    handle.cancel();
    JobResult result = handle.wait();
    cancel_ms.push_back(MsSince(start));
    GERENUK_CHECK(result.status == JobStatus::kCancelled) << result.error;
  }
  std::sort(cancel_ms.begin(), cancel_ms.end());
  const double cancel_median = cancel_ms[cancel_ms.size() / 2];

  // Breaker recovery: TripBreaker, then feed probe jobs; measured from the
  // trip to the breaker closing — engine teardown, rebuild (including the
  // per-slot setup), and the probe successes.
  const auto baseline_closes = service.breaker_stats().closes;
  std::vector<double> recovery_ms;
  for (int i = 0; i < rounds; ++i) {
    Clock::time_point start = Clock::now();
    GERENUK_CHECK(service.TripBreaker(0));
    while (service.breaker_stats().closes <= baseline_closes + i) {
      JobResult probe = session.Submit(MapJob(400)).wait();
      GERENUK_CHECK(probe.status == JobStatus::kSucceeded) << probe.error;
    }
    recovery_ms.push_back(MsSince(start));
  }
  std::sort(recovery_ms.begin(), recovery_ms.end());
  const double recovery_median = recovery_ms[recovery_ms.size() / 2];

  std::printf("cancel latency:    %8.2fms median of %d (cancel -> terminal)\n", cancel_median,
              rounds);
  std::printf("breaker recovery:  %8.2fms median of %d (trip -> rebuilt + probes -> close)\n",
              recovery_median, rounds);

  json.BeginObject("resilience");
  json.Field("cancel_latency_ms", cancel_median);
  json.Field("breaker_recovery_ms", recovery_median);
  json.Field("rounds", static_cast<int64_t>(rounds));
  json.End();
}

}  // namespace
}  // namespace gerenuk

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  gerenuk::bench::JsonWriter json("BENCH_service.json");
  GERENUK_CHECK(json.ok()) << "cannot open BENCH_service.json for writing";
  json.BeginObject();
  gerenuk::SubmitLatency(json, quick ? 5 : 20);
  gerenuk::ThroughputScaling(json, /*num_engines=*/quick ? 2 : 4,
                             /*jobs_per_tenant=*/quick ? 4 : 12);
  gerenuk::Fairness(json, /*tenants=*/quick ? 4 : 8, /*jobs_per_tenant=*/quick ? 6 : 12);
  gerenuk::Resilience(json, /*rounds=*/quick ? 3 : 9);
  json.End();
  std::printf("\nwrote BENCH_service.json\n");
  return 0;
}
