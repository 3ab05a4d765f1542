// service_mix: an EngineService shared by four tenants, driven by one
// open-loop generator over a fixed ladder of arrival rates. Jobs are small
// (map, flatMap or reduceByKey over 2k-20k Pair records) and repeat twelve
// signatures, so the plan cache hits; one job in 64 is a long job that the
// client cancels as soon as it is running.
//
// Why: per-job overhead dominates here (admission, DRR dispatch, the cache
// hit path, Source, task setup) and the cancel path is exercised; map_stage
// barely pays these costs. Every request is timed from its due time, so a
// stall is charged to every request it delays.
//
// Reference: every succeeded output must equal the same job run directly,
// in sequence, on a standalone engine.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "src/ir/builder.h"
#include "src/service/engine_service.h"

namespace perfbench {
namespace {

using namespace gerenuk;

// The rate ladder (jobs/s), the nominal rung the end-to-end latencies come
// from, and the p99 latency limit a rung must meet to count toward
// jobs_per_s_at_slo. METRICS.md and BENCHMARK.json quote these numbers.
constexpr double kLadder[] = {150.0, 300.0, 450.0, 600.0};
constexpr int kNominalRung = 1;
constexpr double kSloP99Ms = 50.0;
// p99 needs 1000 samples; one job in kLongEvery is cancelled, not timed.
constexpr int64_t kMinJobsPerRung = 1024;

constexpr int kTenants = 4;
constexpr int kSlots = 3;
constexpr int64_t kSizes[] = {2000, 5000, 10000, 20000};
constexpr int kKinds = 3;  // map, flatMap, reduceByKey
constexpr int kVariants = kKinds * static_cast<int>(std::size(kSizes));
constexpr int64_t kLongEvery = 64;        // one long (cancelled) job in 64
constexpr int64_t kLongRecords = 50000;
constexpr int64_t kCancelWaitMs = 2000;   // bounded wait for kCancelled
constexpr int64_t kDrainWaitMs = 30000;   // bounded wait for a rung to drain

// Per-slot UDFs: built once per engine by the service's setup hook.
struct MixUdfs {
  const Klass* pair = nullptr;
  SerProgram udfs;
  const Function* double_value = nullptr;  // map: value *= 2
  const Function* explode = nullptr;       // flatMap: -> (k, v), (k + 1000, v)
  const Function* get_key = nullptr;
  const Function* sum_values = nullptr;    // reduce: (a, b) -> (a.k, a.v + b.v)
  const Function* spin = nullptr;          // the long job's map
};

void BuildMixUdfs(SparkEngine& engine, MixUdfs* u) {
  KlassRegistry& reg = engine.heap().klasses();
  const Klass* pair = reg.DefineClass("Pair", {
                                                  {"key", FieldKind::kI64, nullptr, 0},
                                                  {"value", FieldKind::kF64, nullptr, 0},
                                              });
  engine.RegisterDataType(pair);
  u->pair = pair;
  const Klass* pair_array = reg.Find("Pair[]");
  {
    Function* f = u->udfs.AddFunction("double_value");
    FunctionBuilder b(f);
    int rec = b.Param("rec", IrType::Ref(pair));
    f->return_type = IrType::Ref(pair);
    int out = b.NewObject(pair);
    b.FieldStore(out, pair, "key", b.FieldLoad(rec, pair, "key"));
    b.FieldStore(out, pair, "value",
                 b.BinOp(BinOpKind::kMul, b.FieldLoad(rec, pair, "value"), b.ConstF(2.0)));
    b.Return(out);
    b.Done();
    u->double_value = f;
  }
  {
    Function* f = u->udfs.AddFunction("explode");
    FunctionBuilder b(f);
    int rec = b.Param("rec", IrType::Ref(pair));
    f->return_type = IrType::Ref(pair_array);
    int k = b.FieldLoad(rec, pair, "key");
    int v = b.FieldLoad(rec, pair, "value");
    int arr = b.NewArray(pair_array, b.ConstI(2));
    int first = b.NewObject(pair);
    b.FieldStore(first, pair, "key", k);
    b.FieldStore(first, pair, "value", v);
    b.ArrayStore(arr, b.ConstI(0), first);
    int second = b.NewObject(pair);
    b.FieldStore(second, pair, "key", b.BinOp(BinOpKind::kAdd, k, b.ConstI(1000)));
    b.FieldStore(second, pair, "value", v);
    b.ArrayStore(arr, b.ConstI(1), second);
    b.Return(arr);
    b.Done();
    u->explode = f;
  }
  {
    Function* f = u->udfs.AddFunction("get_key");
    FunctionBuilder b(f);
    int rec = b.Param("rec", IrType::Ref(pair));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, pair, "key"));
    b.Done();
    u->get_key = f;
  }
  {
    Function* f = u->udfs.AddFunction("sum_values");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(pair));
    int c = b.Param("b", IrType::Ref(pair));
    f->return_type = IrType::Ref(pair);
    int out = b.NewObject(pair);
    b.FieldStore(out, pair, "key", b.FieldLoad(a, pair, "key"));
    b.FieldStore(out, pair, "value",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, pair, "value"),
                         b.FieldLoad(c, pair, "value")));
    b.Return(out);
    b.Done();
    u->sum_values = f;
  }
  {
    Function* f = u->udfs.AddFunction("spin");
    FunctionBuilder b(f);
    int rec = b.Param("rec", IrType::Ref(pair));
    f->return_type = IrType::Ref(pair);
    int key = b.FieldLoad(rec, pair, "key");
    int acc = b.Local("acc", IrType::I64());
    b.AssignTo(acc, b.ConstI(0));
    b.For(b.ConstI(64), [&](int i) {
      b.AssignTo(acc, b.BinOp(BinOpKind::kAdd, acc, b.BinOp(BinOpKind::kXor, i, key)));
    });
    int out = b.NewObject(pair);
    b.FieldStore(out, pair, "key", acc);
    b.FieldStore(out, pair, "value", b.FieldLoad(rec, pair, "value"));
    b.Return(out);
    b.Done();
    u->spin = f;
  }
}

EngineConfig MixEngineConfig(bool traced) {
  EngineConfig config;
  config.execution.mode = EngineMode::kGerenuk;
  config.execution.heap_bytes = 16u << 20;
  config.execution.num_partitions = 4;
  config.execution.num_workers = 1;
  ApplyTracing(&config, traced);
  return config;
}

// Deterministic Pair input of a job: keys over 97 groups, small integer
// values, both mixed with the seed.
DatasetPtr SourcePairs(SparkEngine& engine, const MixUdfs& u, int64_t count, uint64_t seed) {
  Heap* heap = &engine.heap();
  const Klass* pair = u.pair;
  const size_t key_off = pair->FindField("key")->offset;
  const size_t value_off = pair->FindField("value")->offset;
  return engine.Source(pair, count, [=](int64_t i, RootScope&) {
    const uint64_t h = (static_cast<uint64_t>(i) + seed) * 0x9e3779b97f4a7c15ULL;
    ObjRef rec = heap->AllocObject(pair);
    heap->SetPrim<int64_t>(rec, key_off, static_cast<int64_t>((h >> 33) % 97));
    heap->SetPrim<double>(rec, value_off, static_cast<double>((h >> 20) % 13));
    return rec;
  });
}

// Where a job body reports its own timing (written on the dispatcher before
// the handle resolves; read by the generator after it observes resolution).
struct BodyTimes {
  int64_t start_ns = 0;
  int64_t peak_bytes = 0;
};

// One small job: source, the variant's stage, output bytes. `tracer` spans
// hang under `parent` (the job's service.exec span).
std::string RunVariant(SparkEngine& engine, const MixUdfs& u, int variant, uint64_t seed,
                       Tracer& tracer, int parent, int64_t job) {
  const int kind = variant % kKinds;
  const int64_t count = kSizes[variant / kKinds];
  DatasetPtr in = EngineCall(tracer, engine, "dataflow.source", parent, job, nullptr,
                             [&] { return SourcePairs(engine, u, count, seed + variant); });
  DatasetPtr out;
  if (kind == 2) {
    out = EngineCall(tracer, engine, "dataflow.reduce_by_key", parent, job, nullptr, [&] {
      return engine.ReduceByKey(in, u.udfs, {}, KeySpec{u.get_key, false}, u.sum_values);
    });
  } else {
    const NarrowOp op = kind == 0 ? NarrowOp::Map(u.double_value, u.pair)
                                  : NarrowOp::FlatMap(u.explode, u.pair);
    out = EngineCall(tracer, engine, "dataflow.run_stage", parent, job, nullptr,
                     [&] { return engine.RunStage(in, u.udfs, {op}); });
  }
  SpanScope output(tracer, "dataflow.output", parent, job);
  return DatasetBytes(out);
}

// The long job: one source, then spin stages until cancelled.
std::string RunLongJob(SparkEngine& engine, const MixUdfs& u, uint64_t seed) {
  DatasetPtr data = SourcePairs(engine, u, kLongRecords, seed);
  for (int stage = 0; stage < 10000; ++stage) {
    data = engine.RunStage(data, u.udfs, {NarrowOp::Map(u.spin, u.pair)});
  }
  return DatasetBytes(data);
}

// One request of the open-loop generator, from due time to resolution.
struct Request {
  int64_t index = 0;  // over the whole run
  int64_t slot = 0;   // within its rung's schedule
  int variant = 0;
  bool long_job = false;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t submitted_ns = 0;
  int64_t cancel_ns = 0;
  int64_t done_ns = 0;
  int root_span = -1;
  JobHandle handle;
  std::shared_ptr<BodyTimes> body = std::make_shared<BodyTimes>();
};

// What the generator measured on one rung.
struct RungResult {
  double rate = 0.0;
  std::vector<double> latency_ms;  // succeeded small jobs, from due time
  std::vector<double> queue_wait_ms;
  std::vector<double> exec_ms;
  std::vector<double> submit_us;
  std::vector<double> lag_ms;
  std::vector<double> cancel_ms;
  int64_t records = 0;
  int64_t backlog_mid = 0;
  int64_t backlog_end = 0;
  int64_t backlog_max = 0;
  bool drained = true;
};

class Generator {
 public:
  // Spans go to `tracer` on the nominal rung only, so layer coverage
  // describes jobs at the nominal rate rather than the overloaded rungs.
  Generator(EngineService& service, const std::vector<std::string>& expected, uint64_t seed,
            Tracer& tracer, Report* report)
      : expected_(expected), seed_(seed), tracer_(tracer), report_(report) {
    for (int t = 0; t < kTenants; ++t) {
      sessions_.push_back(service.CreateSession("tenant" + std::to_string(t)));
    }
  }

  // Runs `rate` jobs/s for `seconds` (at least kMinJobsPerRung jobs), then
  // waits for the rung's jobs to resolve.
  RungResult RunRung(int rung, double rate, double seconds, bool collect) {
    RungResult result;
    result.rate = rate;
    active_ = rung == kNominalRung ? &tracer_ : &off_;
    const int64_t jobs =
        std::max<int64_t>(kMinJobsPerRung, static_cast<int64_t>(std::ceil(seconds * rate)));
    schedule_.emplace(NowNs() + 1000000, rate);
    for (int64_t i = 0; i < jobs; ++i) {
      const int64_t due = schedule_->DueNs(i);
      while (NowNs() < due) {
        Sweep(&result, collect);
        if (due - NowNs() > 200000) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      Submit(i, &result);
      result.backlog_max = std::max<int64_t>(result.backlog_max, Outstanding());
      if (i == jobs / 2) {
        result.backlog_mid = Outstanding();
      }
    }
    result.backlog_end = Outstanding();
    const int64_t drain_deadline = NowNs() + kDrainWaitMs * 1000000;
    while (!pending_.empty() && NowNs() < drain_deadline) {
      Sweep(&result, collect);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (Request* r : pending_) {
      report_->Fail("job " + std::to_string(r->index) + " did not resolve within the drain wait");
      r->handle.cancel();
      result.drained = false;
    }
    pending_.clear();
    requests_.clear();
    return result;
  }

  int64_t peak_bytes() const { return peak_bytes_; }
  const EngineStats& stats() const { return stats_; }

 private:
  int64_t Outstanding() const { return static_cast<int64_t>(pending_.size()); }

  void Submit(int64_t slot, RungResult* result) {
    const int64_t index = next_index_++;
    requests_.emplace_back();
    Request* r = &requests_.back();
    r->index = index;
    r->slot = slot;
    r->due_ns = schedule_->DueNs(slot);
    r->long_job = index % kLongEvery == kLongEvery / 2;
    // A fixed walk over all twelve variants (5 is coprime with 12), so every
    // seed sends the same job mix; the seed changes the records.
    r->variant = static_cast<int>(index * 5 % kVariants);
    r->root_span = active_->Open("job", r->due_ns, -1, index);
    JobSpec spec;
    spec.name = r->long_job ? "long" : "v" + std::to_string(r->variant);
    const int variant = r->variant;
    const bool long_job = r->long_job;
    const uint64_t seed = seed_;
    const int root = r->root_span;
    std::shared_ptr<BodyTimes> body = r->body;
    Tracer* tracer = active_;
    spec.run = [=](EngineContext& ctx) -> std::string {
      auto* u = static_cast<MixUdfs*>(ctx.setup.get());
      body->start_ns = NowNs();
      std::string out;
      {
        SpanScope exec(*tracer, "service.exec", root, index);
        out = long_job ? RunLongJob(*ctx.spark, *u, seed)
                       : RunVariant(*ctx.spark, *u, variant, seed, *tracer, exec.id(), index);
      }
      body->peak_bytes = ctx.spark->peak_memory_bytes();
      return out;
    };
    r->sent_ns = NowNs();
    r->handle = sessions_[static_cast<size_t>(index % kTenants)].Submit(std::move(spec));
    r->submitted_ns = NowNs();
    result->lag_ms.push_back(Ms(schedule_->LatenessNs(slot, r->sent_ns)));
    result->submit_us.push_back(static_cast<double>(r->submitted_ns - r->sent_ns) / 1e3);
    report_->Attempt();
    pending_.push_back(r);
  }

  // Polls every outstanding request once: cancels long jobs that are
  // running, and settles every request that reached a terminal status.
  void Sweep(RungResult* result, bool collect) {
    const int64_t now = NowNs();
    for (size_t k = 0; k < pending_.size();) {
      Request* r = pending_[k];
      const JobStatus status = r->handle.poll();
      if (!internal::IsTerminal(status)) {
        if (r->long_job && r->cancel_ns == 0 && status == JobStatus::kRunning) {
          r->cancel_ns = NowNs();
          r->handle.cancel();
        } else if (r->cancel_ns != 0 && now - r->cancel_ns > kCancelWaitMs * 1000000) {
          report_->Fail("long job " + std::to_string(r->index) + " not cancelled within " +
                        std::to_string(kCancelWaitMs) + " ms");
          pending_[k] = pending_.back();
          pending_.pop_back();
          continue;
        }
        ++k;
        continue;
      }
      r->done_ns = NowNs();
      Settle(r, r->handle.wait(), result, collect);
      pending_[k] = pending_.back();
      pending_.pop_back();
    }
  }

  void Settle(Request* r, const JobResult& jr, RungResult* result, bool collect) {
    if (r->long_job) {
      if (jr.status != JobStatus::kCancelled) {
        report_->Fail(std::string("long job ended ") + JobStatusName(jr.status) +
                      " instead of cancelled");
      } else if (r->cancel_ns != 0) {
        result->cancel_ms.push_back(Ms(r->done_ns - r->cancel_ns));
      }
      active_->Close(r->root_span, r->done_ns);
      return;
    }
    if (jr.status != JobStatus::kSucceeded) {
      report_->Fail(std::string("job ended ") + JobStatusName(jr.status) + ": " + jr.error);
      active_->Close(r->root_span, r->done_ns);
      return;
    }
    if (jr.output != expected_[static_cast<size_t>(r->variant)]) {
      report_->Mismatch("service job variant " + std::to_string(r->variant) +
                        " differs from the standalone sequential run");
    }
    result->latency_ms.push_back(Ms(schedule_->LatencyNs(r->slot, r->done_ns)));
    result->queue_wait_ms.push_back(Ms(jr.queue_wait_ns));
    result->exec_ms.push_back(Ms(jr.exec_ns));
    result->records += kSizes[r->variant / kKinds];
    peak_bytes_ = std::max(peak_bytes_, r->body->peak_bytes);
    if (collect) {
      stats_ += jr.stats;
    }
    if (active_->enabled()) {
      const int root = r->root_span;
      active_->Add("service.generator_lag", r->due_ns, r->sent_ns, root, r->index);
      active_->Add("service.submit", r->sent_ns, r->submitted_ns, root, r->index);
      active_->Add("service.queue", r->submitted_ns,
                   std::max(r->submitted_ns, r->body->start_ns), root, r->index);
      active_->Close(root, r->done_ns);
    }
  }

  const std::vector<std::string>& expected_;
  const uint64_t seed_;
  Tracer& tracer_;
  Tracer off_{false};
  Tracer* active_ = &off_;  // the tracer of the rung being run
  Report* report_;
  std::vector<Session> sessions_;
  std::optional<OpenLoopSchedule> schedule_;  // the running rung's arrivals
  std::deque<Request> requests_;  // stable addresses for pending_
  std::vector<Request*> pending_;
  int64_t next_index_ = 0;
  int64_t peak_bytes_ = 0;
  EngineStats stats_;
};

ServiceConfig MixServiceConfig(bool traced) {
  ServiceConfig config;
  config.engine = MixEngineConfig(traced);
  config.num_engines = kSlots;
  // Deep enough that the overloaded top rung queues instead of rejecting.
  config.max_queue_depth = 8192;
  config.max_queue_depth_per_tenant = 4096;
  config.setup = [](EngineContext& ctx) -> std::shared_ptr<void> {
    auto u = std::make_shared<MixUdfs>();
    BuildMixUdfs(*ctx.spark, u.get());
    return u;
  };
  return config;
}

// Fills every slot's plan cache: each variant submitted once per slot.
void WarmUp(EngineService& service, uint64_t seed) {
  Session session = service.CreateSession("warmup");
  std::vector<JobHandle> handles;
  Tracer off(false);
  for (int rep = 0; rep < kSlots; ++rep) {
    for (int v = 0; v < kVariants; ++v) {
      JobSpec spec;
      spec.name = "warmup";
      spec.run = [v, seed, &off](EngineContext& ctx) {
        return RunVariant(*ctx.spark, *static_cast<MixUdfs*>(ctx.setup.get()), v, seed, off, -1,
                          0);
      };
      handles.push_back(session.Submit(std::move(spec)));
    }
  }
  for (const JobHandle& h : handles) {
    h.wait();
  }
}

// The highest rung whose p99 met the limit and whose backlog did not grow.
double RateAtSlo(const std::vector<RungResult>& rungs) {
  double best = 0.0;
  for (const RungResult& rung : rungs) {
    std::optional<double> p99 = Percentile(rung.latency_ms, 99.0);
    const bool backlog_ok = rung.drained && rung.backlog_end <= 2 * rung.backlog_mid + 2 * kSlots;
    if (p99 && *p99 <= kSloP99Ms && backlog_ok) {
      best = std::max(best, rung.rate);
    }
  }
  return best;
}

std::vector<double> Concat(const std::vector<RungResult>& rungs,
                           std::vector<double> RungResult::*field) {
  std::vector<double> all;
  for (const RungResult& rung : rungs) {
    all.insert(all.end(), (rung.*field).begin(), (rung.*field).end());
  }
  return all;
}

}  // namespace

bool RunServiceMix(const Options& options, Report* report) {
  std::unique_ptr<EngineService> service;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    service.reset();
    service = std::make_unique<EngineService>(MixServiceConfig(false));
    WarmUp(*service, options.seed);
  });
  report->E2E("setup_s", setup_s, "s");

  // Independent reference: each variant run in sequence on a standalone
  // engine (no service, no plan cache).
  std::vector<std::string> expected(kVariants);
  {
    SparkEngine engine(MixEngineConfig(false));
    MixUdfs u;
    BuildMixUdfs(engine, &u);
    Tracer off(false);
    for (int v = 0; v < kVariants; ++v) {
      expected[static_cast<size_t>(v)] = RunVariant(engine, u, v, options.seed, off, -1, 0);
    }
    std::vector<const Function*> fns = {u.double_value, u.explode, u.get_key, u.sum_values};
    if (options.trace) {
      TimeCompileFunctions(report, engine.layouts(), u.udfs, fns, 9);
    }
  }

  // Seconds per rung: the nominal rung gets half the run.
  const int rungs = static_cast<int>(std::size(kLadder));
  auto rung_seconds = [&](int rung) {
    return rung == kNominalRung ? options.seconds / 2 : options.seconds / 2 / (rungs - 1);
  };

  Tracer untraced(false);
  std::vector<double> untraced_nominal_ms;
  if (options.trace) {
    // Untraced calibration at the nominal rate, then a traced service. The
    // first rung after set-up runs slower while the slots settle, so the
    // calibration rung runs twice and the second is kept (the traced
    // nominal rung likewise follows a lower rung).
    Generator calibration(*service, expected, options.seed, untraced, report);
    for (int pass = 0; pass < 2; ++pass) {
      untraced_nominal_ms = calibration
                                .RunRung(kNominalRung, kLadder[kNominalRung],
                                         rung_seconds(kNominalRung) / 2, false)
                                .latency_ms;
    }
    service.reset();
    service = std::make_unique<EngineService>(MixServiceConfig(true));
    WarmUp(*service, options.seed);
  }

  Tracer tracer(options.trace);
  Generator generator(*service, expected, options.seed, tracer, report);
  const PlanCache::Stats cache_before = service->plan_cache_stats();
  const int64_t rejected_before = service->admission_stats().rejected;
  std::vector<RungResult> results;
  for (int rung = 0; rung < rungs; ++rung) {
    results.push_back(generator.RunRung(rung, kLadder[rung], rung_seconds(rung), true));
  }
  const PlanCache::Stats cache_after = service->plan_cache_stats();
  const int64_t rejected = service->admission_stats().rejected - rejected_before;
  service.reset();  // joins the dispatchers

  const RungResult& nominal = results[kNominalRung];
  report->E2E("peak_mem_mb", static_cast<double>(generator.peak_bytes()) / (1 << 20), "MB");
  const std::optional<double> p99 = Percentile(nominal.latency_ms, 99.0);
  report->Layer("job_ms_p99", p99.value_or(0.0), "ms");
  report->Layer("jobs_per_s_at_slo", RateAtSlo(results), "1/s");
  report->Layer("cancel_ms_p50", Median(Concat(results, &RungResult::cancel_ms)), "ms");
  report->Layer("service.submit_us", Median(nominal.submit_us), "us");
  report->Layer("service.queue_wait_ms_p50", Median(nominal.queue_wait_ms), "ms");
  report->Layer("service.queue_wait_ms_p99",
                Percentile(nominal.queue_wait_ms, 99.0).value_or(0.0), "ms");
  report->Layer("service.exec_ms_p50", Median(nominal.exec_ms), "ms");
  const int64_t hits = cache_after.hits - cache_before.hits;
  const int64_t lookups = hits + cache_after.misses - cache_before.misses;
  report->Layer("service.plan_cache_hit_ratio",
                lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
                "ratio");
  report->Layer("service.rejected", static_cast<double>(rejected), "count");
  int64_t backlog_max = 0;
  for (const RungResult& rung : results) {
    backlog_max = std::max(backlog_max, rung.backlog_max);
    std::printf("rung %6.0f jobs/s: %5zu ok  p50 %8.3f ms  p99 %8.3f ms  backlog mid/end/max "
                "%lld/%lld/%lld\n",
                rung.rate, rung.latency_ms.size(), Median(rung.latency_ms),
                Percentile(rung.latency_ms, 99.0).value_or(NAN),
                static_cast<long long>(rung.backlog_mid), static_cast<long long>(rung.backlog_end),
                static_cast<long long>(rung.backlog_max));
  }
  report->Layer("service.backlog_max", static_cast<double>(backlog_max), "count");
  report->Layer("service.generator_lag_ms_p99",
                Percentile(Concat(results, &RungResult::lag_ms), 99.0).value_or(0.0), "ms");
  if (!options.trace) {
    return ReportJobLatencies(report, nominal.latency_ms, nominal.records);
  }
  report->Layer("jobs_timed", static_cast<double>(nominal.latency_ms.size()), "count");
  int64_t jobs = 0;
  for (const RungResult& rung : results) {
    jobs += static_cast<int64_t>(rung.latency_ms.size());
  }
  ReportEngineLayers(report, generator.stats(), jobs, 0);
  ReportSpanLayers(report, tracer);
  ReportTracingOverhead(report, untraced_nominal_ms, nominal.latency_ms);
  return tracer.WriteChromeTrace(options.work_dir + "/" + options.workload + ".trace.json");
}

}  // namespace perfbench
