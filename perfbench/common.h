// Shared pieces of the four workloads: run options, the result report,
// timing of repeated set-up, latency summaries, and the per-layer readings
// taken from the engines' public counters and the benchmark's own spans.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/tracer.h"
#include "src/dataflow/dataset.h"
#include "src/support/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  // traces and shuffle spill files go here
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one run reports. End-to-end metrics come from untraced work and are
// the same five on every workload; layer metrics are the traced run's
// result. Readings that exist on one workload only (speedup_vs_baseline,
// job_ms_p99, ...) are layer metrics too, printed in both modes.
class Report {
 public:
  void E2E(const std::string& name, double value, const char* unit) {
    e2e_[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    layer_[name] = Metric{value, unit};
  }

  void Attempt(int64_t n = 1) { attempted_ += n; }
  // An operation that did not produce its result (failed, rejected,
  // deadline exceeded, or not resolved within its bounded wait).
  void Fail(const std::string& why) {
    failed_ += 1;
    Note(why);
  }
  // An output that differs from its independent reference: a failed
  // operation that also makes the whole run incorrect.
  void Mismatch(const std::string& why) {
    correct_ = false;
    Fail("MISMATCH " + why);
  }

  const std::map<std::string, Metric>& e2e() const { return e2e_; }
  const std::map<std::string, Metric>& layer() const { return layer_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  void Note(const std::string& why) {
    if (failed_ <= 5) {
      std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    }
  }

  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

// Runs `setup` `reps` times (each run replaces the state the previous one
// built) and returns the median wall time in seconds.
inline double MedianSetupSeconds(int reps, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const int64_t start = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Median(seconds);
}

// The set-up repetitions every workload uses for setup_s.
inline constexpr int kSetupReps = 5;

// Runs `job` (given the job index) until both `seconds` have passed and
// `min_jobs` jobs have run.
inline void RunFor(double seconds, int64_t min_jobs, const std::function<void(int64_t)>& job) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int64_t i = 0; i < min_jobs || NowNs() < deadline; ++i) {
    job(i);
  }
}

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// job_ms_p50 / job_ms_p90 over `job_ms`, plus records_per_s = records over
// the summed job wall time, and the sample count. Returns false when the
// sample cannot support a p90 (fewer than 100 jobs).
bool ReportJobLatencies(Report* report, const std::vector<double>& job_ms, int64_t records);

// The engine counters every workload reports per job (means over `jobs`).
// `gc_pauses` comes from the trace histogram and is passed separately.
void ReportEngineLayers(Report* report, const gerenuk::EngineStats& total, int64_t jobs,
                        int64_t gc_pauses);

// stage.overhead_ms / stage.attributed_frac from one dataflow call each.
struct StageSamples {
  std::vector<double> overhead_ms;
  std::vector<double> attributed_frac;

  void Add(int64_t wall_ns, const gerenuk::PhaseTimes& delta) {
    overhead_ms.push_back(Ms(wall_ns - delta.Get(gerenuk::Phase::kCompute)));
    attributed_frac.push_back(wall_ns > 0 ? static_cast<double>(delta.TotalNanos()) /
                                                static_cast<double>(wall_ns)
                                          : 0.0);
  }
  void ReportTo(Report* report) const {
    report->Layer("stage.overhead_ms", Median(overhead_ms), "ms");
    report->Layer("stage.attributed_frac", Median(attributed_frac), "ratio");
  }
};

// Median span duration per dataflow/mapreduce call name, and each layer's
// self-time coverage of job wall time.
void ReportSpanLayers(Report* report, const Tracer& tracer);

// tracing.overhead_pct: traced vs untraced job latency, median over median.
inline void ReportTracingOverhead(Report* report, const std::vector<double>& untraced_ms,
                                  const std::vector<double>& traced_ms) {
  const double base = Median(untraced_ms);
  report->Layer("tracing.overhead_pct",
                base > 0.0 ? (Median(traced_ms) / base - 1.0) * 100.0 : 0.0, "%");
}

// Engine configuration knobs shared by the workloads' engines: the traced
// run turns on the engine's own trace and the sampled plan-op profiler.
template <typename Config>
void ApplyTracing(Config* engine_config, bool traced) {
  engine_config->observability.trace = traced;
  engine_config->observability.plan_profile_stride = traced ? 64 : 0;
}

// gc_pause_ns histogram count of an engine's trace (0 when untraced).
template <typename Engine>
int64_t GcPauses(const Engine& engine) {
  const gerenuk::MetricsRegistry metrics = engine.metrics();  // returned by value
  auto it = metrics.histograms().find("gc_pause_ns");
  return it == metrics.histograms().end() ? 0 : it->second.count();
}

// compile.transform_ms / compile.plan_ms: each of `fns` through
// CompileSingleFunction and its transformed program through CompilePlan,
// summed per repetition; the median over `reps` repetitions.
void TimeCompileFunctions(Report* report, const gerenuk::DataStructAnalyzer& layouts,
                          const gerenuk::SerProgram& udfs,
                          const std::vector<const gerenuk::Function*>& fns, int reps);

// Concatenated record bytes of a Gerenuk dataset, partition by partition:
// the output every correctness check compares. Overwrites `*bytes`, keeping
// its capacity, so a job loop does not allocate a fresh buffer per job.
inline void DatasetBytesInto(const gerenuk::DatasetPtr& ds, std::string* bytes) {
  bytes->clear();
  for (const gerenuk::NativePartition& part : ds->native_parts) {
    for (size_t r = 0; r < part.record_count(); ++r) {
      bytes->append(reinterpret_cast<const char*>(part.record_addr(r)), part.record_size(r));
    }
  }
}

inline std::string DatasetBytes(const gerenuk::DatasetPtr& ds) {
  std::string bytes;
  DatasetBytesInto(ds, &bytes);
  return bytes;
}

inline gerenuk::PhaseTimes PhaseDelta(const gerenuk::PhaseTimes& after,
                                      const gerenuk::PhaseTimes& before) {
  gerenuk::PhaseTimes delta;
  for (int p = 0; p < 4; ++p) {
    delta.nanos[p] = after.nanos[p] - before.nanos[p];
  }
  return delta;
}

// One timed call into an engine: a span named `name` under `parent`, the
// engine's phase-time delta over the call as its children, and (when
// `stages` is set) one stage.* sample. Returns what `call` returns.
template <typename Engine, typename F>
auto EngineCall(Tracer& tracer, Engine& engine, const char* name, int parent, int64_t job,
                StageSamples* stages, F&& call) {
  const gerenuk::PhaseTimes before = engine.stats().times;
  SpanScope span(tracer, name, parent, job);
  auto result = call();
  const int64_t wall_ns = span.Done();
  const gerenuk::PhaseTimes delta = PhaseDelta(engine.stats().times, before);
  tracer.AddPhaseChildren(span.id(), delta, job);
  if (stages != nullptr) {
    stages->Add(wall_ns, delta);
  }
  return result;
}

// The four workloads. Each fills `report` and returns false on a harness
// error (one that leaves the run without a result).
bool RunPaperSuite(const Options& options, Report* report);
bool RunMapStage(const Options& options, Report* report);
bool RunShuffleSpill(const Options& options, bool joins_only, Report* report);
bool RunServiceMix(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
