#include "perfbench/common.h"

#include <algorithm>

#include "perfbench/metric_names.h"
#include "src/dataflow/stage_compiler.h"
#include "src/exec/plan.h"

namespace perfbench {

bool ReportJobLatencies(Report* report, const std::vector<double>& job_ms, int64_t records) {
  report->Layer("jobs_timed", static_cast<double>(job_ms.size()), "count");
  std::optional<double> p90 = Percentile(job_ms, 90.0);
  if (!p90) {
    std::fprintf(stderr, "perfbench: %zu jobs cannot support a p90\n", job_ms.size());
    return false;
  }
  double total_ms = 0.0;
  for (double ms : job_ms) {
    total_ms += ms;
  }
  report->E2E("job_ms_p50", Median(job_ms), "ms");
  report->E2E("job_ms_p90", *p90, "ms");
  report->E2E("records_per_s", total_ms > 0.0 ? records / (total_ms / 1e3) : 0.0, "1/s");
  return true;
}

void ReportEngineLayers(Report* report, const gerenuk::EngineStats& total, int64_t jobs,
                        int64_t gc_pauses) {
  const double n = static_cast<double>(std::max<int64_t>(jobs, 1));
  auto per_job = [&](const char* name, double value, const char* unit) {
    report->Layer(name, value / n, unit);
  };
  using gerenuk::Phase;
  per_job("exec.compute_ms", total.times.Millis(Phase::kCompute), "ms");
  per_job("runtime.gc_ms", total.times.Millis(Phase::kGc), "ms");
  per_job("serde.ser_ms", total.times.Millis(Phase::kSerialize), "ms");
  per_job("serde.deser_ms", total.times.Millis(Phase::kDeserialize), "ms");
  per_job("runtime.gc_pauses", static_cast<double>(gc_pauses), "count");
  per_job("exec.tasks_run", total.tasks_run, "count");
  per_job("exec.plan_ops_dispatched", static_cast<double>(total.plan_ops.total_dispatches()),
          "count");
  for (const char* op : kTopOps) {
    double count = 0.0;
    for (int k = 0; k < static_cast<int>(gerenuk::PlanOpCode::kCount); ++k) {
      if (std::string(gerenuk::PlanOpName(static_cast<gerenuk::PlanOpCode>(k))) == op) {
        count = static_cast<double>(total.plan_ops.dispatches[k]);
      }
    }
    per_job((std::string("exec.op.") + op).c_str(), count, "count");
  }
  per_job("exec.fast_path_commits", total.fast_path_commits, "count");
  per_job("exec.aborts", total.aborts, "count");
  per_job("exec.slow_path_direct", total.slow_path_direct, "count");
  const int attempts = total.fast_path_commits + total.aborts;
  report->Layer("exec.commit_ratio",
                attempts > 0 ? static_cast<double>(total.fast_path_commits) / attempts : 0.0,
                "ratio");
  per_job("exec.stages_compiled", total.stages_compiled, "count");
  per_job("exec.plans_compiled", total.plans_compiled, "count");
  per_job("compile.statements_transformed", total.transform.statements_transformed, "count");
  per_job("mapreduce.spills", total.spills, "count");
  per_job("mapreduce.combine_calls", static_cast<double>(total.combine_calls), "count");
  per_job("shuffle.bytes", static_cast<double>(total.shuffle_bytes), "B");
  per_job("shuffle.spill_blocks", static_cast<double>(total.spill_blocks), "count");
  per_job("shuffle.spill_bytes_raw", static_cast<double>(total.spill_bytes_raw), "B");
  per_job("shuffle.spill_bytes_stored", static_cast<double>(total.spill_bytes_stored), "B");
  report->Layer("shuffle.compress_ratio",
                total.spill_bytes_stored > 0 ? static_cast<double>(total.spill_bytes_raw) /
                                                   static_cast<double>(total.spill_bytes_stored)
                                             : 0.0,
                "ratio");
  per_job("shuffle.fetches", static_cast<double>(total.shuffle_fetches), "count");
  per_job("shuffle.spill_merges", static_cast<double>(total.spill_merges), "count");
  per_job("shuffle.fetch_backpressure_waits", static_cast<double>(total.fetch_backpressure_waits),
          "count");
}

void TimeCompileFunctions(Report* report, const gerenuk::DataStructAnalyzer& layouts,
                          const gerenuk::SerProgram& udfs,
                          const std::vector<const gerenuk::Function*>& fns, int reps) {
  std::vector<double> transform_ms;
  std::vector<double> plan_ms;
  for (int rep = 0; rep < reps; ++rep) {
    int64_t transform_ns = 0;
    int64_t plan_ns = 0;
    for (const gerenuk::Function* fn : fns) {
      const int64_t t0 = NowNs();
      gerenuk::CompiledFunction compiled = gerenuk::CompileSingleFunction(
          gerenuk::EngineMode::kGerenuk, layouts, udfs, fn, nullptr);
      const int64_t t1 = NowNs();
      gerenuk::CompilePlan(*compiled.transformed, layouts);
      transform_ns += t1 - t0;
      plan_ns += NowNs() - t1;
    }
    transform_ms.push_back(Ms(transform_ns));
    plan_ms.push_back(Ms(plan_ns));
  }
  report->Layer("compile.transform_ms", Median(transform_ms), "ms");
  report->Layer("compile.plan_ms", Median(plan_ms), "ms");
}

void ReportSpanLayers(Report* report, const Tracer& tracer) {
  std::vector<Span> spans = tracer.spans();
  std::map<std::string, std::vector<double>> durations;
  for (const Span& s : spans) {
    durations[s.name].push_back(Ms(s.end_ns - s.start_ns));
  }
  for (const char* call : kTimedCalls) {
    auto it = durations.find(call);
    report->Layer(std::string(call) + "_ms", it == durations.end() ? 0.0 : Median(it->second),
                  "ms");
  }
  std::map<std::string, double> coverage = Tracer::LayerCoverage(spans);
  for (const char* layer : kCoverageLayers) {
    auto it = coverage.find(layer);
    report->Layer(std::string("coverage.") + layer, it == coverage.end() ? 0.0 : it->second,
                  "ratio");
  }
}

}  // namespace perfbench
