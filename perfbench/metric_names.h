// Every metric the benchmark reports, with its unit and which direction is
// better. BENCHMARK.json lists the same names; run.py refuses to report when
// the two disagree (`perfbench --list-metrics` prints this table).
#ifndef PERFBENCH_METRIC_NAMES_H_
#define PERFBENCH_METRIC_NAMES_H_

namespace perfbench {

struct MetricName {
  const char* name;
  const char* unit;
  const char* better;  // "higher" or "lower"
};

// Reported by every workload with --trace 0.
inline constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"job_ms_p50", "ms", "lower"},
    {"job_ms_p90", "ms", "lower"},
    {"records_per_s", "1/s", "higher"},
    {"peak_mem_mb", "MB", "lower"},
};

// Plan opcodes whose dispatch counts are reported as exec.op.<name>: the
// most dispatched ones on map_stage, fixed so every run reports the same set.
inline constexpr const char* kTopOps[] = {
    "vec.binop", "vec.scan",    "vec.loop.begin", "const",
    "return",    "writenative", "call",           "appendrecord",
};

// Benchmark calls timed by spans; reported as <name>_ms (median per call).
inline constexpr const char* kTimedCalls[] = {
    "dataflow.source", "dataflow.run_stage", "dataflow.reduce_by_key",
    "dataflow.join",   "dataflow.output",    "mapreduce.run_job",
};

// Layers whose self time is reported as a share of job wall time. "job" is
// the root span's own share: time inside a job that no layer call covers.
inline constexpr const char* kCoverageLayers[] = {
    "job", "workloads", "dataflow", "mapreduce", "exec", "runtime", "serde", "service",
};

// The paper-suite programs, in report order.
inline constexpr const char* kPrograms[] = {"PR",  "KM",  "LR",  "CS",  "GB",  "IUF", "UAH",
                                            "SPF", "UED", "CED", "IMC", "TFC", "SO"};

// Reported by every workload with --trace 1 (0 where a layer is not used).
// The list is built in main.cc from the tables above plus these.
inline constexpr MetricName kLayerFixed[] = {
    {"jobs_timed", "count", "higher"},
    {"speedup_vs_baseline", "x", "higher"},
    {"job_ms_p99", "ms", "lower"},
    {"jobs_per_s_at_slo", "1/s", "higher"},
    {"cancel_ms_p50", "ms", "lower"},
    {"stage.overhead_ms", "ms", "lower"},
    {"stage.attributed_frac", "ratio", "higher"},
    {"exec.compute_ms", "ms", "lower"},
    {"exec.tasks_run", "count", "lower"},
    {"exec.plan_ops_dispatched", "count", "lower"},
    {"exec.fast_path_commits", "count", "higher"},
    {"exec.aborts", "count", "lower"},
    {"exec.commit_ratio", "ratio", "higher"},
    {"exec.slow_path_direct", "count", "lower"},
    {"exec.stages_compiled", "count", "lower"},
    {"exec.plans_compiled", "count", "lower"},
    {"compile.transform_ms", "ms", "lower"},
    {"compile.plan_ms", "ms", "lower"},
    {"compile.statements_transformed", "count", "higher"},
    {"runtime.gc_ms", "ms", "lower"},
    {"runtime.gc_pauses", "count", "lower"},
    {"serde.ser_ms", "ms", "lower"},
    {"serde.deser_ms", "ms", "lower"},
    {"mapreduce.spills", "count", "lower"},
    {"mapreduce.combine_calls", "count", "lower"},
    {"shuffle.bytes", "B", "lower"},
    {"shuffle.spill_blocks", "count", "lower"},
    {"shuffle.spill_bytes_raw", "B", "lower"},
    {"shuffle.spill_bytes_stored", "B", "lower"},
    {"shuffle.compress_ratio", "ratio", "higher"},
    {"shuffle.fetches", "count", "lower"},
    {"shuffle.spill_merges", "count", "lower"},
    {"shuffle.fetch_backpressure_waits", "count", "lower"},
    {"service.submit_us", "us", "lower"},
    {"service.queue_wait_ms_p50", "ms", "lower"},
    {"service.queue_wait_ms_p99", "ms", "lower"},
    {"service.exec_ms_p50", "ms", "lower"},
    {"service.plan_cache_hit_ratio", "ratio", "higher"},
    {"service.rejected", "count", "lower"},
    {"service.backlog_max", "count", "lower"},
    {"service.generator_lag_ms_p99", "ms", "lower"},
    {"tracing.overhead_pct", "%", "lower"},
};

}  // namespace perfbench

#endif  // PERFBENCH_METRIC_NAMES_H_
