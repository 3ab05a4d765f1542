// paper_suite: the paper's headline comparison. The five Fig. 6(a) Spark
// programs (PR, KM, LR, CS, GB), the seven Fig. 6(b) Hadoop jobs (IUF, UAH,
// SPF, UED, CED, IMC, TFC) and StackOverflow account grouping (SO, whose
// capacity overflows raise real resize aborts, Fig. 10a), each in kGerenuk
// and kBaseline mode, closed loop, one job at a time, a fresh engine per job.
//
// Why: every job compiles every stage (no plan cache outside service
// mode), runs many medium stages, the resident shuffle, Hadoop's
// sort/spill/merge and the slow path on aborts, while the baseline side pays
// serde and GC. speedup_vs_baseline is the paper's Table 3 Overall, inverted.
//
// A job is one program run on its engine: the workload call, including
// sourcing its input. Reference: each program's kGerenuk checksum must equal
// its kBaseline checksum, and every cycle must repeat the first cycle's.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/metric_names.h"
#include "src/workloads/hadoop_workloads.h"
#include "src/workloads/spark_workloads.h"

namespace perfbench {
namespace {

using namespace gerenuk;

constexpr int64_t kMinJobs = 104;  // four cycles of 13 programs x 2 modes
constexpr int kNumPrograms = static_cast<int>(std::size(kPrograms));

// Every program's input, generated once per set-up from the seed.
struct SuiteInputs {
  SyntheticGraph graph;
  SyntheticPoints points;
  SyntheticLabeledPoints lr_points;
  SyntheticLabeledPoints cs_points;
  SyntheticLabeledPoints gb_points;
  std::vector<SyntheticPost> posts;
  std::vector<std::string> lines;
  std::vector<SyntheticPost> so_posts;
};

SuiteInputs MakeInputs(uint64_t seed) {
  SuiteInputs in;
  in.graph = MakePowerLawGraph(2000, 10000, seed + 1);
  in.points = MakeClusteredPoints(3000, 8, 5, seed + 2);
  in.lr_points = MakeLabeledPoints(3000, 10, seed + 3);
  in.cs_points = MakeLabeledPoints(6000, 12, seed + 4);
  in.gb_points = MakeLabeledPoints(2000, 8, seed + 5);
  in.posts = MakePosts(8000, 800, 16, seed + 6);
  in.lines = MakeTextLines(1500, 10, 500, seed + 7);
  in.so_posts = MakePosts(8000, 1000, 8, seed + 8);
  return in;
}

// Input records a program reads (one source record per element).
int64_t InputRecords(const SuiteInputs& in, int program) {
  switch (program) {
    case 0: return in.graph.num_vertices;
    case 1: return static_cast<int64_t>(in.points.values.size());
    case 2: return static_cast<int64_t>(in.lr_points.features.size());
    case 3: return static_cast<int64_t>(in.cs_points.features.size());
    case 4: return static_cast<int64_t>(in.gb_points.features.size());
    case 10:
    case 11: return static_cast<int64_t>(in.lines.size());
    case 12: return static_cast<int64_t>(in.so_posts.size());
    default: return static_cast<int64_t>(in.posts.size());
  }
}

EngineConfig SuiteEngineConfig(EngineMode mode, bool traced) {
  EngineConfig config;
  config.execution.mode = mode;
  config.execution.heap_bytes = 24u << 20;
  config.execution.num_partitions = 4;
  config.execution.num_workers = 1;
  ApplyTracing(&config, traced);
  return config;
}

struct JobOutcome {
  double ms = 0.0;
  double checksum = 0.0;
  EngineStats stats;
  int64_t peak_bytes = 0;
  int64_t gc_pauses = 0;
};

WorkloadResult RunSparkProgram(SparkWorkloads& w, const SuiteInputs& in, int program) {
  switch (program) {
    case 0: return w.RunPageRank(in.graph, 5);
    case 1: return w.RunKMeans(in.points, 5, 4);
    case 2: return w.RunLogisticRegression(in.lr_points, 4, 0.5);
    case 3: return w.RunChiSquareSelector(in.cs_points);
    case 4: return w.RunGradientBoosting(in.gb_points, 4, 0.3);
    default: return w.RunAccountGrouping(in.so_posts, /*initial_capacity=*/4);
  }
}

WorkloadResult RunHadoopProgram(HadoopWorkloads& w, const DatasetPtr& input, int program) {
  switch (program) {
    case 5: return w.RunIuf(input);
    case 6: return w.RunUah(input);
    case 7: return w.RunSpf(input);
    case 8: return w.RunUed(input);
    case 9: return w.RunCed(input);
    case 10: return w.RunImc(input);
    default: return w.RunTfc(input);
  }
}

bool IsHadoop(int program) { return program >= 5 && program <= 11; }

// Runs one program on a fresh engine. Spark programs (and SO) are one
// workloads.<name> call; Hadoop jobs source their input, then run the job.
JobOutcome RunProgram(const SuiteInputs& in, int program, EngineMode mode, Tracer& tracer,
                      int64_t job_id) {
  JobOutcome out;
  const std::string name = kPrograms[program];
  if (IsHadoop(program)) {
    HadoopConfig config;
    config.engine = SuiteEngineConfig(mode, tracer.enabled());
    config.num_reducers = 2;
    config.sort_buffer_bytes = 128u << 10;
    HadoopEngine engine(config);
    HadoopWorkloads workloads(engine);
    SpanScope job(tracer, "job", -1, job_id);
    DatasetPtr input =
        EngineCall(tracer, engine, "dataflow.source", job.id(), job_id, nullptr, [&] {
          return program >= 10 ? workloads.MakeTextInput(in.lines)
                               : workloads.MakePostInput(in.posts);
        });
    WorkloadResult result =
        EngineCall(tracer, engine, "mapreduce.run_job", job.id(), job_id, nullptr,
                   [&] { return RunHadoopProgram(workloads, input, program); });
    out.ms = Ms(job.Done());
    out.checksum = result.checksum;
    out.stats = engine.stats();
    out.peak_bytes = engine.peak_memory_bytes();
    out.gc_pauses = GcPauses(engine);
  } else {
    SparkEngine engine(SuiteEngineConfig(mode, tracer.enabled()));
    SparkWorkloads workloads(engine);
    SpanScope job(tracer, "job", -1, job_id);
    WorkloadResult result =
        EngineCall(tracer, engine, ("workloads." + name).c_str(), job.id(), job_id, nullptr,
                   [&] { return RunSparkProgram(workloads, in, program); });
    out.ms = Ms(job.Done());
    out.checksum = result.checksum;
    out.stats = engine.stats();
    out.peak_bytes = engine.peak_memory_bytes();
    out.gc_pauses = GcPauses(engine);
  }
  return out;
}

}  // namespace

bool RunPaperSuite(const Options& options, Report* report) {
  SuiteInputs inputs;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    inputs = MakeInputs(options.seed);
    Tracer off(false);
    RunProgram(inputs, 0, EngineMode::kGerenuk, off, 0);  // warm-up
  });
  report->E2E("setup_s", setup_s, "s");

  // Traced runs alternate untraced and traced cycles; end-to-end style
  // readings (per-program times, speedup) come from the untraced ones.
  Tracer tracer(options.trace);
  Tracer untraced(false);
  std::vector<double> job_ms;
  std::vector<double> cycle_ms[2];  // [traced]
  std::map<std::pair<int, int>, std::vector<double>> program_ms;  // (program, mode)
  std::vector<double> reference[2] = {std::vector<double>(kNumPrograms, std::nan("")),
                                    std::vector<double>(kNumPrograms, std::nan(""))};
  EngineStats traced_total;
  int64_t traced_jobs = 0;
  int64_t gc_pauses = 0;
  int64_t records = 0;
  int64_t peak_bytes = 0;
  double cycle_sum = 0.0;

  const int64_t jobs_per_cycle = 2 * kNumPrograms;
  RunFor(options.seconds, options.trace ? 2 * kMinJobs : kMinJobs, [&](int64_t i) {
    const int64_t cycle = i / jobs_per_cycle;
    const int program = static_cast<int>((i % jobs_per_cycle) / 2);
    const EngineMode mode = i % 2 == 0 ? EngineMode::kBaseline : EngineMode::kGerenuk;
    const bool traced = options.trace && cycle % 2 == 1;
    report->Attempt();
    JobOutcome out = RunProgram(inputs, program, mode, traced ? tracer : untraced, i);
    // Each mode must repeat its first cycle's checksum exactly; across modes
    // the checksums must agree to 1e-9 relative (floating-point sums fold in
    // a mode-specific order; the integer-valued programs agree exactly).
    double& first = reference[static_cast<int>(mode)][program];
    if (std::isnan(first)) {
      first = out.checksum;
    }
    const double base = reference[static_cast<int>(EngineMode::kBaseline)][program];
    if (out.checksum != first) {
      report->Mismatch(std::string(kPrograms[program]) + " checksum changed between cycles");
    } else if (std::abs(out.checksum - base) > 1e-9 * (std::abs(base) + 1.0)) {
      char detail[96];
      std::snprintf(detail, sizeof(detail), ": %.17g vs %.17g", out.checksum, base);
      report->Mismatch(std::string(kPrograms[program]) + " kGerenuk checksum differs" + detail);
    }
    cycle_sum += out.ms;
    if (i % jobs_per_cycle == jobs_per_cycle - 1) {
      cycle_ms[traced ? 1 : 0].push_back(cycle_sum);
      cycle_sum = 0.0;
    }
    if (traced) {
      traced_total += out.stats;
      traced_jobs += 1;
      gc_pauses += out.gc_pauses;
      return;
    }
    job_ms.push_back(out.ms);
    records += InputRecords(inputs, program);
    program_ms[{program, static_cast<int>(mode)}].push_back(out.ms);
    if (mode == EngineMode::kGerenuk) {
      peak_bytes = std::max(peak_bytes, out.peak_bytes);
    }
  });

  // Table 3 Overall, inverted: geo-mean of baseline / Gerenuk medians.
  double log_sum = 0.0;
  for (int p = 0; p < kNumPrograms; ++p) {
    const double base = Median(program_ms[{p, static_cast<int>(EngineMode::kBaseline)}]);
    const double gerenuk = Median(program_ms[{p, static_cast<int>(EngineMode::kGerenuk)}]);
    report->Layer(std::string("workloads.") + kPrograms[p] + ".baseline_ms", base, "ms");
    report->Layer(std::string("workloads.") + kPrograms[p] + ".gerenuk_ms", gerenuk, "ms");
    log_sum += std::log(base / gerenuk);
  }
  report->Layer("speedup_vs_baseline", std::exp(log_sum / kNumPrograms), "x");
  report->E2E("peak_mem_mb", static_cast<double>(peak_bytes) / (1 << 20), "MB");
  if (!options.trace) {
    return ReportJobLatencies(report, job_ms, records);
  }
  report->Layer("jobs_timed", static_cast<double>(traced_jobs), "count");
  ReportEngineLayers(report, traced_total, traced_jobs, gc_pauses);
  ReportSpanLayers(report, tracer);
  ReportTracingOverhead(report, cycle_ms[0], cycle_ms[1]);
  // Compile cost of the Spark programs' UDFs, one function at a time.
  SparkEngine engine(SuiteEngineConfig(EngineMode::kGerenuk, false));
  SparkWorkloads workloads(engine);
  std::vector<const Function*> fns;
  for (const auto& fn : workloads.udfs().functions) {
    fns.push_back(fn.get());
  }
  TimeCompileFunctions(report, engine.layouts(), workloads.udfs(), fns, 5);
  return tracer.WriteChromeTrace(options.work_dir + "/" + options.workload + ".trace.json");
}

}  // namespace perfbench
