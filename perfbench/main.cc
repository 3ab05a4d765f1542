// The repository benchmark program. One process runs one workload for a
// fixed time and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. run.py builds this binary and is the usual entry point;
// see METRICS.md for what each metric means.
//
//   perfbench --workload map_stage --seed 7 --seconds 10 --trace 0
//   perfbench --list-metrics
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench/common.h"
#include "perfbench/metric_names.h"

namespace perfbench {
namespace {

// kLayerFixed plus the generated names (per-opcode counts, timed calls,
// coverage per layer, per-program times).
const std::vector<MetricName>& LayerMetrics() {
  static std::deque<std::string> names;  // owns the generated names
  static const std::vector<MetricName> metrics = [] {
    std::vector<MetricName> out(std::begin(kLayerFixed), std::end(kLayerFixed));
    auto add = [&out](std::string name, const char* unit, const char* better) {
      names.push_back(std::move(name));
      out.push_back({names.back().c_str(), unit, better});
    };
    for (const char* op : kTopOps) {
      add(std::string("exec.op.") + op, "count", "lower");
    }
    for (const char* call : kTimedCalls) {
      add(std::string(call) + "_ms", "ms", "lower");
    }
    for (const char* layer : kCoverageLayers) {
      add(std::string("coverage.") + layer, "ratio",
          std::string(layer) == "job" ? "lower" : "higher");
    }
    for (const char* program : kPrograms) {
      add(std::string("workloads.") + program + ".gerenuk_ms", "ms", "lower");
      add(std::string("workloads.") + program + ".baseline_ms", "ms", "lower");
    }
    return out;
  }();
  return metrics;
}

void PrintMetricList(const char* key, const std::vector<MetricName>& metrics, bool last) {
  std::printf("  \"%s\": [\n", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
                metrics[i].name, metrics[i].unit, metrics[i].better,
                i + 1 < metrics.size() ? "," : "");
  }
  std::printf("  ]%s\n", last ? "" : ",");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                  &regs[leaf * 4 + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop the NUL padding
    size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

// Host and run fingerprint, printed on its own line before the result.
void PrintFingerprint(const Options& options, const std::string& source_id) {
  std::printf(
      "fingerprint {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d}\n",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      JsonEscape(std::string("g++ ") + __VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      JsonEscape(source_id).c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds, options.trace ? 1 : 0);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload WORKLOAD --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--source-id ID]\n"
               "  WORKLOAD: paper_suite map_stage shuffle_join service_mix shuffle_spill\n"
               "       perfbench --list-metrics\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  std::string source_id = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::printf("{\n");
      PrintMetricList("end_to_end", std::vector<MetricName>(std::begin(kEndToEnd),
                                                            std::end(kEndToEnd)),
                      false);
      PrintMetricList("per_layer", LayerMetrics(), true);
      std::printf("}\n");
      return 0;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage();
      }
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--source-id") {
      source_id = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  if (!have_workload || !(options.seconds > 0.0) || options.seconds > 120.0) {
    return Usage();
  }

  Report report;
  if (options.trace) {
    // A layer the workload does not exercise reports 0.
    for (const MetricName& m : LayerMetrics()) {
      report.Layer(m.name, 0.0, m.unit);
    }
  }
  bool ok = false;
  if (options.workload == "paper_suite") {
    ok = RunPaperSuite(options, &report);
  } else if (options.workload == "map_stage") {
    ok = RunMapStage(options, &report);
  } else if (options.workload == "shuffle_spill" || options.workload == "shuffle_join") {
    ok = RunShuffleSpill(options, options.workload == "shuffle_join", &report);
  } else if (options.workload == "service_mix") {
    ok = RunServiceMix(options, &report);
  } else {
    return Usage();
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: workload %s did not complete\n", options.workload.c_str());
    return 1;
  }

  // Human-readable table: everything measured, both kinds.
  std::printf("%-40s %16s  %s\n", "metric", "value", "unit");
  for (const auto* metrics : {&report.e2e(), &report.layer()}) {
    for (const auto& [name, metric] : *metrics) {
      std::printf("%-40s %16.6g  %s\n", name.c_str(), metric.value, metric.unit.c_str());
    }
  }
  std::printf("attempted %lld  failed %lld  correct %s\n",
              static_cast<long long>(report.attempted()), static_cast<long long>(report.failed()),
              report.correct() ? "yes" : "NO");

  // The result line: exactly BENCHMARK.json's metric set for this mode.
  const std::vector<MetricName> wanted =
      options.trace ? LayerMetrics()
                    : std::vector<MetricName>(std::begin(kEndToEnd), std::end(kEndToEnd));
  const auto& have = options.trace ? report.layer() : report.e2e();
  std::string metrics_json;
  for (const MetricName& m : wanted) {
    auto it = have.find(m.name);
    if (it == have.end() || !std::isfinite(it->second.value) || it->second.unit != m.unit) {
      std::fprintf(stderr, "perfbench: metric %s missing, non-finite or in the wrong unit\n",
                   m.name);
      return 1;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", m.name, it->second.value, m.unit);
    metrics_json += buf;
  }
  for (const auto& [name, metric] : have) {
    bool known = false;
    for (const MetricName& m : wanted) {
      known = known || name == m.name;
    }
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s is not in the metric table\n", name.c_str());
      return 1;
    }
  }
  PrintFingerprint(options, source_id);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              report.correct() ? "true" : "false", static_cast<long long>(report.attempted()),
              static_cast<long long>(report.failed()), metrics_json.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
