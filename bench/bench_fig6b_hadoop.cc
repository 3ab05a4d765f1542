// Figure 6(b) + Tables 2 & 3 (Hadoop rows): the seven Hadoop programs under
// the unmodified engine vs the Gerenuk-transformed engine, with per-phase
// breakdowns. The paper's observation that Hadoop gains less than Spark —
// its map-output buffers already hold serialized bytes, so there is less
// serialization to eliminate — carries over.
#include <chrono>
#include <cmath>

#include "bench/bench_common.h"
#include "src/workloads/hadoop_workloads.h"

namespace gerenuk {
namespace {

void Run() {
  bench::PrintHeader("Table 2: Hadoop programs");
  std::printf("IUF  StackOverflow*  Inactive Users Filtering\n");
  std::printf("UAH  StackOverflow*  Active User Activity Histogram\n");
  std::printf("SPF  StackOverflow*  Spam Posts Filtering\n");
  std::printf("UED  StackOverflow*  User Engagement Distribution\n");
  std::printf("CED  StackOverflow*  Community Expert Detection\n");
  std::printf("IMC  Wikipedia*      In-Map Combiner (word count w/ combiner)\n");
  std::printf("TFC  Wikipedia*      Term Frequency Calculation\n");
  std::printf("(* synthetic stand-ins for the full data dumps)\n");

  bench::PrintHeader("Figure 6(b): Hadoop runtime breakdown, baseline vs Gerenuk");
  std::vector<SyntheticPost> posts = MakePosts(30000, 2500, 16, 71);
  std::vector<std::string> lines = MakeTextLines(4000, 10, 500, 72);

  const char* jobs[] = {"IUF", "UAH", "SPF", "UED", "CED", "IMC", "TFC"};
  double geo_speedup = 1.0;
  double geo_wall_speedup = 1.0;
  double geo_app = 1.0;
  int samples = 0;
  PhaseTimes totals[2];
  for (const char* job : jobs) {
    PhaseTimes times[2];
    double source_ms[2];
    double wall_ms[2];  // Source + job: the program's run on a built engine
    double checksums[2];
    for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
      HadoopConfig config;
      config.engine.execution.mode = mode;
      config.engine.execution.heap_bytes = 48u << 20;
      config.engine.execution.num_partitions = 4;
      config.num_reducers = 2;
      config.sort_buffer_bytes = 512 << 10;
      HadoopEngine engine(config);
      HadoopWorkloads workloads(engine);
      const std::string name(job);
      const bool text_job = name == "IMC" || name == "TFC";
      const auto start = std::chrono::steady_clock::now();
      DatasetPtr input =
          text_job ? workloads.MakeTextInput(lines) : workloads.MakePostInput(posts);
      const auto sourced = std::chrono::steady_clock::now();
      WorkloadResult result;
      if (name == "IUF") {
        result = workloads.RunIuf(input);
      } else if (name == "UAH") {
        result = workloads.RunUah(input);
      } else if (name == "SPF") {
        result = workloads.RunSpf(input);
      } else if (name == "UED") {
        result = workloads.RunUed(input);
      } else if (name == "CED") {
        result = workloads.RunCed(input);
      } else if (name == "IMC") {
        result = workloads.RunImc(input);
      } else {
        result = workloads.RunTfc(input);
      }
      const auto done = std::chrono::steady_clock::now();
      const int m = static_cast<int>(mode);
      times[m] = engine.stats().times;
      source_ms[m] = std::chrono::duration<double, std::milli>(sourced - start).count();
      wall_ms[m] = std::chrono::duration<double, std::milli>(done - start).count();
      checksums[m] = result.checksum;
    }
    GERENUK_CHECK_EQ(checksums[0], checksums[1]) << job;
    bench::PrintPhaseRow(std::string(job) + " baseline", times[0]);
    bench::PrintPhaseRow(std::string(job) + " Gerenuk", times[1]);
    bench::PrintSpeedup(job, times[0].TotalMillis(), times[1].TotalMillis());
    for (int m = 0; m < 2; ++m) {
      bench::PrintWallRow(std::string(job) + (m == 0 ? " baseline" : " Gerenuk"), wall_ms[m],
                          times[m]);
      std::printf("%-26s source=%7.1fms\n", "", source_ms[m]);
    }
    bench::PrintSpeedup((std::string(job) + " wall").c_str(), wall_ms[0], wall_ms[1]);
    geo_speedup *= times[0].TotalMillis() / times[1].TotalMillis();
    geo_wall_speedup *= wall_ms[0] / wall_ms[1];
    geo_app *= (times[1].Millis(Phase::kCompute) + 0.001) /
               (times[0].Millis(Phase::kCompute) + 0.001);
    totals[0] += times[0];
    totals[1] += times[1];
    samples += 1;
  }
  bench::PrintHeader("Table 3 (Hadoop row): Gerenuk normalized to baseline, geo-mean");
  std::printf("Overall: %.2f   App(non-GC): %.2f\n",
              1.0 / std::pow(geo_speedup, 1.0 / samples), std::pow(geo_app, 1.0 / samples));
  std::printf("(paper: Overall 0.72, App 0.74 — lower is better)\n");
  std::printf("Overall on the wall clock: %.2f\n",
              1.0 / std::pow(geo_wall_speedup, 1.0 / samples));
  bench::PrintPhaseRow("all jobs, baseline", totals[0]);
  bench::PrintPhaseRow("all jobs, Gerenuk", totals[1]);
}

}  // namespace
}  // namespace gerenuk

int main() {
  gerenuk::Run();
  return 0;
}
