// Figure 7: peak memory consumption (managed heap + native buffers,
// the simulator's analogue of the paper's process-level pmap sampling) for
// the Spark and Hadoop workloads in both engine modes.
#include <cmath>

#include "bench/bench_common.h"
#include "src/workloads/hadoop_workloads.h"
#include "src/workloads/spark_workloads.h"

namespace gerenuk {
namespace {

void Run() {
  bench::PrintHeader("Figure 7(a): Spark peak memory, baseline vs Gerenuk");
  double geo_spark = 1.0;
  int spark_samples = 0;
  for (const char* name : {"PR", "KM", "LR", "CS", "GB"}) {
    int64_t peaks[2];
    for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
      EngineConfig config;
      config.execution.mode = mode;
      config.execution.heap_bytes = 48u << 20;
      config.execution.num_partitions = 4;
      SparkEngine engine(config);
      SparkWorkloads workloads(engine);
      std::string program(name);
      if (program == "PR") {
        workloads.RunPageRank(MakePowerLawGraph(3000, 15000, 11), 5);
      } else if (program == "KM") {
        workloads.RunKMeans(MakeClusteredPoints(5000, 10, 5, 22), 5, 4);
      } else if (program == "LR") {
        workloads.RunLogisticRegression(MakeLabeledPoints(5000, 10, 33), 4, 0.5);
      } else if (program == "CS") {
        workloads.RunChiSquareSelector(MakeLabeledPoints(15000, 12, 44));
      } else {
        workloads.RunGradientBoosting(MakeLabeledPoints(3000, 8, 55), 4, 0.3);
      }
      peaks[static_cast<int>(mode)] = engine.peak_memory_bytes();
    }
    std::printf("%-3s baseline=%10s  Gerenuk=%10s  ratio=%.2f\n", name,
                FormatBytes(peaks[0]).c_str(), FormatBytes(peaks[1]).c_str(),
                static_cast<double>(peaks[1]) / static_cast<double>(peaks[0]));
    geo_spark *= static_cast<double>(peaks[1]) / static_cast<double>(peaks[0]);
    spark_samples += 1;
  }
  std::printf("Spark geo-mean memory ratio: %.2f (paper: 0.82, up to 0.62)\n",
              std::pow(geo_spark, 1.0 / spark_samples));

  bench::PrintHeader("Figure 7(b): Hadoop peak memory, baseline vs Gerenuk");
  std::vector<SyntheticPost> posts = MakePosts(20000, 2000, 16, 71);
  std::vector<std::string> lines = MakeTextLines(2500, 10, 500, 72);
  double geo_hadoop = 1.0;
  int hadoop_samples = 0;
  for (const char* job : {"IUF", "UAH", "SPF", "UED", "CED", "IMC", "TFC"}) {
    int64_t peaks[2];
    for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
      HadoopConfig config;
      config.engine.execution.mode = mode;
      config.engine.execution.heap_bytes = 48u << 20;
      HadoopEngine engine(config);
      HadoopWorkloads workloads(engine);
      const std::string name(job);
      const bool text_job = name == "IMC" || name == "TFC";
      DatasetPtr input =
          text_job ? workloads.MakeTextInput(lines) : workloads.MakePostInput(posts);
      if (name == "IUF") {
        workloads.RunIuf(input);
      } else if (name == "UAH") {
        workloads.RunUah(input);
      } else if (name == "SPF") {
        workloads.RunSpf(input);
      } else if (name == "UED") {
        workloads.RunUed(input);
      } else if (name == "CED") {
        workloads.RunCed(input);
      } else if (name == "IMC") {
        workloads.RunImc(input);
      } else {
        workloads.RunTfc(input);
      }
      // Peak over the whole run including the input dataset resident in the
      // engine-mode representation.
      peaks[static_cast<int>(mode)] = engine.peak_memory_bytes();
    }
    std::printf("%-3s baseline=%10s  Gerenuk=%10s  ratio=%.2f\n", job,
                FormatBytes(peaks[0]).c_str(), FormatBytes(peaks[1]).c_str(),
                static_cast<double>(peaks[1]) / static_cast<double>(peaks[0]));
    geo_hadoop *= static_cast<double>(peaks[1]) / static_cast<double>(peaks[0]);
    hadoop_samples += 1;
  }
  std::printf("Hadoop geo-mean memory ratio: %.2f (paper: 0.69, up to 0.58)\n",
              std::pow(geo_hadoop, 1.0 / hadoop_samples));
}

}  // namespace
}  // namespace gerenuk

int main() {
  gerenuk::Run();
  return 0;
}
