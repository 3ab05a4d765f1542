// Shared service-mode test fixtures: the heterogeneous Pair workload run on
// pooled engines. Used by service_test (lifecycle, fairness, acceptance
// storm), chaos_test (fault campaigns), and bench_service-adjacent checks,
// so the job kinds, engine configuration, and sequential reference outputs
// stay in one place.
#ifndef TESTS_PAIR_SERVICE_H_
#define TESTS_PAIR_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/service/engine_service.h"
#include "src/service/job.h"
#include "tests/pair_job.h"

namespace gerenuk {

// Per-slot setup payload: the Pair klasses + UDFs, built once per slot —
// both front ends share the slot's class registry — and rebuilt by the
// circuit breaker after a slot rebuild.
struct PairServiceSetup {
  PairUdfs udfs;
};

inline EngineSetup PairSetupFn() {
  return [](EngineContext& ctx) -> std::shared_ptr<void> {
    auto setup = std::make_shared<PairServiceSetup>();
    BuildPairUdfs(*ctx.spark, &setup->udfs);
    return setup;
  };
}

inline std::string BytesString(const std::vector<uint8_t>& bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

// The heterogeneous job kinds of the acceptance workloads. Deterministic per
// (kind): fixed input sizes, fixed programs. Kinds 0-2 run on the slot's
// SparkEngine, kind 3 on its HadoopEngine.
constexpr int kJobKinds = 4;
inline constexpr int64_t kKindCounts[kJobKinds] = {60, 48, 80, 36};

inline std::string RunKindOnSpark(int kind, SparkEngine& engine, const PairUdfs& u) {
  const int64_t count = kKindCounts[kind];
  DatasetPtr in = MakePairInput(engine, u, count);
  switch (kind) {
    case 0:
      return BytesString(
          DatasetBytes(engine.RunStage(in, u.udfs, {NarrowOp::Map(u.double_value, u.pair)})));
    case 1:
      return BytesString(
          DatasetBytes(engine.RunStage(in, u.udfs, {NarrowOp::FlatMap(u.explode, u.pair)})));
    case 2:
      return BytesString(DatasetBytes(
          engine.ReduceByKey(in, u.udfs, {}, KeySpec{u.get_key, false}, u.sum_values)));
    default:
      return "";
  }
}

inline std::string RunKindOnHadoop(HadoopEngine& engine, const PairUdfs& u) {
  DatasetPtr in = MakePairInput(engine, u, kKindCounts[3]);
  return BytesString(DatasetBytes(engine.RunJob(in, u.udfs, u.explode, u.pair,
                                                KeySpec{u.get_key, false}, u.sum_values,
                                                u.sum_values)));
}

inline JobSpec KindJob(int kind) {
  JobSpec spec;
  spec.name = "kind" + std::to_string(kind);
  spec.run = [kind](EngineContext& ctx) -> std::string {
    auto* setup = static_cast<PairServiceSetup*>(ctx.setup.get());
    if (kind == 3) {
      return RunKindOnHadoop(*ctx.hadoop, setup->udfs);
    }
    return RunKindOnSpark(kind, *ctx.spark, setup->udfs);
  };
  return spec;
}

inline EngineConfig ServiceEngineConfig() {
  EngineConfig config;
  config.execution.mode = EngineMode::kGerenuk;
  config.execution.heap_bytes = 32u << 20;
  config.execution.num_partitions = 4;
  config.execution.num_workers = 2;
  return config;
}

inline ServiceConfig SmallService(int num_engines) {
  ServiceConfig config;
  config.engine = ServiceEngineConfig();
  config.num_engines = num_engines;
  config.setup = PairSetupFn();
  return config;
}

// Sequential reference outputs: each kind run once on standalone engines
// with the same configuration the pooled engines use.
inline std::vector<std::string> SequentialExpected() {
  std::vector<std::string> expected(kJobKinds);
  SparkEngine spark(ServiceEngineConfig());
  PairUdfs spark_udfs;
  BuildPairUdfs(spark, &spark_udfs);
  for (int kind = 0; kind < 3; ++kind) {
    expected[kind] = RunKindOnSpark(kind, spark, spark_udfs);
  }
  HadoopConfig hadoop_config;
  hadoop_config.engine = ServiceEngineConfig();
  HadoopEngine hadoop(hadoop_config);
  PairUdfs hadoop_udfs;
  BuildPairUdfs(hadoop, &hadoop_udfs);
  expected[3] = RunKindOnHadoop(hadoop, hadoop_udfs);
  return expected;
}

}  // namespace gerenuk

#endif  // TESTS_PAIR_SERVICE_H_
