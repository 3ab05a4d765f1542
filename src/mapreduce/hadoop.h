// A miniature Hadoop MapReduce: the second system the paper transforms.
//
// A job runs map tasks over input splits; each map emits (key, value)
// records into a sort buffer that is partitioned by reducer, sorted by key,
// optionally run through a combiner, and spilled to IFile-like segments.
// Reducers merge their partition's runs from every segment, group equal
// keys, and fold each group with the reduce function.
//
// The two engine modes mirror the paper's comparison:
//   * kBaseline — records are heap objects; the sort buffer and segments
//     hold *serialized* bytes (Hadoop's map-output buffer design, which is
//     why the paper observes small ser/deser savings for Hadoop); the
//     combiner and reducer deserialize values before folding.
//   * kGerenuk  — records are inlined native bytes end to end; sorting and
//     merging move byte ranges; the combiner and reducer run transformed
//     code over the buffers. The deserialization point the paper names
//     (WritableDeserializer.deserialize in ReduceContextImpl) simply
//     disappears.
//
// Like SparkEngine, this is a front end over the shared runtime in
// EngineCore (src/dataflow/engine_core.h): compilation, the stage runner,
// the scheduler and all accounting live there.
#ifndef SRC_MAPREDUCE_HADOOP_H_
#define SRC_MAPREDUCE_HADOOP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dataflow/engine_core.h"

namespace gerenuk {

// The mini-Hadoop composes the shared knobs (`engine`) with its own;
// `engine.execution.num_partitions` is the number of map tasks (input
// splits). Composition — not inheritance — so brace-init stays unambiguous
// and the grouped sub-structs of EngineConfig nest cleanly.
struct HadoopConfig {
  EngineConfig engine;
  int num_reducers = 2;
  size_t sort_buffer_bytes = 1u << 20;  // spill threshold
  // Yak comparison (Figure 9): with gc == GcKind::kRegion, wrap every map
  // and reduce task in an epoch (the paper's epoch_start in setup() /
  // epoch_end in cleanup() annotation). Baseline mode only.
  bool yak_epochs = false;

  // Checks the engine knobs plus the Hadoop-specific ones.
  std::string Validate() const {
    if (num_reducers < 1) {
      return "num_reducers must be >= 1 (got " + std::to_string(num_reducers) + ")";
    }
    if (sort_buffer_bytes == 0) {
      return "sort_buffer_bytes must be non-zero: every emit would spill";
    }
    return engine.Validate();
  }
};

// One spilled, sorted map-output segment (defined in hadoop.cc).
struct MapSegment;

class HadoopEngine : public EngineFrontEnd {
 public:
  // Standalone engine over a private core built from `config.engine`.
  explicit HadoopEngine(const HadoopConfig& config);
  // Front end over a core shared with other front ends (a service slot).
  // The core's EngineConfig governs; `config.engine` is replaced by it.
  HadoopEngine(std::shared_ptr<EngineCore> core, const HadoopConfig& config);
  ~HadoopEngine();

  // Runs one MapReduce job.
  //   map_fn      — flatMap-style: input record -> out_klass[] (the emits)
  //   key         — key extraction over out_klass records
  //   reduce_fn   — pairwise fold: (acc, value) -> merged (same klass)
  //   combiner_fn — optional map-side combiner, same signature as reduce_fn
  // Task ordinals are assigned in submission order: all map tasks of a job,
  // then all reduce tasks.
  DatasetPtr RunJob(const DatasetPtr& input, const SerProgram& udfs, const Function* map_fn,
                    const Klass* out_klass, const KeySpec& key, const Function* reduce_fn,
                    const Function* combiner_fn = nullptr);

 private:
  // A job's programs, compiled through the core's plan cache.
  struct JobPrograms {
    StagePrograms map;
    CompiledFunction key;
    CompiledFunction reduce;
    CompiledFunction combine;  // empty without a combiner
    KeySpec key_spec;
    const Klass* out_klass = nullptr;
    bool has_combiner = false;
  };

  // Map phase: run the map function, sort emits by (reducer, key), combine
  // equal-key runs, spill segments. Returns every segment in task order.
  std::vector<MapSegment> MapBaseline(const DatasetPtr& input, const JobPrograms& job);
  std::vector<MapSegment> MapGerenuk(const DatasetPtr& input, const JobPrograms& job);
  // Reduce phase: merge each reducer's runs from every segment, group equal
  // keys, fold each group.
  DatasetPtr ReduceBaseline(const std::vector<MapSegment>& segments, const JobPrograms& job);
  DatasetPtr ReduceGerenuk(const std::vector<MapSegment>& segments, const JobPrograms& job);

  HadoopConfig config_;
};

}  // namespace gerenuk

#endif  // SRC_MAPREDUCE_HADOOP_H_
