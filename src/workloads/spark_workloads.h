// The Spark benchmark programs of §4.1 (Table 1): PageRank (PR), KMeans
// (KM), Logistic Regression (LR), Chi Square Selector (CS), Gradient
// Boosting Classification (GB), plus the WordCount used in the Tungsten
// comparison (§4.3). Each workload declares its user data types (the §3.1
// annotations), authors its UDFs in the IR (playing the role of the
// Scala/Java user program), and drives the mini-Spark engine; the same code
// runs in both engine modes.
#ifndef SRC_WORKLOADS_SPARK_WORKLOADS_H_
#define SRC_WORKLOADS_SPARK_WORKLOADS_H_

#include <string>
#include <vector>

#include "src/dataflow/spark.h"
#include "src/workloads/datagen.h"

namespace gerenuk {

struct WorkloadResult {
  std::string name;
  double checksum = 0.0;   // mode-independent correctness fingerprint
  int64_t records = 0;
};

// Declares every Spark workload type on the engine's heap and registers the
// top-level ones with the engine. Construct exactly once per engine.
class SparkWorkloads {
 public:
  explicit SparkWorkloads(SparkEngine& engine);

  // --- the benchmark programs -------------------------------------------
  WorkloadResult RunPageRank(const SyntheticGraph& graph, int iterations);
  // Label propagation (the CC of Figure 5): labels start at the vertex id
  // and each round takes the min over self + incoming neighbor labels.
  WorkloadResult RunConnectedComponents(const SyntheticGraph& graph, int iterations);
  WorkloadResult RunKMeans(const SyntheticPoints& points, int k, int iterations);
  WorkloadResult RunLogisticRegression(const SyntheticLabeledPoints& points, int iterations,
                                       double learning_rate);
  WorkloadResult RunChiSquareSelector(const SyntheticLabeledPoints& points);
  WorkloadResult RunGradientBoosting(const SyntheticLabeledPoints& points, int rounds,
                                     double learning_rate);
  WorkloadResult RunWordCount(const std::vector<std::string>& lines);

  // §4.4's StackOverflow Analytics phase 1: group posts per account; a
  // configurable fraction of accounts overflow their initial capacity and
  // hit the resize violation, aborting their tasks.
  WorkloadResult RunAccountGrouping(const std::vector<SyntheticPost>& posts,
                                    int64_t initial_capacity);

  SparkEngine& engine() { return engine_; }
  const SerProgram& udfs() const { return udfs_; }

  // Exposed types (used by benches and tests).
  const Klass* vertex_links;
  const Klass* rank;
  const Klass* vertex_state;
  const Klass* point;
  const Klass* cluster_stat;
  const Klass* centers;         // broadcast for KMeans
  const Klass* dense_vector;
  const Klass* labeled_point;
  const Klass* sparse_vector;
  const Klass* sparse_point;
  const Klass* grad_vec;
  const Klass* weights;         // broadcast for LR/GB
  const Klass* feat_count;
  const Klass* line;
  const Klass* word_count;
  const Klass* account;

 private:
  void DefineTypes();
  void BuildUdfs();
  // Sources shared by several programs.
  DatasetPtr VertexLinksSource(const SyntheticGraph& graph);
  DatasetPtr RankSource(int64_t num_vertices, bool rank_is_id);  // rank = 1.0 or the id
  DatasetPtr LabeledPointSource(const SyntheticLabeledPoints& data);

  SparkEngine& engine_;
  SerProgram udfs_;

  // UDF handles.
  const Function* pr_links_key_;
  const Function* pr_rank_key_;
  const Function* pr_join_;
  const Function* pr_contribs_;
  const Function* pr_sum_;
  const Function* pr_damp_;
  const Function* cc_spread_;  // flatMap: state -> labels for self + neighbors
  const Function* cc_min_;     // reduce: keep the smaller label
  const Function* km_assign_;
  const Function* km_key_;
  const Function* km_merge_;
  const Function* lr_grad_;
  const Function* lr_key_;
  const Function* lr_add_;
  const Function* cs_cells_;
  const Function* cs_key_;
  const Function* cs_add_;
  const Function* gb_stats_;
  const Function* gb_key_;
  const Function* gb_add_;
  const Function* wc_tokenize_;
  const Function* wc_key_;
  const Function* wc_sum_;
  const Function* acct_from_post_;
  const Function* acct_key_;
  const Function* acct_merge_;
};

}  // namespace gerenuk

#endif  // SRC_WORKLOADS_SPARK_WORKLOADS_H_
