#include "src/workloads/spark_workloads.h"

#include <cmath>

#include "src/ir/builder.h"

namespace gerenuk {

SparkWorkloads::SparkWorkloads(SparkEngine& engine) : engine_(engine) {
  DefineTypes();
  BuildUdfs();
}

void SparkWorkloads::DefineTypes() {
  KlassRegistry& reg = engine_.heap().klasses();
  const Klass* i64_array = reg.DefineArray(FieldKind::kI64);
  const Klass* f64_array = reg.DefineArray(FieldKind::kF64);
  const Klass* i32_array = reg.DefineArray(FieldKind::kI32);
  const Klass* string_k = engine_.wk().string_klass();

  vertex_links = reg.DefineClass("VertexLinks", {
                                                    {"id", FieldKind::kI64, nullptr, 0},
                                                    {"neighbors", FieldKind::kRef, i64_array, 0},
                                                });
  rank = reg.DefineClass("Rank", {
                                     {"id", FieldKind::kI64, nullptr, 0},
                                     {"rank", FieldKind::kF64, nullptr, 0},
                                 });
  vertex_state = reg.DefineClass("VertexState", {
                                                    {"id", FieldKind::kI64, nullptr, 0},
                                                    {"rank", FieldKind::kF64, nullptr, 0},
                                                    {"neighbors", FieldKind::kRef, i64_array, 0},
                                                });
  point = reg.DefineClass("Point", {
                                       {"numActives", FieldKind::kI32, nullptr, 0},
                                       {"values", FieldKind::kRef, f64_array, 0},
                                   });
  cluster_stat = reg.DefineClass("ClusterStat", {
                                                    {"cluster", FieldKind::kI64, nullptr, 0},
                                                    {"count", FieldKind::kI64, nullptr, 0},
                                                    {"sums", FieldKind::kRef, f64_array, 0},
                                                });
  centers = reg.DefineClass("Centers", {
                                           {"k", FieldKind::kI32, nullptr, 0},
                                           {"dim", FieldKind::kI32, nullptr, 0},
                                           {"data", FieldKind::kRef, f64_array, 0},
                                       });
  dense_vector = reg.DefineClass("DenseVector", {
                                                    {"numActives", FieldKind::kI32, nullptr, 0},
                                                    {"values", FieldKind::kRef, f64_array, 0},
                                                });
  labeled_point = reg.DefineClass("LabeledPoint",
                                  {
                                      {"label", FieldKind::kF64, nullptr, 0},
                                      {"features", FieldKind::kRef, dense_vector, 0},
                                  });
  sparse_vector = reg.DefineClass("SparseVector", {
                                                      {"numActives", FieldKind::kI32, nullptr, 0},
                                                      {"indices", FieldKind::kRef, i32_array, 0},
                                                      {"values", FieldKind::kRef, f64_array, 0},
                                                  });
  sparse_point = reg.DefineClass("SparseLabeledPoint",
                                 {
                                     {"label", FieldKind::kF64, nullptr, 0},
                                     {"features", FieldKind::kRef, sparse_vector, 0},
                                 });
  grad_vec = reg.DefineClass("GradVec", {
                                            {"key", FieldKind::kI64, nullptr, 0},
                                            {"values", FieldKind::kRef, f64_array, 0},
                                        });
  weights = reg.DefineClass("Weights", {
                                           {"dim", FieldKind::kI32, nullptr, 0},
                                           {"data", FieldKind::kRef, f64_array, 0},
                                       });
  feat_count = reg.DefineClass("FeatCount", {
                                                {"key", FieldKind::kI64, nullptr, 0},
                                                {"count", FieldKind::kI64, nullptr, 0},
                                            });
  line = reg.DefineClass("Line", {{"text", FieldKind::kRef, string_k, 0}});
  word_count = reg.DefineClass("WordCount", {
                                                {"word", FieldKind::kRef, string_k, 0},
                                                {"count", FieldKind::kI64, nullptr, 0},
                                            });
  account = reg.DefineClass("Account", {
                                           {"user", FieldKind::kI64, nullptr, 0},
                                           {"size", FieldKind::kI64, nullptr, 0},
                                           {"capacity", FieldKind::kI64, nullptr, 0},
                                           {"lengths", FieldKind::kRef, i64_array, 0},
                                       });

  for (const Klass* top : {vertex_links, rank, vertex_state, point, cluster_stat, centers,
                           labeled_point, sparse_point, grad_vec, weights, feat_count, line,
                           word_count, account}) {
    engine_.RegisterDataType(top);
  }
}

void SparkWorkloads::BuildUdfs() {
  KlassRegistry& reg = engine_.heap().klasses();
  const Klass* i64_array = reg.Find("i64[]");
  const Klass* f64_array = reg.Find("f64[]");
  const Klass* byte_array = engine_.wk().byte_array();
  const Klass* string_k = engine_.wk().string_klass();
  const Klass* rank_array = reg.Find("Rank[]");
  const Klass* feat_count_array = reg.Find("FeatCount[]");
  const Klass* wc_array = reg.Find("WordCount[]");

  // ---- PageRank -----------------------------------------------------------
  {
    Function* f = udfs_.AddFunction("pr_links_key");
    FunctionBuilder b(f);
    int rec = b.Param("links", IrType::Ref(vertex_links));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, vertex_links, "id"));
    b.Done();
    pr_links_key_ = f;
  }
  {
    Function* f = udfs_.AddFunction("pr_rank_key");
    FunctionBuilder b(f);
    int rec = b.Param("rank", IrType::Ref(rank));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, rank, "id"));
    b.Done();
    pr_rank_key_ = f;
  }
  {
    // join(links, rank) -> VertexState (the adjacency is copied into the new
    // record, as Spark's cogroup materialization does).
    Function* f = udfs_.AddFunction("pr_join");
    FunctionBuilder b(f);
    int links = b.Param("links", IrType::Ref(vertex_links));
    int rnk = b.Param("rank", IrType::Ref(rank));
    f->return_type = IrType::Ref(vertex_state);
    int neighbors = b.FieldLoad(links, vertex_links, "neighbors");
    int n = b.ArrayLength(neighbors);
    int copy = b.NewArray(i64_array, n);
    b.For(n, [&](int i) {
      b.ArrayStore(copy, i, b.ArrayLoad(neighbors, i, IrType::I64()));
    });
    int out = b.NewObject(vertex_state);
    b.FieldStore(out, vertex_state, "id", b.FieldLoad(links, vertex_links, "id"));
    b.FieldStore(out, vertex_state, "rank", b.FieldLoad(rnk, rank, "rank"));
    b.FieldStore(out, vertex_state, "neighbors", copy);
    b.Return(out);
    b.Done();
    pr_join_ = f;
  }
  {
    // contribs(state) -> Rank[]: rank/degree to every neighbor.
    Function* f = udfs_.AddFunction("pr_contribs");
    FunctionBuilder b(f);
    int state = b.Param("state", IrType::Ref(vertex_state));
    f->return_type = IrType::Ref(rank_array);
    int neighbors = b.FieldLoad(state, vertex_state, "neighbors");
    int n = b.ArrayLength(neighbors);
    int r = b.FieldLoad(state, vertex_state, "rank");
    int nf = b.UnOp(UnOpKind::kI2F, n);
    int share = b.BinOp(BinOpKind::kDiv, r, nf);
    int arr = b.NewArray(rank_array, n);
    b.For(n, [&](int i) {
      int contrib = b.NewObject(rank);
      b.FieldStore(contrib, rank, "id", b.ArrayLoad(neighbors, i, IrType::I64()));
      b.FieldStore(contrib, rank, "rank", share);
      b.ArrayStore(arr, i, contrib);
    });
    b.Return(arr);
    b.Done();
    pr_contribs_ = f;
  }
  {
    Function* f = udfs_.AddFunction("pr_sum");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(rank));
    int c = b.Param("b", IrType::Ref(rank));
    f->return_type = IrType::Ref(rank);
    int out = b.NewObject(rank);
    b.FieldStore(out, rank, "id", b.FieldLoad(a, rank, "id"));
    b.FieldStore(out, rank, "rank",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, rank, "rank"),
                         b.FieldLoad(c, rank, "rank")));
    b.Return(out);
    b.Done();
    pr_sum_ = f;
  }
  {
    // damp(rank) -> 0.15 + 0.85 * rank
    Function* f = udfs_.AddFunction("pr_damp");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(rank));
    f->return_type = IrType::Ref(rank);
    int out = b.NewObject(rank);
    b.FieldStore(out, rank, "id", b.FieldLoad(a, rank, "id"));
    int scaled = b.BinOp(BinOpKind::kMul, b.ConstF(0.85), b.FieldLoad(a, rank, "rank"));
    b.FieldStore(out, rank, "rank", b.BinOp(BinOpKind::kAdd, b.ConstF(0.15), scaled));
    b.Return(out);
    b.Done();
    pr_damp_ = f;
  }

  // ---- ConnectedComponents (label propagation) ------------------------------
  {
    // spread(state) -> Rank[n+1]: the current label to every neighbor plus
    // itself (so a vertex never loses its own minimum).
    Function* f = udfs_.AddFunction("cc_spread");
    FunctionBuilder b(f);
    int state = b.Param("state", IrType::Ref(vertex_state));
    f->return_type = IrType::Ref(rank_array);
    int neighbors = b.FieldLoad(state, vertex_state, "neighbors");
    int n = b.ArrayLength(neighbors);
    int label = b.FieldLoad(state, vertex_state, "rank");
    int count = b.BinOp(BinOpKind::kAdd, n, b.ConstI(1));
    int arr = b.NewArray(rank_array, count);
    b.For(n, [&](int i) {
      int msg = b.NewObject(rank);
      b.FieldStore(msg, rank, "id", b.ArrayLoad(neighbors, i, IrType::I64()));
      b.FieldStore(msg, rank, "rank", label);
      b.ArrayStore(arr, i, msg);
    });
    int self_msg = b.NewObject(rank);
    b.FieldStore(self_msg, rank, "id", b.FieldLoad(state, vertex_state, "id"));
    b.FieldStore(self_msg, rank, "rank", label);
    b.ArrayStore(arr, n, self_msg);
    b.Return(arr);
    b.Done();
    cc_spread_ = f;
  }
  {
    Function* f = udfs_.AddFunction("cc_min");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(rank));
    int c = b.Param("b", IrType::Ref(rank));
    f->return_type = IrType::Ref(rank);
    int out = b.NewObject(rank);
    b.FieldStore(out, rank, "id", b.FieldLoad(a, rank, "id"));
    b.FieldStore(out, rank, "rank",
                 b.BinOp(BinOpKind::kMin, b.FieldLoad(a, rank, "rank"),
                         b.FieldLoad(c, rank, "rank")));
    b.Return(out);
    b.Done();
    cc_min_ = f;
  }

  // ---- KMeans ---------------------------------------------------------------
  {
    // assign(point, centers) -> ClusterStat{nearest, 1, point values}
    Function* f = udfs_.AddFunction("km_assign");
    FunctionBuilder b(f);
    int p = b.Param("point", IrType::Ref(point));
    int bc = b.Param("centers", IrType::Ref(centers));
    f->return_type = IrType::Ref(cluster_stat);
    int values = b.FieldLoad(p, point, "values");
    int dim = b.FieldLoad(bc, centers, "dim");
    int k = b.FieldLoad(bc, centers, "k");
    int data = b.FieldLoad(bc, centers, "data");
    int best = b.Local("best", IrType::I64());
    int best_dist = b.Local("best_dist", IrType::F64());
    b.AssignTo(best, b.ConstI(0));
    b.AssignTo(best_dist, b.ConstF(1e300));
    b.For(k, [&](int c) {
      int dist = b.Local("", IrType::F64());
      b.AssignTo(dist, b.ConstF(0.0));
      b.For(dim, [&](int d) {
        int base = b.BinOp(BinOpKind::kMul, c, dim);
        int idx = b.BinOp(BinOpKind::kAdd, base, d);
        int diff = b.BinOp(BinOpKind::kSub, b.ArrayLoad(values, d, IrType::F64()),
                           b.ArrayLoad(data, idx, IrType::F64()));
        b.AssignTo(dist, b.BinOp(BinOpKind::kAdd, dist, b.BinOp(BinOpKind::kMul, diff, diff)));
      });
      int better = b.BinOp(BinOpKind::kLt, dist, best_dist);
      b.If(better, [&] {
        b.AssignTo(best_dist, dist);
        b.AssignTo(best, c);
      });
    });
    int copy = b.NewArray(f64_array, dim);
    b.For(dim, [&](int d) {
      b.ArrayStore(copy, d, b.ArrayLoad(values, d, IrType::F64()));
    });
    int out = b.NewObject(cluster_stat);
    b.FieldStore(out, cluster_stat, "cluster", best);
    b.FieldStore(out, cluster_stat, "count", b.ConstI(1));
    b.FieldStore(out, cluster_stat, "sums", copy);
    b.Return(out);
    b.Done();
    km_assign_ = f;
  }
  {
    Function* f = udfs_.AddFunction("km_key");
    FunctionBuilder b(f);
    int rec = b.Param("stat", IrType::Ref(cluster_stat));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, cluster_stat, "cluster"));
    b.Done();
    km_key_ = f;
  }
  {
    Function* f = udfs_.AddFunction("km_merge");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(cluster_stat));
    int c = b.Param("b", IrType::Ref(cluster_stat));
    f->return_type = IrType::Ref(cluster_stat);
    int sa = b.FieldLoad(a, cluster_stat, "sums");
    int sb = b.FieldLoad(c, cluster_stat, "sums");
    int n = b.ArrayLength(sa);
    int sums = b.NewArray(f64_array, n);
    b.For(n, [&](int d) {
      b.ArrayStore(sums, d,
                   b.BinOp(BinOpKind::kAdd, b.ArrayLoad(sa, d, IrType::F64()),
                           b.ArrayLoad(sb, d, IrType::F64())));
    });
    int out = b.NewObject(cluster_stat);
    b.FieldStore(out, cluster_stat, "cluster", b.FieldLoad(a, cluster_stat, "cluster"));
    b.FieldStore(out, cluster_stat, "count",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, cluster_stat, "count"),
                         b.FieldLoad(c, cluster_stat, "count")));
    b.FieldStore(out, cluster_stat, "sums", sums);
    b.Return(out);
    b.Done();
    km_merge_ = f;
  }

  // ---- Logistic Regression ---------------------------------------------------
  {
    // grad(point, weights) -> GradVec{0, (sigmoid(w.x) - y) * x}
    Function* f = udfs_.AddFunction("lr_grad");
    FunctionBuilder b(f);
    int p = b.Param("point", IrType::Ref(labeled_point));
    int w = b.Param("weights", IrType::Ref(weights));
    f->return_type = IrType::Ref(grad_vec);
    int vec = b.FieldLoad(p, labeled_point, "features");
    int x = b.FieldLoad(vec, dense_vector, "values");
    int wd = b.FieldLoad(w, weights, "data");
    int dim = b.ArrayLength(x);
    int margin = b.Local("margin", IrType::F64());
    b.AssignTo(margin, b.ConstF(0.0));
    b.For(dim, [&](int d) {
      int term = b.BinOp(BinOpKind::kMul, b.ArrayLoad(wd, d, IrType::F64()),
                         b.ArrayLoad(x, d, IrType::F64()));
      b.AssignTo(margin, b.BinOp(BinOpKind::kAdd, margin, term));
    });
    int neg = b.UnOp(UnOpKind::kNeg, margin);
    int e = b.CallNative("exp", {neg}, IrType::F64());
    int denom = b.BinOp(BinOpKind::kAdd, b.ConstF(1.0), e);
    int prob = b.BinOp(BinOpKind::kDiv, b.ConstF(1.0), denom);
    int scale = b.BinOp(BinOpKind::kSub, prob, b.FieldLoad(p, labeled_point, "label"));
    int g = b.NewArray(f64_array, dim);
    b.For(dim, [&](int d) {
      b.ArrayStore(g, d, b.BinOp(BinOpKind::kMul, scale, b.ArrayLoad(x, d, IrType::F64())));
    });
    int out = b.NewObject(grad_vec);
    b.FieldStore(out, grad_vec, "key", b.ConstI(0));
    b.FieldStore(out, grad_vec, "values", g);
    b.Return(out);
    b.Done();
    lr_grad_ = f;
  }
  {
    Function* f = udfs_.AddFunction("lr_key");
    FunctionBuilder b(f);
    int rec = b.Param("g", IrType::Ref(grad_vec));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, grad_vec, "key"));
    b.Done();
    lr_key_ = f;
  }
  {
    Function* f = udfs_.AddFunction("lr_add");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(grad_vec));
    int c = b.Param("b", IrType::Ref(grad_vec));
    f->return_type = IrType::Ref(grad_vec);
    int va = b.FieldLoad(a, grad_vec, "values");
    int vb = b.FieldLoad(c, grad_vec, "values");
    int n = b.ArrayLength(va);
    int sums = b.NewArray(f64_array, n);
    b.For(n, [&](int d) {
      b.ArrayStore(sums, d,
                   b.BinOp(BinOpKind::kAdd, b.ArrayLoad(va, d, IrType::F64()),
                           b.ArrayLoad(vb, d, IrType::F64())));
    });
    int out = b.NewObject(grad_vec);
    b.FieldStore(out, grad_vec, "key", b.FieldLoad(a, grad_vec, "key"));
    b.FieldStore(out, grad_vec, "values", sums);
    b.Return(out);
    b.Done();
    lr_add_ = f;
  }

  // ---- Chi Square Selector -----------------------------------------------------
  {
    // cells(point) -> FeatCount[]: one contingency cell per active feature,
    // key = feature*4 + label*2 + (value > 0).
    Function* f = udfs_.AddFunction("cs_cells");
    FunctionBuilder b(f);
    int p = b.Param("point", IrType::Ref(sparse_point));
    f->return_type = IrType::Ref(feat_count_array);
    int vec = b.FieldLoad(p, sparse_point, "features");
    int indices = b.FieldLoad(vec, sparse_vector, "indices");
    int values = b.FieldLoad(vec, sparse_vector, "values");
    int n = b.ArrayLength(indices);
    int label = b.FieldLoad(p, sparse_point, "label");
    int label_bit = b.UnOp(UnOpKind::kF2I, label);
    int arr = b.NewArray(feat_count_array, n);
    b.For(n, [&](int i) {
      int feature = b.ArrayLoad(indices, i, IrType::I64());
      int v = b.ArrayLoad(values, i, IrType::F64());
      int positive = b.BinOp(BinOpKind::kGt, v, b.ConstF(0.0));
      int key = b.BinOp(
          BinOpKind::kAdd,
          b.BinOp(BinOpKind::kAdd, b.BinOp(BinOpKind::kMul, feature, b.ConstI(4)),
                  b.BinOp(BinOpKind::kMul, label_bit, b.ConstI(2))),
          positive);
      int cell = b.NewObject(feat_count);
      b.FieldStore(cell, feat_count, "key", key);
      b.FieldStore(cell, feat_count, "count", b.ConstI(1));
      b.ArrayStore(arr, i, cell);
    });
    b.Return(arr);
    b.Done();
    cs_cells_ = f;
  }
  {
    Function* f = udfs_.AddFunction("cs_key");
    FunctionBuilder b(f);
    int rec = b.Param("cell", IrType::Ref(feat_count));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, feat_count, "key"));
    b.Done();
    cs_key_ = f;
  }
  {
    Function* f = udfs_.AddFunction("cs_add");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(feat_count));
    int c = b.Param("b", IrType::Ref(feat_count));
    f->return_type = IrType::Ref(feat_count);
    int out = b.NewObject(feat_count);
    b.FieldStore(out, feat_count, "key", b.FieldLoad(a, feat_count, "key"));
    b.FieldStore(out, feat_count, "count",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, feat_count, "count"),
                         b.FieldLoad(c, feat_count, "count")));
    b.Return(out);
    b.Done();
    cs_add_ = f;
  }

  // ---- Gradient Boosting (stump ensemble on sign features) ---------------------
  {
    // stats(point, ensemble) -> FeatCount[dim] with per-feature residual
    // direction (count field reused as a fixed-point residual sum).
    Function* f = udfs_.AddFunction("gb_stats");
    FunctionBuilder b(f);
    int p = b.Param("point", IrType::Ref(labeled_point));
    int w = b.Param("ensemble", IrType::Ref(weights));
    f->return_type = IrType::Ref(feat_count_array);
    int vec = b.FieldLoad(p, labeled_point, "features");
    int x = b.FieldLoad(vec, dense_vector, "values");
    int dim = b.ArrayLength(x);
    int wd = b.FieldLoad(w, weights, "data");  // per-feature stump weights
    // Current prediction: sum_f w_f * sign(x_f).
    int pred = b.Local("pred", IrType::F64());
    b.AssignTo(pred, b.ConstF(0.0));
    b.For(dim, [&](int d) {
      int positive = b.BinOp(BinOpKind::kGt, b.ArrayLoad(x, d, IrType::F64()), b.ConstF(0.0));
      int sign = b.BinOp(BinOpKind::kSub, b.BinOp(BinOpKind::kMul, positive, b.ConstI(2)),
                         b.ConstI(1));
      int signf = b.UnOp(UnOpKind::kI2F, sign);
      int term = b.BinOp(BinOpKind::kMul, b.ArrayLoad(wd, d, IrType::F64()), signf);
      b.AssignTo(pred, b.BinOp(BinOpKind::kAdd, pred, term));
    });
    int y = b.BinOp(BinOpKind::kSub,
                    b.BinOp(BinOpKind::kMul, b.FieldLoad(p, labeled_point, "label"),
                            b.ConstF(2.0)),
                    b.ConstF(1.0));
    int residual = b.BinOp(BinOpKind::kSub, y, pred);
    int arr = b.NewArray(feat_count_array, dim);
    b.For(dim, [&](int d) {
      int positive = b.BinOp(BinOpKind::kGt, b.ArrayLoad(x, d, IrType::F64()), b.ConstF(0.0));
      int sign = b.BinOp(BinOpKind::kSub, b.BinOp(BinOpKind::kMul, positive, b.ConstI(2)),
                         b.ConstI(1));
      int signf = b.UnOp(UnOpKind::kI2F, sign);
      int directed = b.BinOp(BinOpKind::kMul, residual, signf);
      int fixed_point = b.UnOp(UnOpKind::kF2I,
                               b.BinOp(BinOpKind::kMul, directed, b.ConstF(1024.0)));
      int cell = b.NewObject(feat_count);
      b.FieldStore(cell, feat_count, "key", d);
      b.FieldStore(cell, feat_count, "count", fixed_point);
      b.ArrayStore(arr, d, cell);
    });
    b.Return(arr);
    b.Done();
    gb_stats_ = f;
  }
  gb_key_ = cs_key_;
  gb_add_ = cs_add_;

  // ---- WordCount -----------------------------------------------------------------
  {
    // tokenize(line) -> WordCount[] splitting on single spaces.
    Function* f = udfs_.AddFunction("wc_tokenize");
    FunctionBuilder b(f);
    int rec = b.Param("line", IrType::Ref(line));
    f->return_type = IrType::Ref(wc_array);
    int text = b.FieldLoad(rec, line, "text");
    int chars = b.FieldLoad(text, string_k, "value");
    int len = b.ArrayLength(chars);
    int space = b.ConstI(' ');
    int words = b.Local("words", IrType::I64());
    b.AssignTo(words, b.ConstI(1));
    b.For(len, [&](int i) {
      int c = b.ArrayLoad(chars, i, IrType::I64());
      b.If(b.BinOp(BinOpKind::kEq, c, space), [&] {
        b.AssignTo(words, b.BinOp(BinOpKind::kAdd, words, b.ConstI(1)));
      });
    });
    int arr = b.NewArray(wc_array, words);
    int word_index = b.Local("word_index", IrType::I64());
    int start = b.Local("start", IrType::I64());
    int pos = b.Local("pos", IrType::I64());
    b.AssignTo(word_index, b.ConstI(0));
    b.AssignTo(start, b.ConstI(0));
    b.AssignTo(pos, b.ConstI(0));
    auto emit_word = [&]() {
      int word_len = b.BinOp(BinOpKind::kSub, pos, start);
      int word_chars = b.NewArray(byte_array, word_len);
      b.For(word_len, [&](int k) {
        int src = b.BinOp(BinOpKind::kAdd, start, k);
        b.ArrayStore(word_chars, k, b.ArrayLoad(chars, src, IrType::I64()));
      });
      int word = b.NewObject(string_k);
      b.FieldStore(word, string_k, "value", word_chars);
      int wc = b.NewObject(word_count);
      b.FieldStore(wc, word_count, "word", word);
      b.FieldStore(wc, word_count, "count", b.ConstI(1));
      b.ArrayStore(arr, word_index, wc);
      b.AssignTo(word_index, b.BinOp(BinOpKind::kAdd, word_index, b.ConstI(1)));
    };
    int loop = b.NewLabel();
    int done = b.NewLabel();
    b.PlaceLabel(loop);
    b.Branch(b.BinOp(BinOpKind::kGe, pos, len), done);
    int c = b.ArrayLoad(chars, pos, IrType::I64());
    b.If(b.BinOp(BinOpKind::kEq, c, space), [&] {
      emit_word();
      b.AssignTo(start, b.BinOp(BinOpKind::kAdd, pos, b.ConstI(1)));
    });
    b.AssignTo(pos, b.BinOp(BinOpKind::kAdd, pos, b.ConstI(1)));
    b.Jump(loop);
    b.PlaceLabel(done);
    emit_word();
    b.Return(arr);
    b.Done();
    wc_tokenize_ = f;
  }
  {
    Function* f = udfs_.AddFunction("wc_key");
    FunctionBuilder b(f);
    int rec = b.Param("wc", IrType::Ref(word_count));
    f->return_type = IrType::Ref(string_k);
    b.Return(b.FieldLoad(rec, word_count, "word"));
    b.Done();
    wc_key_ = f;
  }
  {
    Function* f = udfs_.AddFunction("wc_sum");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(word_count));
    int c = b.Param("b", IrType::Ref(word_count));
    f->return_type = IrType::Ref(word_count);
    int out = b.NewObject(word_count);
    b.FieldStore(out, word_count, "word", b.FieldLoad(a, word_count, "word"));
    b.FieldStore(out, word_count, "count",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, word_count, "count"),
                         b.FieldLoad(c, word_count, "count")));
    b.Return(out);
    b.Done();
    wc_sum_ = f;
  }

  // ---- StackOverflow Analytics (§4.4 abort workload) ----------------------------
  {
    Function* f = udfs_.AddFunction("acct_key");
    FunctionBuilder b(f);
    int rec = b.Param("acct", IrType::Ref(account));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, account, "user"));
    b.Done();
    acct_key_ = f;
  }
  {
    // merge(a, b): append b's post lengths to a. The common case copies into
    // a fresh Account at the same capacity; overflowing the capacity takes
    // the "resize" branch, whose capacity mutation of the *input* record is
    // the paper's second violation condition — the fast path aborts there.
    Function* f = udfs_.AddFunction("acct_merge");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(account));
    int c = b.Param("b", IrType::Ref(account));
    f->return_type = IrType::Ref(account);
    int size_a = b.FieldLoad(a, account, "size");
    int size_b = b.FieldLoad(c, account, "size");
    int total = b.BinOp(BinOpKind::kAdd, size_a, size_b);
    int cap = b.FieldLoad(a, account, "capacity");
    int overflow = b.BinOp(BinOpKind::kGt, total, cap);
    b.If(overflow, [&] {
      // Vector.resize: grow the backing store in place. Mutating the
      // deserialized record is illegal over inlined bytes; the transformer
      // fences this store with an ABORT.
      int doubled = b.BinOp(BinOpKind::kMul, cap, b.ConstI(2));
      b.FieldStore(a, account, "capacity", doubled);
    });
    int new_cap = b.FieldLoad(a, account, "capacity");
    int la = b.FieldLoad(a, account, "lengths");
    int lb = b.FieldLoad(c, account, "lengths");
    int merged = b.NewArray(reg.Find("i64[]"), new_cap);
    b.For(size_a, [&](int i) {
      b.ArrayStore(merged, i, b.ArrayLoad(la, i, IrType::I64()));
    });
    b.For(size_b, [&](int i) {
      int at = b.BinOp(BinOpKind::kAdd, size_a, i);
      b.ArrayStore(merged, at, b.ArrayLoad(lb, i, IrType::I64()));
    });
    int out = b.NewObject(account);
    b.FieldStore(out, account, "user", b.FieldLoad(a, account, "user"));
    b.FieldStore(out, account, "size", total);
    b.FieldStore(out, account, "capacity", new_cap);
    b.FieldStore(out, account, "lengths", merged);
    b.Return(out);
    b.Done();
    acct_merge_ = f;
  }
  (void)i64_array;
  acct_from_post_ = nullptr;  // accounts are built directly as sources
}

// ===========================================================================
// Drivers
// ===========================================================================

namespace {

// Reads a f64 field from a collected record.
double ReadF64Field(Heap& heap, ObjRef rec, const Klass* klass, const char* field) {
  return heap.GetPrim<double>(rec, klass->FindField(field)->offset);
}
int64_t ReadI64Field(Heap& heap, ObjRef rec, const Klass* klass, const char* field) {
  return heap.GetPrim<int64_t>(rec, klass->FindField(field)->offset);
}

}  // namespace

DatasetPtr SparkWorkloads::VertexLinksSource(const SyntheticGraph& graph) {
  Heap& heap = engine_.heap();
  const Klass* i64_array = heap.klasses().Find("i64[]");
  const int id_off = vertex_links->FindField("id")->offset;
  const int neighbors_off = vertex_links->FindField("neighbors")->offset;
  return engine_.Source(vertex_links, graph.num_vertices, [&](int64_t v, RootScope& scope) {
    const auto& neighbors = graph.out_edges[static_cast<size_t>(v)];
    size_t arr = scope.Push(heap.AllocArray(i64_array, neighbors.size()));
    for (size_t i = 0; i < neighbors.size(); ++i) {
      heap.ASet<int64_t>(scope.Get(arr), static_cast<int64_t>(i), neighbors[i]);
    }
    ObjRef rec = heap.AllocObject(vertex_links);
    heap.SetPrim<int64_t>(rec, id_off, v);
    heap.SetRef(rec, neighbors_off, scope.Get(arr));
    return rec;
  });
}

DatasetPtr SparkWorkloads::RankSource(int64_t num_vertices, bool rank_is_id) {
  Heap& heap = engine_.heap();
  const int id_off = rank->FindField("id")->offset;
  const int rank_off = rank->FindField("rank")->offset;
  return engine_.Source(rank, num_vertices, [&](int64_t v, RootScope&) {
    ObjRef rec = heap.AllocObject(rank);
    heap.SetPrim<int64_t>(rec, id_off, v);
    heap.SetPrim<double>(rec, rank_off, rank_is_id ? static_cast<double>(v) : 1.0);
    return rec;
  });
}

DatasetPtr SparkWorkloads::LabeledPointSource(const SyntheticLabeledPoints& data) {
  Heap& heap = engine_.heap();
  const Klass* f64_array = heap.klasses().Find("f64[]");
  const int num_actives_off = dense_vector->FindField("numActives")->offset;
  const int values_off = dense_vector->FindField("values")->offset;
  const int label_off = labeled_point->FindField("label")->offset;
  const int features_off = labeled_point->FindField("features")->offset;
  return engine_.Source(
      labeled_point, static_cast<int64_t>(data.features.size()),
      [&](int64_t i, RootScope& scope) {
        const auto& feature = data.features[static_cast<size_t>(i)];
        size_t arr = scope.Push(heap.AllocArray(f64_array, feature.size()));
        for (size_t d = 0; d < feature.size(); ++d) {
          heap.ASet<double>(scope.Get(arr), static_cast<int64_t>(d), feature[d]);
        }
        size_t vec = scope.Push(heap.AllocObject(dense_vector));
        heap.SetPrim<int32_t>(scope.Get(vec), num_actives_off,
                              static_cast<int32_t>(feature.size()));
        heap.SetRef(scope.Get(vec), values_off, scope.Get(arr));
        ObjRef rec = heap.AllocObject(labeled_point);
        heap.SetPrim<double>(rec, label_off, data.labels[static_cast<size_t>(i)]);
        heap.SetRef(rec, features_off, scope.Get(vec));
        return rec;
      });
}

WorkloadResult SparkWorkloads::RunPageRank(const SyntheticGraph& graph, int iterations) {
  Heap& heap = engine_.heap();
  DatasetPtr links = VertexLinksSource(graph);
  DatasetPtr ranks = RankSource(graph.num_vertices, false);

  engine_.ResetMetrics();
  for (int iter = 0; iter < iterations; ++iter) {
    DatasetPtr state = engine_.JoinByKey(links, KeySpec{pr_links_key_, false}, ranks,
                                         KeySpec{pr_rank_key_, false}, udfs_, pr_join_,
                                         vertex_state);
    DatasetPtr summed =
        engine_.ReduceByKey(state, udfs_, {NarrowOp::FlatMap(pr_contribs_, rank)},
                            KeySpec{pr_rank_key_, false}, pr_sum_);
    ranks = engine_.RunStage(summed, udfs_, {NarrowOp::Map(pr_damp_, rank)});
  }

  WorkloadResult result;
  result.name = "PageRank";
  RootScope scope(heap);
  for (size_t slot : engine_.CollectToHeap(ranks, scope)) {
    result.checksum += ReadF64Field(heap, scope.Get(slot), rank, "rank");
    result.records += 1;
  }
  return result;
}

WorkloadResult SparkWorkloads::RunConnectedComponents(const SyntheticGraph& graph,
                                                      int iterations) {
  Heap& heap = engine_.heap();
  DatasetPtr links = VertexLinksSource(graph);
  // Labels reuse the Rank record: rank == the current component label.
  DatasetPtr labels = RankSource(graph.num_vertices, true);

  engine_.ResetMetrics();
  for (int iter = 0; iter < iterations; ++iter) {
    DatasetPtr state = engine_.JoinByKey(links, KeySpec{pr_links_key_, false}, labels,
                                         KeySpec{pr_rank_key_, false}, udfs_, pr_join_,
                                         vertex_state);
    labels = engine_.ReduceByKey(state, udfs_, {NarrowOp::FlatMap(cc_spread_, rank)},
                                 KeySpec{pr_rank_key_, false}, cc_min_);
  }

  WorkloadResult result;
  result.name = "ConnectedComponents";
  RootScope scope(heap);
  for (size_t slot : engine_.CollectToHeap(labels, scope)) {
    result.checksum += ReadF64Field(heap, scope.Get(slot), rank, "rank");
    result.records += 1;
  }
  return result;
}

WorkloadResult SparkWorkloads::RunKMeans(const SyntheticPoints& data, int k, int iterations) {
  Heap& heap = engine_.heap();
  const Klass* f64_array = heap.klasses().Find("f64[]");
  int dim = data.dim;

  const int num_actives_off = point->FindField("numActives")->offset;
  const int values_off = point->FindField("values")->offset;
  DatasetPtr points = engine_.Source(
      point, static_cast<int64_t>(data.values.size()), [&](int64_t i, RootScope& scope) {
        const auto& value = data.values[static_cast<size_t>(i)];
        size_t arr = scope.Push(heap.AllocArray(f64_array, value.size()));
        for (size_t d = 0; d < value.size(); ++d) {
          heap.ASet<double>(scope.Get(arr), static_cast<int64_t>(d), value[d]);
        }
        ObjRef rec = heap.AllocObject(point);
        heap.SetPrim<int32_t>(rec, num_actives_off, static_cast<int32_t>(value.size()));
        heap.SetRef(rec, values_off, scope.Get(arr));
        return rec;
      });

  // Initial centers: the first k points.
  std::vector<double> center_data(static_cast<size_t>(k * dim));
  for (int c = 0; c < k; ++c) {
    for (int d = 0; d < dim; ++d) {
      center_data[static_cast<size_t>(c * dim + d)] =
          data.values[static_cast<size_t>(c)][static_cast<size_t>(d)];
    }
  }

  engine_.ResetMetrics();
  WorkloadResult result;
  result.name = "KMeans";
  for (int iter = 0; iter < iterations; ++iter) {
    RootScope scope(heap);
    size_t arr = scope.Push(heap.AllocArray(f64_array, center_data.size()));
    for (size_t i = 0; i < center_data.size(); ++i) {
      heap.ASet<double>(scope.Get(arr), static_cast<int64_t>(i), center_data[i]);
    }
    size_t bc_obj = scope.Push(heap.AllocObject(centers));
    heap.SetPrim<int32_t>(scope.Get(bc_obj), centers->FindField("k")->offset, k);
    heap.SetPrim<int32_t>(scope.Get(bc_obj), centers->FindField("dim")->offset, dim);
    heap.SetRef(scope.Get(bc_obj), centers->FindField("data")->offset, scope.Get(arr));
    BroadcastVar bc = engine_.MakeBroadcast(scope.Get(bc_obj), centers);

    DatasetPtr stats =
        engine_.ReduceByKey(points, udfs_, {NarrowOp::Map(km_assign_, cluster_stat)},
                            KeySpec{km_key_, false}, km_merge_, &bc);

    RootScope collect_scope(heap);
    for (size_t slot : engine_.CollectToHeap(stats, collect_scope)) {
      ObjRef rec = collect_scope.Get(slot);
      int64_t cluster = ReadI64Field(heap, rec, cluster_stat, "cluster");
      int64_t count = ReadI64Field(heap, rec, cluster_stat, "count");
      ObjRef sums = heap.GetRef(rec, cluster_stat->FindField("sums")->offset);
      for (int d = 0; d < dim; ++d) {
        center_data[static_cast<size_t>(cluster * dim + d)] =
            heap.AGet<double>(sums, d) / static_cast<double>(count);
      }
    }
  }
  for (double v : center_data) {
    result.checksum += v;
  }
  result.records = static_cast<int64_t>(data.values.size());
  return result;
}

WorkloadResult SparkWorkloads::RunLogisticRegression(const SyntheticLabeledPoints& data,
                                                     int iterations, double learning_rate) {
  Heap& heap = engine_.heap();
  const Klass* f64_array = heap.klasses().Find("f64[]");
  int dim = data.dim;

  DatasetPtr points = LabeledPointSource(data);

  std::vector<double> w(static_cast<size_t>(dim), 0.0);
  engine_.ResetMetrics();
  for (int iter = 0; iter < iterations; ++iter) {
    RootScope scope(heap);
    size_t arr = scope.Push(heap.AllocArray(f64_array, w.size()));
    for (size_t d = 0; d < w.size(); ++d) {
      heap.ASet<double>(scope.Get(arr), static_cast<int64_t>(d), w[d]);
    }
    size_t bc_obj = scope.Push(heap.AllocObject(weights));
    heap.SetPrim<int32_t>(scope.Get(bc_obj), weights->FindField("dim")->offset, dim);
    heap.SetRef(scope.Get(bc_obj), weights->FindField("data")->offset, scope.Get(arr));
    BroadcastVar bc = engine_.MakeBroadcast(scope.Get(bc_obj), weights);

    DatasetPtr grads = engine_.ReduceByKey(points, udfs_, {NarrowOp::Map(lr_grad_, grad_vec)},
                                           KeySpec{lr_key_, false}, lr_add_, &bc);
    RootScope collect_scope(heap);
    std::vector<size_t> slots = engine_.CollectToHeap(grads, collect_scope);
    GERENUK_CHECK_EQ(slots.size(), 1u);
    ObjRef g = collect_scope.Get(slots[0]);
    ObjRef values = heap.GetRef(g, grad_vec->FindField("values")->offset);
    double n = static_cast<double>(data.features.size());
    for (int d = 0; d < dim; ++d) {
      w[static_cast<size_t>(d)] -= learning_rate * heap.AGet<double>(values, d) / n;
    }
  }

  WorkloadResult result;
  result.name = "LogisticRegression";
  for (double v : w) {
    result.checksum += v;
  }
  result.records = static_cast<int64_t>(data.features.size());
  return result;
}

WorkloadResult SparkWorkloads::RunChiSquareSelector(const SyntheticLabeledPoints& data) {
  Heap& heap = engine_.heap();
  const Klass* f64_array = heap.klasses().Find("f64[]");
  const Klass* i32_array = heap.klasses().Find("i32[]");

  const int num_actives_off = sparse_vector->FindField("numActives")->offset;
  const int indices_off = sparse_vector->FindField("indices")->offset;
  const int values_off = sparse_vector->FindField("values")->offset;
  const int label_off = sparse_point->FindField("label")->offset;
  const int features_off = sparse_point->FindField("features")->offset;

  // Sparsify: keep features with |x| > 0.8 (roughly half).
  DatasetPtr points = engine_.Source(
      sparse_point, static_cast<int64_t>(data.features.size()),
      [&](int64_t i, RootScope& scope) {
        const auto& feature = data.features[static_cast<size_t>(i)];
        std::vector<int32_t> indices;
        std::vector<double> values;
        for (size_t d = 0; d < feature.size(); ++d) {
          if (std::fabs(feature[d]) > 0.8) {
            indices.push_back(static_cast<int32_t>(d));
            values.push_back(feature[d]);
          }
        }
        if (indices.empty()) {
          indices.push_back(0);
          values.push_back(feature[0]);
        }
        size_t idx_arr = scope.Push(heap.AllocArray(i32_array, indices.size()));
        for (size_t j = 0; j < indices.size(); ++j) {
          heap.ASet<int32_t>(scope.Get(idx_arr), static_cast<int64_t>(j), indices[j]);
        }
        size_t val_arr = scope.Push(heap.AllocArray(f64_array, values.size()));
        for (size_t j = 0; j < values.size(); ++j) {
          heap.ASet<double>(scope.Get(val_arr), static_cast<int64_t>(j), values[j]);
        }
        size_t vec = scope.Push(heap.AllocObject(sparse_vector));
        heap.SetPrim<int32_t>(scope.Get(vec), num_actives_off,
                              static_cast<int32_t>(indices.size()));
        heap.SetRef(scope.Get(vec), indices_off, scope.Get(idx_arr));
        heap.SetRef(scope.Get(vec), values_off, scope.Get(val_arr));
        ObjRef rec = heap.AllocObject(sparse_point);
        heap.SetPrim<double>(rec, label_off, data.labels[static_cast<size_t>(i)]);
        heap.SetRef(rec, features_off, scope.Get(vec));
        return rec;
      });

  engine_.ResetMetrics();
  DatasetPtr cells =
      engine_.ReduceByKey(points, udfs_, {NarrowOp::FlatMap(cs_cells_, feat_count)},
                          KeySpec{cs_key_, false}, cs_add_);

  // Driver-side chi-square statistic per feature from the contingency cells.
  std::vector<std::array<double, 4>> tables(static_cast<size_t>(data.dim), {0, 0, 0, 0});
  RootScope scope(heap);
  for (size_t slot : engine_.CollectToHeap(cells, scope)) {
    ObjRef rec = scope.Get(slot);
    int64_t key = ReadI64Field(heap, rec, feat_count, "key");
    int64_t count = ReadI64Field(heap, rec, feat_count, "count");
    tables[static_cast<size_t>(key / 4)][static_cast<size_t>(key % 4)] +=
        static_cast<double>(count);
  }
  WorkloadResult result;
  result.name = "ChiSquareSelector";
  for (const auto& t : tables) {
    double n = t[0] + t[1] + t[2] + t[3];
    if (n == 0) {
      continue;
    }
    double chi2 = 0.0;
    for (int lbl = 0; lbl < 2; ++lbl) {
      for (int bucket = 0; bucket < 2; ++bucket) {
        double observed = t[static_cast<size_t>(lbl * 2 + bucket)];
        double row = t[static_cast<size_t>(lbl * 2)] + t[static_cast<size_t>(lbl * 2 + 1)];
        double col = t[static_cast<size_t>(bucket)] + t[static_cast<size_t>(2 + bucket)];
        double expected = row * col / n;
        if (expected > 0) {
          chi2 += (observed - expected) * (observed - expected) / expected;
        }
      }
    }
    result.checksum += chi2;
  }
  result.records = static_cast<int64_t>(data.features.size());
  return result;
}

WorkloadResult SparkWorkloads::RunGradientBoosting(const SyntheticLabeledPoints& data,
                                                   int rounds, double learning_rate) {
  Heap& heap = engine_.heap();
  const Klass* f64_array = heap.klasses().Find("f64[]");
  int dim = data.dim;

  DatasetPtr points = LabeledPointSource(data);

  std::vector<double> stump_weights(static_cast<size_t>(dim), 0.0);
  engine_.ResetMetrics();
  for (int round = 0; round < rounds; ++round) {
    RootScope scope(heap);
    size_t arr = scope.Push(heap.AllocArray(f64_array, stump_weights.size()));
    for (size_t d = 0; d < stump_weights.size(); ++d) {
      heap.ASet<double>(scope.Get(arr), static_cast<int64_t>(d), stump_weights[d]);
    }
    size_t bc_obj = scope.Push(heap.AllocObject(weights));
    heap.SetPrim<int32_t>(scope.Get(bc_obj), weights->FindField("dim")->offset, dim);
    heap.SetRef(scope.Get(bc_obj), weights->FindField("data")->offset, scope.Get(arr));
    BroadcastVar bc = engine_.MakeBroadcast(scope.Get(bc_obj), weights);

    DatasetPtr stats =
        engine_.ReduceByKey(points, udfs_, {NarrowOp::FlatMap(gb_stats_, feat_count)},
                            KeySpec{gb_key_, false}, gb_add_, &bc);
    // Pick the feature with the largest |residual correlation| and boost it.
    // Ties go to the smaller feature: the reduce output order differs
    // between modes, so it must not decide.
    RootScope collect_scope(heap);
    int64_t best_feature = 0;
    double best_sum = 0.0;
    for (size_t slot : engine_.CollectToHeap(stats, collect_scope)) {
      ObjRef rec = collect_scope.Get(slot);
      double sum = static_cast<double>(ReadI64Field(heap, rec, feat_count, "count")) / 1024.0;
      int64_t feature = ReadI64Field(heap, rec, feat_count, "key");
      if (std::fabs(sum) > std::fabs(best_sum) ||
          (std::fabs(sum) == std::fabs(best_sum) && feature < best_feature)) {
        best_sum = sum;
        best_feature = feature;
      }
    }
    stump_weights[static_cast<size_t>(best_feature)] +=
        learning_rate * best_sum / static_cast<double>(data.features.size());
  }

  WorkloadResult result;
  result.name = "GradientBoosting";
  for (double v : stump_weights) {
    result.checksum += v;
  }
  result.records = static_cast<int64_t>(data.features.size());
  return result;
}

WorkloadResult SparkWorkloads::RunWordCount(const std::vector<std::string>& lines) {
  Heap& heap = engine_.heap();
  const int text_off = line->FindField("text")->offset;
  DatasetPtr input = engine_.Source(
      line, static_cast<int64_t>(lines.size()), [&](int64_t i, RootScope& scope) {
        size_t s = scope.Push(engine_.wk().AllocString(lines[static_cast<size_t>(i)]));
        ObjRef rec = heap.AllocObject(line);
        heap.SetRef(rec, text_off, scope.Get(s));
        return rec;
      });
  engine_.ResetMetrics();
  DatasetPtr counts =
      engine_.ReduceByKey(input, udfs_, {NarrowOp::FlatMap(wc_tokenize_, word_count)},
                          KeySpec{wc_key_, true}, wc_sum_);
  WorkloadResult result;
  result.name = "WordCount";
  RootScope scope(heap);
  for (size_t slot : engine_.CollectToHeap(counts, scope)) {
    result.checksum +=
        static_cast<double>(ReadI64Field(heap, scope.Get(slot), word_count, "count"));
    result.records += 1;
  }
  return result;
}

WorkloadResult SparkWorkloads::RunAccountGrouping(const std::vector<SyntheticPost>& posts,
                                                  int64_t initial_capacity) {
  Heap& heap = engine_.heap();
  const Klass* i64_array = heap.klasses().Find("i64[]");

  const int user_off = account->FindField("user")->offset;
  const int size_off = account->FindField("size")->offset;
  const int capacity_off = account->FindField("capacity")->offset;
  const int lengths_off = account->FindField("lengths")->offset;

  // Each post arrives as a single-entry Account; grouping by user folds them
  // together, occasionally overflowing the initial capacity (the resize).
  DatasetPtr singles = engine_.Source(
      account, static_cast<int64_t>(posts.size()), [&](int64_t i, RootScope& scope) {
        const SyntheticPost& post = posts[static_cast<size_t>(i)];
        size_t arr = scope.Push(heap.AllocArray(i64_array, initial_capacity));
        heap.ASet<int64_t>(scope.Get(arr), 0, static_cast<int64_t>(post.text.size()));
        ObjRef rec = heap.AllocObject(account);
        heap.SetPrim<int64_t>(rec, user_off, post.user_id);
        heap.SetPrim<int64_t>(rec, size_off, 1);
        heap.SetPrim<int64_t>(rec, capacity_off, initial_capacity);
        heap.SetRef(rec, lengths_off, scope.Get(arr));
        return rec;
      });

  engine_.ResetMetrics();
  DatasetPtr grouped =
      engine_.ReduceByKey(singles, udfs_, {}, KeySpec{acct_key_, false}, acct_merge_);

  WorkloadResult result;
  result.name = "AccountGrouping";
  RootScope scope(heap);
  for (size_t slot : engine_.CollectToHeap(grouped, scope)) {
    result.checksum += static_cast<double>(ReadI64Field(heap, scope.Get(slot), account, "size"));
    result.records += 1;
  }
  return result;
}

}  // namespace gerenuk
