#include "src/dataflow/spark.h"

#include <unordered_map>

#include "src/analysis/ser_analyzer.h"
#include "src/ir/builder.h"
#include "src/runtime/roots.h"
#include "src/shuffle/shuffle_service.h"
#include "src/transform/transformer.h"

namespace gerenuk {

namespace {

// Process-mode wire codec for shuffle-map stages: task `t` commits one
// sealed partition per reduce bucket into `(*buckets)[t]`, concatenated on
// the wire in bucket order (each partition's trailer delimits it).
StageCodec BucketRowCodec(std::vector<std::vector<NativePartition>>* buckets,
                          MemoryTracker* memory) {
  StageCodec codec;
  codec.encode = [buckets](int task, ByteBuffer* out) {
    for (NativePartition& bucket : (*buckets)[static_cast<size_t>(task)]) {
      bucket.SerializeTo(*out);
    }
  };
  codec.decode = [buckets, memory](int task, ByteReader* in) {
    std::vector<NativePartition>& row = (*buckets)[static_cast<size_t>(task)];
    try {
      for (size_t b = 0; b < row.size(); ++b) {
        row[b] = NativePartition::Parse(*in, memory);
      }
    } catch (const WireFormatError& e) {
      throw TaskError(TaskErrorKind::kCorruptInput, task, 1, 0,
                      std::string("executor shuffle output failed wire parse: ") + e.what());
    }
  };
  return codec;
}

// Task-local lazy broadcast materialization for the slow path: the broadcast
// lives as native bytes (shareable across workers) and as an object in the
// *engine* heap — which a worker-heap interpreter must not touch. The first
// slow-path record deserializes the bytes into the executing worker's heap
// and roots the result for the rest of the task; every record then re-reads
// the root slot, since a worker-heap GC may have moved the object.
class TaskBroadcast {
 public:
  TaskBroadcast(WorkerContext& ctx, const BroadcastVar* bc) : ctx_(ctx), bc_(bc) {}
  ~TaskBroadcast() {
    if (rooted_) {
      ctx_.heap().RemoveRootSlot(&ref_);
    }
  }
  TaskBroadcast(const TaskBroadcast&) = delete;
  TaskBroadcast& operator=(const TaskBroadcast&) = delete;

  void Bind(TaskIo* io) {
    if (bc_ == nullptr) {
      return;
    }
    io->fast_args.push_back(Value::Addr(bc_->native.record_addr(0)));
    io->slow_args.push_back(Value::None());  // placeholder; filled per record
    io->refresh_slow_args = [this](std::vector<Value>& args) {
      if (!rooted_) {
        ScopedPhase phase(ctx_.stats().times, Phase::kDeserialize);
        ByteReader reader(reinterpret_cast<const uint8_t*>(bc_->native.record_addr(0)),
                          bc_->native.record_size(0));
        ref_ = ctx_.serde().ReadBody(bc_->klass, reader);
        ctx_.heap().AddRootSlot(&ref_);
        rooted_ = true;
      }
      args[0] = Value::Ref(static_cast<int64_t>(ref_));
    };
  }

 private:
  WorkerContext& ctx_;
  const BroadcastVar* bc_;
  ObjRef ref_ = kNullRef;
  bool rooted_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

SparkEngine::SparkEngine(const EngineConfig& config)
    : SparkEngine(std::make_shared<EngineCore>(config)) {}

SparkEngine::SparkEngine(std::shared_ptr<EngineCore> core) : EngineFrontEnd(std::move(core)) {}

SparkEngine::~SparkEngine() = default;

BroadcastVar SparkEngine::MakeBroadcast(ObjRef obj, const Klass* klass) {
  BroadcastVar bc;
  bc.klass = klass;
  bc.heap = obj;  // the caller keeps `obj` rooted while the broadcast lives
  ByteBuffer record;
  core_->inline_serde().WriteRecord(obj, klass, record);
  bc.native = NativePartition(&core_->memory());
  bc.native.AppendRecord(record.data() + 4, static_cast<uint32_t>(record.size() - 4));
  return bc;
}

std::unique_ptr<ShuffleRun> SparkEngine::OpenShuffle(
    std::vector<std::vector<NativePartition>>* buckets) {
  const ShuffleOptions& options = core_->config().shuffle;
  ShuffleConfig sc;
  sc.spill_threshold_bytes = options.shuffle_spill_threshold_bytes;
  sc.compress = options.shuffle_compress;
  sc.fetch_budget_bytes = options.shuffle_fetch_budget_bytes;
  sc.spill_dir = options.shuffle_spill_dir;
  sc.tracker = &core_->memory();
  const int parts = num_partitions();
  auto run = std::make_unique<ShuffleRun>(parts, parts, sc);
  // Hand the map outputs over at the barrier, in task-major order (the
  // determinism contract for spill decisions). Resident unless the spill
  // threshold says otherwise; consumers fetch spilled blocks on demand under
  // the credit gate. The run is built before the consuming stage submits,
  // so process-mode executor children inherit the resident blocks and the
  // spill-file descriptor through fork.
  for (int t = 0; t < parts; ++t) {
    for (int b = 0; b < parts; ++b) {
      run->Add(t, b, std::move((*buckets)[static_cast<size_t>(t)][static_cast<size_t>(b)]),
               &core_->stats(), core_->DriverSink());
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Narrow stages
// ---------------------------------------------------------------------------

DatasetPtr SparkEngine::RunStage(const DatasetPtr& input, const SerProgram& udfs,
                                 const std::vector<NarrowOp>& ops,
                                 const BroadcastVar* broadcast) {
  StagePrograms stage = core_->CompileStage(input->klass, udfs, ops, broadcast != nullptr,
                                            broadcast != nullptr ? broadcast->klass : nullptr);
  return mode() == EngineMode::kBaseline ? RunNarrowBaseline(input, stage, broadcast)
                                         : RunNarrowGerenuk(input, stage, broadcast);
}

DatasetPtr SparkEngine::RunNarrowBaseline(const DatasetPtr& input, const StagePrograms& stage,
                                          const BroadcastVar* broadcast) {
  EngineCore& core = *core_;
  const int parts = num_partitions();
  auto out = std::make_shared<Dataset>(core.heap(), stage.out_klass, parts, &core.memory());
  std::vector<Value> args;
  if (broadcast != nullptr) {
    args.push_back(Value::Ref(static_cast<int64_t>(broadcast->heap)));
  }
  core.RunBaselineStage("narrow", parts, [&](WorkerContext& ctx, int p) {
    Interpreter interp(*stage.original, core.heap(), core.wk(), &core.layouts(), nullptr);
    size_t cursor = 0;
    const std::vector<ObjRef>& in_part = input->heap_parts[static_cast<size_t>(p)];
    std::vector<ObjRef>& out_part = out->heap_parts[static_cast<size_t>(p)];
    RecordChannel channel;
    channel.next_heap_record = [&in_part, &cursor]() { return in_part[cursor]; };
    channel.emit_heap_record = [&out_part](ObjRef ref, const Klass*) {
      out_part.push_back(ref);
    };
    interp.set_channel(&channel);
    ComputePhaseScope compute(ctx.stats().times);
    for (cursor = 0; cursor < in_part.size(); ++cursor) {
      interp.CallFunction(stage.original->body, args);
    }
  });
  return out;
}

DatasetPtr SparkEngine::RunNarrowGerenuk(const DatasetPtr& input, const StagePrograms& stage,
                                         const BroadcastVar* broadcast) {
  EngineCore& core = *core_;
  const int parts = num_partitions();
  auto out = std::make_shared<Dataset>(core.heap(), stage.out_klass, parts, &core.memory());
  const StageCodec codec = core.PartitionCodec(&out->native_parts);
  core.RunGerenukStage({"narrow", parts, stage.signature.hash, &codec}, [&](GerenukTask& task) {
    WorkerContext& ctx = task.ctx;
    SerExecutor exec(ctx.heap(), ctx.wk(), core.layouts(), *stage.original, *stage.transformed);
    NativePartition& out_part = out->native_parts[static_cast<size_t>(task.index)];
    TaskIo& io = task.io;
    io.input = &input->native_parts[static_cast<size_t>(task.index)];
    TaskBroadcast bc(ctx, broadcast);
    bc.Bind(&io);
    io.plan = stage.plan.get();
    io.emit_native = [&out_part](int64_t addr, const Klass* klass, SerRunner&,
                                 BuilderStore& builders) {
      builders.Render(addr, klass, out_part);
    };
    io.emit_heap = [&ctx, &out_part](ObjRef ref, const Klass* klass, SerRunner&) {
      TraceSpan ser_span(ctx.trace_sink(), TraceEventType::kSerialize, "serialize");
      ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
      ByteBuffer body;
      ctx.serde().WriteRecord(ref, klass, body);
      out_part.AppendRecord(body.data() + 4, static_cast<uint32_t>(body.size() - 4));
    };
    io.on_abort = [&out_part] { out_part.Release(); };
    task.Run(exec);
    out_part.Seal();
  });
  return out;
}

// ---------------------------------------------------------------------------
// Shuffles
// ---------------------------------------------------------------------------

void SparkEngine::ShuffleBaseline(const DatasetPtr& input, const StagePrograms& stage,
                                  const KeySpec& key, const CompiledFunction& key_fn,
                                  const BroadcastVar* broadcast,
                                  std::vector<std::vector<ByteBuffer>>* buckets,
                                  std::vector<std::vector<int64_t>>* bucket_counts) {
  EngineCore& core = *core_;
  const int parts = num_partitions();
  buckets->clear();
  bucket_counts->clear();
  for (int p = 0; p < parts; ++p) {
    buckets->emplace_back(static_cast<size_t>(parts));
    bucket_counts->emplace_back(static_cast<size_t>(parts), 0);
  }
  std::vector<Value> args;
  if (broadcast != nullptr) {
    args.push_back(Value::Ref(static_cast<int64_t>(broadcast->heap)));
  }
  ShuffleKey::Hash hasher;
  core.RunBaselineStage("shuffle", parts, [&](WorkerContext& ctx, int p) {
    int64_t shuffle_before = ctx.stats().shuffle_bytes;
    std::vector<ByteBuffer>& task_buckets = (*buckets)[static_cast<size_t>(p)];
    std::vector<int64_t>& task_counts = (*bucket_counts)[static_cast<size_t>(p)];
    // One interpreter per task: key extraction re-enters it from the emit.
    Interpreter interp(*stage.original, core.heap(), core.wk(), &core.layouts(), nullptr);
    size_t cursor = 0;
    const std::vector<ObjRef>& in_part = input->heap_parts[static_cast<size_t>(p)];
    RecordChannel channel;
    channel.next_heap_record = [&in_part, &cursor]() { return in_part[cursor]; };
    channel.emit_heap_record = [&core, &ctx, &interp, &key_fn, &key, &task_buckets,
                                &task_counts, &hasher](ObjRef ref, const Klass* klass) {
      ShuffleKey k = EvalShuffleKey(interp, key_fn.orig_fn,
                                    Value::Ref(static_cast<int64_t>(ref)), key.is_string);
      size_t b = hasher(k) % task_buckets.size();
      ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
      size_t before = task_buckets[b].size();
      core.kryo().Serialize(ref, klass, task_buckets[b]);
      ctx.stats().shuffle_bytes += static_cast<int64_t>(task_buckets[b].size() - before);
      task_counts[b] += 1;
    };
    interp.set_channel(&channel);
    {
      ComputePhaseScope compute(ctx.stats().times);
      for (cursor = 0; cursor < in_part.size(); ++cursor) {
        interp.CallFunction(stage.original->body, args);
      }
    }
    if (ctx.trace_sink() != nullptr) {
      ctx.trace_sink()->Counter(TraceEventType::kShuffleBytes, "shuffle_bytes",
                                ctx.stats().shuffle_bytes - shuffle_before);
    }
  });
}

void SparkEngine::ShuffleGerenuk(const DatasetPtr& input, const StagePrograms& stage,
                                 const KeySpec& key, const CompiledFunction& key_fn,
                                 const BroadcastVar* broadcast,
                                 std::vector<std::vector<NativePartition>>* buckets) {
  EngineCore& core = *core_;
  const int parts = num_partitions();
  // Per-map-task, per-bucket outputs — the analogue of map output files, so
  // an aborted task discards only its own contribution. All slots are
  // constructed here, before the fan-out, so tasks never mutate the vectors.
  buckets->clear();
  for (int p = 0; p < parts; ++p) {
    std::vector<NativePartition>& task_buckets = buckets->emplace_back();
    task_buckets.reserve(static_cast<size_t>(parts));
    for (int i = 0; i < parts; ++i) {
      task_buckets.emplace_back(&core.memory());
    }
  }
  ShuffleKey::Hash hasher;
  const StageCodec codec = BucketRowCodec(buckets, &core.memory());
  core.RunGerenukStage({"shuffle", parts, stage.signature.hash, &codec}, [&](GerenukTask& task) {
    WorkerContext& ctx = task.ctx;
    int64_t shuffle_before = ctx.stats().shuffle_bytes;
    std::vector<NativePartition>& task_buckets = (*buckets)[static_cast<size_t>(task.index)];
    SerExecutor exec(ctx.heap(), ctx.wk(), core.layouts(), *stage.original, *stage.transformed);
    TaskIo& io = task.io;
    io.input = &input->native_parts[static_cast<size_t>(task.index)];
    TaskBroadcast bc(ctx, broadcast);
    bc.Bind(&io);
    io.plan = stage.plan.get();
    if (key_fn.plan != nullptr) {
      io.extra_plans.push_back(key_fn.plan.get());
    }
    // Per-task scratch key: the string buffer survives across records,
    // so steady-state extractions allocate nothing.
    auto scratch = std::make_shared<ShuffleKey>();
    io.emit_native = [&ctx, &key_fn, &key, &task_buckets, &hasher, scratch](
                         int64_t addr, const Klass* klass, SerRunner& runner,
                         BuilderStore& builders) {
      // Key extraction runs the transformed key function directly over
      // the emitted record (committed bytes or builder).
      if (EvalShuffleKeyInto(runner, key_fn.fast_fn, Value::Addr(addr), key.is_string,
                             scratch.get())) {
        ctx.stats().key_allocs_saved += 1;
      }
      size_t b = hasher(*scratch) % task_buckets.size();
      int64_t before = task_buckets[b].bytes_used();
      builders.Render(addr, klass, task_buckets[b]);
      ctx.stats().shuffle_bytes += task_buckets[b].bytes_used() - before;
    };
    io.emit_heap = [&ctx, &key_fn, &key, &task_buckets, &hasher, scratch](
                       ObjRef ref, const Klass* klass, SerRunner& runner) {
      if (EvalShuffleKeyInto(runner, key_fn.orig_fn, Value::Ref(static_cast<int64_t>(ref)),
                             key.is_string, scratch.get())) {
        ctx.stats().key_allocs_saved += 1;
      }
      size_t b = hasher(*scratch) % task_buckets.size();
      TraceSpan ser_span(ctx.trace_sink(), TraceEventType::kSerialize, "serialize");
      ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
      ByteBuffer body;
      ctx.serde().WriteRecord(ref, klass, body);
      task_buckets[b].AppendRecord(body.data() + 4, static_cast<uint32_t>(body.size() - 4));
      ctx.stats().shuffle_bytes += static_cast<int64_t>(body.size());
    };
    io.on_abort = [&task_buckets] {
      for (NativePartition& bucket : task_buckets) {
        bucket.Release();
      }
    };
    task.Run(exec);
    for (NativePartition& bucket : task_buckets) {
      bucket.Seal();
    }
    if (ctx.trace_sink() != nullptr) {
      ctx.trace_sink()->Counter(TraceEventType::kShuffleBytes, "shuffle_bytes",
                                ctx.stats().shuffle_bytes - shuffle_before);
    }
  });
}

// ---------------------------------------------------------------------------
// ReduceByKey
// ---------------------------------------------------------------------------

DatasetPtr SparkEngine::ReduceByKey(const DatasetPtr& input, const SerProgram& udfs,
                                    const std::vector<NarrowOp>& pre_ops, const KeySpec& key,
                                    const Function* reduce_fn, const BroadcastVar* broadcast) {
  EngineCore& core = *core_;
  StagePrograms stage = core.CompileStage(input->klass, udfs, pre_ops, broadcast != nullptr,
                                          broadcast != nullptr ? broadcast->klass : nullptr);
  CompiledFunction key_c = core.CompileFn(udfs, key.fn);
  CompiledFunction reduce_c = core.CompileFn(udfs, reduce_fn);
  const Klass* rec_klass = stage.out_klass;
  const int parts = num_partitions();
  auto out = std::make_shared<Dataset>(core.heap(), rec_klass, parts, &core.memory());

  if (mode() == EngineMode::kBaseline) {
    std::vector<std::vector<ByteBuffer>> buckets;
    std::vector<std::vector<int64_t>> counts;
    ShuffleBaseline(input, stage, key, key_c, broadcast, &buckets, &counts);

    core.RunBaselineStage("reduce", parts, [&](WorkerContext& ctx, int p) {
      Heap& heap = core.heap();
      Interpreter interp(*reduce_c.original, heap, core.wk(), &core.layouts(), nullptr);
      ComputePhaseScope compute(ctx.stats().times);
      // Aggregation map: key -> index into the (GC-rooted) value vector.
      std::unordered_map<ShuffleKey, size_t, ShuffleKey::Hash> agg;
      std::vector<ObjRef> values;
      heap.AddRootVector(&values);
      for (size_t task = 0; task < buckets.size(); ++task) {
        ByteReader reader(buckets[task][static_cast<size_t>(p)].bytes());
        for (int64_t r = 0; r < counts[task][static_cast<size_t>(p)]; ++r) {
          ObjRef rec;
          {
            ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
            rec = core.kryo().Deserialize(rec_klass, reader);
          }
          RootScope scope(heap);
          size_t rec_slot = scope.Push(rec);
          ShuffleKey k = EvalShuffleKey(interp, key_c.orig_fn,
                                        Value::Ref(static_cast<int64_t>(rec)), key.is_string);
          auto it = agg.find(k);
          if (it == agg.end()) {
            agg.emplace(std::move(k), values.size());
            values.push_back(scope.Get(rec_slot));
          } else {
            Value merged = interp.CallFunction(
                reduce_c.orig_fn, {Value::Ref(static_cast<int64_t>(values[it->second])),
                                   Value::Ref(static_cast<int64_t>(scope.Get(rec_slot)))});
            values[it->second] = static_cast<ObjRef>(merged.i);
          }
        }
      }
      out->heap_parts[static_cast<size_t>(p)] = values;
      heap.RemoveRootVector(&values);
    });
    return out;
  }

  // Gerenuk mode.
  std::vector<std::vector<NativePartition>> buckets;
  ShuffleGerenuk(input, stage, key, key_c, broadcast, &buckets);
  std::unique_ptr<ShuffleRun> shuffle = OpenShuffle(&buckets);

  const StageCodec codec = core.PartitionCodec(&out->native_parts);
  core.RunGerenukStage({"reduce", parts, reduce_c.signature.hash, &codec}, [&](GerenukTask& task) {
    WorkerContext& ctx = task.ctx;
    const int p = task.index;
    NativePartition& out_part = out->native_parts[static_cast<size_t>(p)];
    TraceSink* sink = ctx.trace_sink();
    SerExecutor exec(ctx.heap(), ctx.wk(), core.layouts(), *reduce_c.original,
                     *reduce_c.transformed);
    task.io.plan = reduce_c.plan.get();
    task.io.extra_plans.push_back(key_c.plan.get());
    task.io.on_abort = [&out_part] { out_part.Release(); };
    TaskBodies bodies;
    bodies.fast = [&](FastPath& fast) {
      fast.AbortIfForcedAtEntry();
      // The reader owns the bucket's fetched (spilled) blocks, and `agg`
      // keeps addresses into them for keys seen once — so it stays open
      // until the output loop below has copied every entry out.
      BucketReader bucket = shuffle->OpenBucket(p, &ctx.stats(), sink);
      std::unordered_map<ShuffleKey, CommittedRecord, ShuffleKey::Hash> agg;
      NativePartition scratch(&core.memory());
      int64_t live_bytes = 0;
      ShuffleKey scratch_key;
      bucket.ForEachRecord([&](int64_t addr, uint32_t size) {
        fast.records_done += 1;
        if (EvalShuffleKeyInto(fast.runner, key_c.fast_fn, Value::Addr(addr), key.is_string,
                               &scratch_key)) {
          ctx.stats().key_allocs_saved += 1;
        }
        auto it = agg.find(scratch_key);
        if (it == agg.end()) {
          agg.emplace(scratch_key, CommittedRecord{addr, static_cast<int64_t>(size)});
          live_bytes += size;
          return;
        }
        live_bytes -= it->second.size;
        it->second = FoldIntoScratch(fast.runner, fast.builders, reduce_c.fast_fn, rec_klass,
                                     it->second.addr, addr, &scratch);
        live_bytes += it->second.size;
        // Compact once garbage (superseded intermediates) dominates —
        // region-based management in miniature.
        if (scratch.bytes_used() > (8 << 20) && scratch.bytes_used() > 2 * live_bytes) {
          NativePartition compacted(&core.memory());
          for (auto& [kk, entry] : agg) {
            entry.addr = compacted.AppendRecord(reinterpret_cast<const uint8_t*>(entry.addr),
                                                static_cast<uint32_t>(entry.size));
          }
          scratch = std::move(compacted);
        }
      });
      for (const auto& [kk, entry] : agg) {
        out_part.AppendRecord(reinterpret_cast<const uint8_t*>(entry.addr),
                              static_cast<uint32_t>(entry.size));
      }
    };
    bodies.slow = [&](Interpreter& interp) {
      std::unordered_map<ShuffleKey, size_t, ShuffleKey::Hash> agg;
      std::vector<ObjRef> values;
      ctx.heap().AddRootVector(&values);
      int64_t records = 0;
      shuffle->ForEachRecordInBucket(p, &ctx.stats(), sink, [&](int64_t addr, uint32_t size) {
        records += 1;
        ObjRef rec;
        {
          ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
          ByteReader reader(reinterpret_cast<const uint8_t*>(addr), size);
          rec = ctx.serde().ReadBody(rec_klass, reader);
        }
        RootScope scope(ctx.heap());
        size_t rec_slot = scope.Push(rec);
        ShuffleKey k = EvalShuffleKey(interp, key_c.orig_fn,
                                      Value::Ref(static_cast<int64_t>(rec)), key.is_string);
        auto it = agg.find(k);
        if (it == agg.end()) {
          agg.emplace(std::move(k), values.size());
          values.push_back(scope.Get(rec_slot));
        } else {
          Value merged = interp.CallFunction(
              reduce_c.orig_fn, {Value::Ref(static_cast<int64_t>(values[it->second])),
                                 Value::Ref(static_cast<int64_t>(scope.Get(rec_slot)))});
          values[it->second] = static_cast<ObjRef>(merged.i);
        }
      });
      for (ObjRef ref : values) {
        ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
        ByteBuffer body;
        ctx.serde().WriteRecord(ref, rec_klass, body);
        out_part.AppendRecord(body.data() + 4, static_cast<uint32_t>(body.size() - 4));
      }
      ctx.heap().RemoveRootVector(&values);
      return records;
    };
    task.Run(exec, bodies);
    out_part.Seal();
  });
  return out;
}

// ---------------------------------------------------------------------------
// JoinByKey
// ---------------------------------------------------------------------------

DatasetPtr SparkEngine::JoinByKey(const DatasetPtr& left, const KeySpec& left_key,
                                  const DatasetPtr& right, const KeySpec& right_key,
                                  const SerProgram& udfs, const Function* combine_fn,
                                  const Klass* out_klass) {
  EngineCore& core = *core_;
  StagePrograms left_stage = core.CompileStage(left->klass, udfs, {}, false, nullptr);
  StagePrograms right_stage = core.CompileStage(right->klass, udfs, {}, false, nullptr);
  CompiledFunction lkey = core.CompileFn(udfs, left_key.fn);
  CompiledFunction rkey = core.CompileFn(udfs, right_key.fn);
  CompiledFunction combine = core.CompileFn(udfs, combine_fn);
  const int parts = num_partitions();
  auto out = std::make_shared<Dataset>(core.heap(), out_klass, parts, &core.memory());

  if (mode() == EngineMode::kBaseline) {
    std::vector<std::vector<ByteBuffer>> lb;
    std::vector<std::vector<ByteBuffer>> rb;
    std::vector<std::vector<int64_t>> lc;
    std::vector<std::vector<int64_t>> rc;
    ShuffleBaseline(left, left_stage, left_key, lkey, nullptr, &lb, &lc);
    ShuffleBaseline(right, right_stage, right_key, rkey, nullptr, &rb, &rc);

    core.RunBaselineStage("join", parts, [&](WorkerContext& ctx, int p) {
      Heap& heap = core.heap();
      Interpreter interp(*combine.original, heap, core.wk(), &core.layouts(), nullptr);
      ComputePhaseScope compute(ctx.stats().times);
      std::unordered_map<ShuffleKey, std::vector<size_t>, ShuffleKey::Hash> table;
      std::vector<ObjRef> lvalues;
      heap.AddRootVector(&lvalues);
      for (size_t task = 0; task < lb.size(); ++task) {
        ByteReader lreader(lb[task][static_cast<size_t>(p)].bytes());
        for (int64_t r = 0; r < lc[task][static_cast<size_t>(p)]; ++r) {
          ObjRef rec;
          {
            ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
            rec = core.kryo().Deserialize(left->klass, lreader);
          }
          lvalues.push_back(rec);
          ShuffleKey k = EvalShuffleKey(interp, lkey.orig_fn,
                                        Value::Ref(static_cast<int64_t>(rec)), left_key.is_string);
          table[k].push_back(lvalues.size() - 1);
        }
      }
      std::vector<ObjRef>& out_part = out->heap_parts[static_cast<size_t>(p)];
      for (size_t task = 0; task < rb.size(); ++task) {
        ByteReader rreader(rb[task][static_cast<size_t>(p)].bytes());
        for (int64_t r = 0; r < rc[task][static_cast<size_t>(p)]; ++r) {
          ObjRef rec;
          {
            ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
            rec = core.kryo().Deserialize(right->klass, rreader);
          }
          RootScope scope(heap);
          size_t rec_slot = scope.Push(rec);
          ShuffleKey k = EvalShuffleKey(interp, rkey.orig_fn,
                                        Value::Ref(static_cast<int64_t>(rec)), right_key.is_string);
          auto it = table.find(k);
          if (it == table.end()) {
            continue;
          }
          for (size_t li : it->second) {
            Value combined = interp.CallFunction(
                combine.orig_fn, {Value::Ref(static_cast<int64_t>(lvalues[li])),
                                  Value::Ref(static_cast<int64_t>(scope.Get(rec_slot)))});
            out_part.push_back(static_cast<ObjRef>(combined.i));
          }
        }
      }
      heap.RemoveRootVector(&lvalues);
    });
    return out;
  }

  // Gerenuk mode.
  std::vector<std::vector<NativePartition>> lb;
  std::vector<std::vector<NativePartition>> rb;
  ShuffleGerenuk(left, left_stage, left_key, lkey, nullptr, &lb);
  ShuffleGerenuk(right, right_stage, right_key, rkey, nullptr, &rb);

  // Both sides go through the shuffle service. The build (left) side is
  // held open for the whole probe — its record addresses back the hash
  // table — which is exactly the hold-and-wait shape the credit gate's
  // grace timeout exists for.
  std::unique_ptr<ShuffleRun> lrun = OpenShuffle(&lb);
  std::unique_ptr<ShuffleRun> rrun = OpenShuffle(&rb);

  // The join has no slow-path route: it always runs its fast path.
  const StageCodec codec = core.PartitionCodec(&out->native_parts);
  core.RunGerenukStage({"join", parts, std::nullopt, &codec}, [&](GerenukTask& task) {
    WorkerContext& ctx = task.ctx;
    const int p = task.index;
    NativePartition& out_part = out->native_parts[static_cast<size_t>(p)];
    TraceSpan fast_span(ctx.trace_sink(), TraceEventType::kFastPath, "fast_path");
    BuilderStore builders(core.layouts());
    std::unique_ptr<SerRunner> runner =
        MakeFastRunner(combine.plan.get(), *combine.transformed, ctx.heap(), ctx.wk(),
                       &core.layouts(), &builders, {lkey.plan.get(), rkey.plan.get()});
    SerRunner& interp = *runner;
    ComputePhaseScope compute(ctx.stats().times);
    std::unordered_map<ShuffleKey, std::vector<int64_t>, ShuffleKey::Hash> table;
    ShuffleKey scratch_key;
    BucketReader build_side = lrun->OpenBucket(p, &ctx.stats(), ctx.trace_sink());
    build_side.ForEachRecord([&](int64_t addr, uint32_t /*size*/) {
      if (EvalShuffleKeyInto(interp, lkey.fast_fn, Value::Addr(addr), left_key.is_string,
                             &scratch_key)) {
        ctx.stats().key_allocs_saved += 1;
      }
      table[scratch_key].push_back(addr);
    });
    rrun->ForEachRecordInBucket(
        p, &ctx.stats(), ctx.trace_sink(), [&](int64_t addr, uint32_t /*size*/) {
          if (EvalShuffleKeyInto(interp, rkey.fast_fn, Value::Addr(addr), right_key.is_string,
                                 &scratch_key)) {
            ctx.stats().key_allocs_saved += 1;
          }
          auto it = table.find(scratch_key);
          if (it == table.end()) {
            return;
          }
          for (int64_t laddr : it->second) {
            Value combined =
                interp.CallFunction(combine.fast_fn, {Value::Addr(laddr), Value::Addr(addr)});
            builders.Render(combined.i, out_klass, out_part);
            builders.Clear();
          }
        });
    ctx.stats().fast_path_commits += 1;
    out_part.Seal();
  });
  return out;
}

// ---------------------------------------------------------------------------
// Driver-side materialization
// ---------------------------------------------------------------------------

std::vector<size_t> SparkEngine::CollectToHeap(const DatasetPtr& dataset, RootScope& scope) {
  std::vector<size_t> slots;
  if (mode() == EngineMode::kBaseline) {
    for (const auto& part : dataset->heap_parts) {
      for (ObjRef ref : part) {
        slots.push_back(scope.Push(ref));
      }
    }
    return slots;
  }
  for (const auto& part : dataset->native_parts) {
    for (size_t r = 0; r < part.record_count(); ++r) {
      ByteReader reader(reinterpret_cast<const uint8_t*>(part.record_addr(r)),
                        part.record_size(r));
      slots.push_back(scope.Push(core_->inline_serde().ReadBody(dataset->klass, reader)));
    }
  }
  return slots;
}

}  // namespace gerenuk
