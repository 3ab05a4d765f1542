#include "src/mapreduce/hadoop.h"

#include <algorithm>
#include <string>

namespace gerenuk {

// Per reducer partition: records in key order, with the keys alongside.
// Baseline keeps Kryo bytes; Gerenuk keeps native records.
struct MapSegment {
  std::vector<std::vector<ShuffleKey>> keys;    // per partition, sorted
  std::vector<ByteBuffer> wire;                 // kBaseline: concatenated records
  std::vector<std::vector<size_t>> wire_offsets;
  std::vector<NativePartition> native;          // kGerenuk

  MapSegment(int partitions, MemoryTracker* tracker, EngineMode mode) {
    keys.resize(static_cast<size_t>(partitions));
    if (mode == EngineMode::kBaseline) {
      wire.resize(static_cast<size_t>(partitions));
      wire_offsets.resize(static_cast<size_t>(partitions));
    } else {
      native.reserve(static_cast<size_t>(partitions));
      for (int i = 0; i < partitions; ++i) {
        native.emplace_back(tracker);
      }
    }
  }
};

namespace {

// One map-side sort-buffer entry: where the serialized/native record lives
// and how it routes.
struct BufferEntry {
  int part;
  ShuffleKey key;
  size_t offset;  // kBaseline: offset into the task's wire buffer
  size_t length;
  int64_t addr;   // kGerenuk: committed record address in the task region
  uint32_t size;
};

bool EntryOrder(const BufferEntry& a, const BufferEntry& b) {
  if (a.part != b.part) {
    return a.part < b.part;
  }
  return a.key < b.key;
}

// Calls fn(i, j) for every maximal run [i, j) of adjacent items `same`
// considers equal.
template <typename T, typename Same, typename Fn>
void ForEachRun(const std::vector<T>& items, const Same& same, const Fn& fn) {
  size_t i = 0;
  while (i < items.size()) {
    size_t j = i + 1;
    while (j < items.size() && same(items[i], items[j])) {
      ++j;
    }
    fn(i, j);
    i = j;
  }
}

// Sorts a map task's buffered emits and calls fn(i, j) per (reducer, key)
// run.
template <typename Fn>
void ForEachSortedRun(std::vector<BufferEntry>* entries, const Fn& fn) {
  std::sort(entries->begin(), entries->end(), EntryOrder);
  ForEachRun(*entries,
             [](const BufferEntry& a, const BufferEntry& b) {
               return a.part == b.part && a.key == b.key;
             },
             fn);
}

// One record of a reducer's merged input: an index into a segment's run.
struct SegRef {
  const MapSegment* segment;
  size_t index;
};

// Gathers reducer `r`'s runs from every segment, sorted by key. Segments
// are complete and read-only by then (the map-stage barrier), so reduce
// tasks may build this concurrently.
std::vector<SegRef> MergedRefs(const std::vector<MapSegment>& segments, int r) {
  const size_t part = static_cast<size_t>(r);
  std::vector<SegRef> refs;
  for (const MapSegment& segment : segments) {
    for (size_t i = 0; i < segment.keys[part].size(); ++i) {
      refs.push_back({&segment, i});
    }
  }
  std::sort(refs.begin(), refs.end(), [part](const SegRef& a, const SegRef& b) {
    return a.segment->keys[part][a.index] < b.segment->keys[part][b.index];
  });
  return refs;
}

// Calls fn(i, j) for every equal-key group [i, j) of reducer `r`'s refs.
template <typename Fn>
void ForEachKeyGroup(const std::vector<SegRef>& refs, int r, const Fn& fn) {
  const size_t part = static_cast<size_t>(r);
  ForEachRun(refs,
             [part](const SegRef& a, const SegRef& b) {
               return a.segment->keys[part][a.index] == b.segment->keys[part][b.index];
             },
             fn);
}

// Process-mode wire codec for the Gerenuk map stage: a map task's output is
// its ordered segment list — per segment, per reducer partition, the sorted
// key run ({u8 is_string, i64 i, varlen string}) followed by the
// partition's native record bytes (self-delimiting trailer). Hadoop's map
// output stays resident in segments (the IFile analogue that reducers merge
// with the key runs alongside the bytes), so it ships whole over the
// executor channel rather than routing through the spilling ShuffleRun.
StageCodec SegmentListCodec(std::vector<std::vector<MapSegment>>* task_segments, int reducers,
                            MemoryTracker* memory) {
  StageCodec codec;
  codec.encode = [task_segments, reducers](int task, ByteBuffer* out) {
    const std::vector<MapSegment>& list = (*task_segments)[static_cast<size_t>(task)];
    out->WriteU32(static_cast<uint32_t>(list.size()));
    for (const MapSegment& segment : list) {
      for (int r = 0; r < reducers; ++r) {
        const std::vector<ShuffleKey>& ks = segment.keys[static_cast<size_t>(r)];
        out->WriteU32(static_cast<uint32_t>(ks.size()));
        for (const ShuffleKey& k : ks) {
          out->WriteU8(k.is_string ? 1 : 0);
          out->WriteI64(k.i);
          out->WriteString(k.s);
        }
        segment.native[static_cast<size_t>(r)].SerializeTo(*out);
      }
    }
  };
  codec.decode = [task_segments, reducers, memory](int task, ByteReader* in) {
    // Fail closed on structural damage: guard every length against the
    // frame's remaining bytes before reading (ByteReader itself aborts on
    // overrun), and reclassify as the non-retryable kCorruptInput.
    auto require = [task](bool ok) {
      if (!ok) {
        throw TaskError(TaskErrorKind::kCorruptInput, task, 1, 0,
                        "map segment wire bytes truncated or over-long");
      }
    };
    // ByteReader::ReadString aborts on an over-long varlen; decode the
    // prefix by hand so a damaged length fails closed instead.
    auto read_string = [&require](ByteReader* in) {
      uint32_t len = 0;
      int shift = 0;
      while (true) {
        require(in->remaining() >= 1);
        uint8_t byte = in->ReadU8();
        len |= static_cast<uint32_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
          break;
        }
        shift += 7;
        require(shift <= 28);
      }
      require(len <= in->remaining());
      std::string s(len, '\0');
      if (len > 0) {
        in->ReadBytes(&s[0], len);
      }
      return s;
    };
    std::vector<MapSegment>& list = (*task_segments)[static_cast<size_t>(task)];
    list.clear();
    try {
      require(in->remaining() >= 4);
      uint32_t num_segments = in->ReadU32();
      for (uint32_t s = 0; s < num_segments; ++s) {
        require(in->remaining() >= 4);  // a segment is at least one key count
        MapSegment segment(reducers, memory, EngineMode::kGerenuk);
        for (int r = 0; r < reducers; ++r) {
          require(in->remaining() >= 4);
          uint32_t num_keys = in->ReadU32();
          // Each key is >= 10 bytes (u8 + i64 + 1-byte varlen).
          require(num_keys <= in->remaining() / 10);
          std::vector<ShuffleKey>& ks = segment.keys[static_cast<size_t>(r)];
          ks.resize(num_keys);
          for (uint32_t k = 0; k < num_keys; ++k) {
            require(in->remaining() >= 10);
            ks[k].is_string = in->ReadU8() != 0;
            ks[k].i = in->ReadI64();
            ks[k].s = read_string(in);
          }
          segment.native[static_cast<size_t>(r)] = NativePartition::Parse(*in, memory);
        }
        list.push_back(std::move(segment));
      }
    } catch (const WireFormatError& e) {
      throw TaskError(TaskErrorKind::kCorruptInput, task, 1, 0,
                      std::string("map segment failed wire parse: ") + e.what());
    }
  };
  return codec;
}

// One validation gate for the whole config, crossed before the core (which
// consumes the engine knobs) is built.
const HadoopConfig& ValidatedHadoopConfig(const HadoopConfig& config) {
  const std::string error = config.Validate();
  GERENUK_CHECK(error.empty()) << "invalid HadoopConfig: " << error;
  return config;
}

}  // namespace

HadoopEngine::HadoopEngine(const HadoopConfig& config)
    : HadoopEngine(std::make_shared<EngineCore>(ValidatedHadoopConfig(config).engine), config) {}

HadoopEngine::HadoopEngine(std::shared_ptr<EngineCore> core, const HadoopConfig& config)
    : EngineFrontEnd(std::move(core)), config_(config) {
  config_.engine = core_->config();
  ValidatedHadoopConfig(config_);
}

HadoopEngine::~HadoopEngine() = default;

DatasetPtr HadoopEngine::RunJob(const DatasetPtr& input, const SerProgram& udfs,
                                const Function* map_fn, const Klass* out_klass,
                                const KeySpec& key, const Function* reduce_fn,
                                const Function* combiner_fn) {
  JobPrograms job;
  job.map = core_->CompileStage(input->klass, udfs, {NarrowOp::FlatMap(map_fn, out_klass)},
                                false, nullptr);
  job.key = core_->CompileFn(udfs, key.fn);
  job.reduce = core_->CompileFn(udfs, reduce_fn);
  if (combiner_fn != nullptr) {
    job.combine = core_->CompileFn(udfs, combiner_fn);
  }
  job.key_spec = key;
  job.out_klass = out_klass;
  job.has_combiner = combiner_fn != nullptr;
  if (mode() == EngineMode::kBaseline) {
    return ReduceBaseline(MapBaseline(input, job), job);
  }
  return ReduceGerenuk(MapGerenuk(input, job), job);
}

// ---------------------------------------------------------------------------
// Map phase (sort/spill/combine)
// ---------------------------------------------------------------------------

std::vector<MapSegment> HadoopEngine::MapBaseline(const DatasetPtr& input,
                                                  const JobPrograms& job) {
  EngineCore& core = *core_;
  Heap& heap = core.heap();
  const int reducers = config_.num_reducers;
  std::vector<MapSegment> segments;
  ShuffleKey::Hash hasher;
  // One map task per input split: chained jobs feed a previous job's output
  // in, whose partition count is the previous reducer count.
  const int map_tasks = static_cast<int>(input->heap_parts.size());
  core.RunBaselineStage("map", map_tasks, [&](WorkerContext& ctx, int task) {
    ctx.stats().map_tasks += 1;
    int64_t shuffle_before = ctx.stats().shuffle_bytes;
    if (config_.yak_epochs) {
      heap.EpochStart();  // Yak: data objects of this task go to a region
    }
    // One interpreter per task: key extraction and the combiner re-enter it
    // from the emit.
    Interpreter interp(*job.map.original, heap, core.wk(), &core.layouts(), nullptr);
    ByteBuffer buffer;
    std::vector<BufferEntry> entries;

    auto spill = [&]() {
      if (entries.empty()) {
        return;
      }
      ctx.stats().spills += 1;
      MapSegment segment(reducers, &core.memory(), EngineMode::kBaseline);
      ForEachSortedRun(&entries, [&](size_t i, size_t j) {
        const size_t part = static_cast<size_t>(entries[i].part);
        ByteBuffer& out = segment.wire[part];
        if (job.has_combiner && j - i > 1) {
          // Combine the run: deserialize, fold, re-serialize (the cost
          // Hadoop pays for map-side combining).
          RootScope scope(heap);
          size_t acc = 0;
          for (size_t r = i; r < j; ++r) {
            ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
            ByteReader reader(buffer.data() + entries[r].offset, entries[r].length);
            size_t rec = scope.Push(core.kryo().Deserialize(job.out_klass, reader));
            if (r == i) {
              acc = rec;
            } else {
              ctx.stats().combine_calls += 1;
              Value merged = interp.CallFunction(
                  job.combine.orig_fn, {Value::Ref(static_cast<int64_t>(scope.Get(acc))),
                                        Value::Ref(static_cast<int64_t>(scope.Get(rec)))});
              scope.Set(acc, static_cast<ObjRef>(merged.i));
            }
          }
          ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
          segment.keys[part].push_back(entries[i].key);
          segment.wire_offsets[part].push_back(out.size());
          core.kryo().Serialize(scope.Get(acc), job.out_klass, out);
        } else {
          for (size_t r = i; r < j; ++r) {
            segment.keys[part].push_back(entries[r].key);
            segment.wire_offsets[part].push_back(out.size());
            out.WriteBytes(buffer.data() + entries[r].offset, entries[r].length);
          }
        }
      });
      for (const ByteBuffer& out : segment.wire) {
        ctx.stats().shuffle_bytes += static_cast<int64_t>(out.size());
      }
      segments.push_back(std::move(segment));  // serial stage: task order
      buffer.Clear();
      entries.clear();
    };

    size_t cursor = 0;
    const std::vector<ObjRef>& in_part = input->heap_parts[static_cast<size_t>(task)];
    RecordChannel channel;
    channel.next_heap_record = [&in_part, &cursor]() { return in_part[cursor]; };
    channel.emit_heap_record = [&](ObjRef ref, const Klass* klass) {
      ShuffleKey k = EvalShuffleKey(interp, job.key.orig_fn,
                                    Value::Ref(static_cast<int64_t>(ref)), job.key_spec.is_string);
      int part = static_cast<int>(hasher(k) % static_cast<size_t>(reducers));
      ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
      size_t offset = buffer.size();
      core.kryo().Serialize(ref, klass, buffer);
      entries.push_back({part, std::move(k), offset, buffer.size() - offset, 0, 0});
    };
    interp.set_channel(&channel);
    {
      ComputePhaseScope compute(ctx.stats().times);
      for (cursor = 0; cursor < in_part.size(); ++cursor) {
        interp.CallFunction(job.map.original->body, {});
        if (buffer.size() > config_.sort_buffer_bytes) {
          spill();
        }
      }
      spill();
      if (config_.yak_epochs) {
        heap.EpochEnd();  // Yak's cleanup(): whole-region reclamation
      }
    }
    if (ctx.trace_sink() != nullptr) {
      ctx.trace_sink()->Counter(TraceEventType::kShuffleBytes, "shuffle_bytes",
                                ctx.stats().shuffle_bytes - shuffle_before);
    }
  });
  return segments;
}

// Native records throughout. Tasks fan out to the worker pool; each task
// spills into its own segment list (the analogue of per-task map output
// files), merged in task order at the barrier so the reduce input is
// identical for every worker count.
std::vector<MapSegment> HadoopEngine::MapGerenuk(const DatasetPtr& input,
                                                 const JobPrograms& job) {
  EngineCore& core = *core_;
  const int reducers = config_.num_reducers;
  const int map_tasks = static_cast<int>(input->native_parts.size());
  std::vector<std::vector<MapSegment>> task_segments(static_cast<size_t>(map_tasks));
  const StageCodec codec = SegmentListCodec(&task_segments, reducers, &core.memory());
  ShuffleKey::Hash hasher;
  const CompiledFunction& combine = job.has_combiner ? job.combine : job.key;
  core.RunGerenukStage({"map", map_tasks, job.map.signature.hash, &codec}, [&](GerenukTask& task) {
    WorkerContext& ctx = task.ctx;
    ctx.stats().map_tasks += 1;
    int64_t shuffle_before = ctx.stats().shuffle_bytes;
    std::vector<MapSegment>& local_segments = task_segments[static_cast<size_t>(task.index)];
    SerExecutor exec(ctx.heap(), ctx.wk(), core.layouts(), *job.map.original,
                     *job.map.transformed);
    auto region = std::make_unique<NativePartition>(&core.memory());  // map output region
    std::vector<BufferEntry> entries;
    // Set after an abort (see below) and on governor-degraded routing.
    bool skip_combiner = !task.speculate;

    auto spill = [&]() {
      if (entries.empty()) {
        return;
      }
      ctx.stats().spills += 1;
      MapSegment segment(reducers, &core.memory(), EngineMode::kGerenuk);
      BuilderStore builders(core.layouts());
      std::unique_ptr<SerRunner> combine_runner =
          MakeFastRunner(combine.plan.get(), *combine.transformed, ctx.heap(), ctx.wk(),
                         &core.layouts(), &builders);
      SerRunner& combine_interp = *combine_runner;
      ForEachSortedRun(&entries, [&](size_t i, size_t j) {
        const size_t part = static_cast<size_t>(entries[i].part);
        NativePartition& out = segment.native[part];
        bool combined = false;
        if (job.has_combiner && !skip_combiner && j - i > 1) {
          try {
            // Intermediates die with the map output region after this spill.
            CommittedRecord acc{entries[i].addr, entries[i].size};
            for (size_t r = i + 1; r < j; ++r) {
              ctx.stats().combine_calls += 1;
              acc = FoldIntoScratch(combine_interp, builders, combine.fast_fn, job.out_klass,
                                    acc.addr, entries[r].addr, region.get());
            }
            segment.keys[part].push_back(entries[i].key);
            out.AppendRecord(reinterpret_cast<const uint8_t*>(acc.addr),
                             static_cast<uint32_t>(acc.size));
            combined = true;
          } catch (const SerAbort& abort) {
            // The combine fold, not the map task, aborted: keep correctness,
            // drop the optimization.
            SpecOutcome dropped;
            RecordAbort(abort, ctx.trace_sink(), &dropped);
            ctx.stats().aborts += dropped.aborts;
            skip_combiner = true;
          }
        }
        if (!combined) {
          for (size_t r = i; r < j; ++r) {
            segment.keys[part].push_back(entries[r].key);
            out.AppendRecord(reinterpret_cast<const uint8_t*>(entries[r].addr), entries[r].size);
          }
        }
      });
      for (const NativePartition& out : segment.native) {
        ctx.stats().shuffle_bytes += out.bytes_used();
      }
      local_segments.push_back(std::move(segment));
      // Region-based reclamation: the spilled map outputs die wholesale.
      *region = NativePartition(&core.memory());
      entries.clear();
    };

    TaskIo& io = task.io;
    io.input = &input->native_parts[static_cast<size_t>(task.index)];
    io.plan = job.map.plan.get();
    if (job.key.plan != nullptr) {
      io.extra_plans.push_back(job.key.plan.get());
    }
    // Scratch key: extraction reuses the string buffer; the per-entry
    // copy below is unavoidable (entries own their keys), but the
    // extraction-side allocation is saved once the buffer warms up.
    auto scratch_key = std::make_shared<ShuffleKey>();
    // Buffers one emitted record, committed in the region and keyed by
    // `scratch_key`; spills once the region passes the sort buffer.
    auto buffer_entry = [&, scratch_key](int64_t committed, int64_t size) {
      int part = static_cast<int>(hasher(*scratch_key) % static_cast<size_t>(reducers));
      entries.push_back({part, *scratch_key, 0, 0, committed, static_cast<uint32_t>(size)});
      if (region->bytes_used() > static_cast<int64_t>(config_.sort_buffer_bytes)) {
        spill();
      }
    };
    io.emit_native = [&, scratch_key](int64_t addr, const Klass* klass, SerRunner& interp,
                                      BuilderStore& builders) {
      if (EvalShuffleKeyInto(interp, job.key.fast_fn, Value::Addr(addr), job.key_spec.is_string,
                             scratch_key.get())) {
        ctx.stats().key_allocs_saved += 1;
      }
      int64_t before = region->bytes_used();
      int64_t committed = builders.Render(addr, klass, *region);
      buffer_entry(committed, region->bytes_used() - before - 4);
    };
    // Slow path after an abort: records come off the heap but stay in
    // native form for the shuffle. Key extraction runs on the slow path's
    // own interpreter, as the fast path's does on its runner.
    io.emit_heap = [&, scratch_key](ObjRef ref, const Klass* klass, SerRunner& interp) {
      if (EvalShuffleKeyInto(interp, job.key.orig_fn, Value::Ref(static_cast<int64_t>(ref)),
                             job.key_spec.is_string, scratch_key.get())) {
        ctx.stats().key_allocs_saved += 1;
      }
      ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
      ByteBuffer record;
      ctx.serde().WriteRecord(ref, klass, record);
      const uint32_t size = static_cast<uint32_t>(record.size() - 4);
      buffer_entry(region->AppendRecord(record.data() + 4, size), size);
    };
    io.on_abort = [&] {
      // Tear down everything this task produced: unspilled entries, the
      // output region, and its already-spilled segments. Sibling tasks'
      // segments live in their own lists and are untouched.
      entries.clear();
      *region = NativePartition(&core.memory());
      local_segments.clear();
      skip_combiner = true;
    };
    // Governor-degraded routing runs the original program directly; emits
    // route through the same spill machinery either way.
    task.Run(exec);
    {
      ComputePhaseScope compute(ctx.stats().times);
      spill();
    }
    if (ctx.trace_sink() != nullptr) {
      ctx.trace_sink()->Counter(TraceEventType::kShuffleBytes, "shuffle_bytes",
                                ctx.stats().shuffle_bytes - shuffle_before);
    }
  });
  std::vector<MapSegment> segments;
  for (std::vector<MapSegment>& list : task_segments) {
    for (MapSegment& segment : list) {
      segments.push_back(std::move(segment));
    }
  }
  return segments;
}

// ---------------------------------------------------------------------------
// Reduce phase (merge/group/fold)
// ---------------------------------------------------------------------------

DatasetPtr HadoopEngine::ReduceBaseline(const std::vector<MapSegment>& segments,
                                        const JobPrograms& job) {
  EngineCore& core = *core_;
  Heap& heap = core.heap();
  const int reducers = config_.num_reducers;
  auto out = std::make_shared<Dataset>(heap, job.out_klass, reducers, &core.memory());
  core.RunBaselineStage("reduce", reducers, [&](WorkerContext& ctx, int r) {
    ctx.stats().reduce_tasks += 1;
    const size_t part = static_cast<size_t>(r);
    std::vector<SegRef> refs = MergedRefs(segments, r);
    Interpreter reduce_interp(*job.reduce.original, heap, core.wk(), &core.layouts(), nullptr);
    if (config_.yak_epochs) {
      heap.EpochStart();
    }
    ComputePhaseScope compute(ctx.stats().times);
    std::vector<ObjRef>& out_part = out->heap_parts[part];
    ForEachKeyGroup(refs, r, [&](size_t i, size_t j) {
      RootScope scope(heap);
      size_t acc = 0;
      for (size_t v = i; v < j; ++v) {
        const MapSegment& seg = *refs[v].segment;
        ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
        const ByteBuffer& wire = seg.wire[part];
        size_t off = seg.wire_offsets[part][refs[v].index];
        ByteReader reader(wire.data() + off, wire.size() - off);
        size_t rec = scope.Push(core.kryo().Deserialize(job.out_klass, reader));
        if (v == i) {
          acc = rec;
        } else {
          Value merged = reduce_interp.CallFunction(
              job.reduce.orig_fn, {Value::Ref(static_cast<int64_t>(scope.Get(acc))),
                                   Value::Ref(static_cast<int64_t>(scope.Get(rec)))});
          scope.Set(acc, static_cast<ObjRef>(merged.i));
        }
      }
      // Final output write ("HDFS"): the baseline serializes once more.
      {
        ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
        ByteBuffer sink;
        core.kryo().Serialize(scope.Get(acc), job.out_klass, sink);
      }
      out_part.push_back(scope.Get(acc));
    });
    if (config_.yak_epochs) {
      heap.EpochEnd();  // output records escape via out_part's roots
    }
  });
  return out;
}

// One task per reducer, fanned out to the worker pool. The reducer task is
// the fold unit, as every other stage's task is: its fast body folds every
// key group on committed records, and an abort re-runs the whole task on
// the slow path.
DatasetPtr HadoopEngine::ReduceGerenuk(const std::vector<MapSegment>& segments,
                                       const JobPrograms& job) {
  EngineCore& core = *core_;
  const int reducers = config_.num_reducers;
  auto out = std::make_shared<Dataset>(core.heap(), job.out_klass, reducers, &core.memory());
  const StageCodec codec = core.PartitionCodec(&out->native_parts);
  core.RunGerenukStage({"reduce", reducers, job.reduce.signature.hash, &codec},
                       [&](GerenukTask& task) {
    WorkerContext& ctx = task.ctx;
    const int r = task.index;
    const size_t part = static_cast<size_t>(r);
    ctx.stats().reduce_tasks += 1;
    const std::vector<SegRef> refs = MergedRefs(segments, r);
    NativePartition& out_part = out->native_parts[part];
    auto record_of = [part](const SegRef& ref) {
      const NativePartition& run = ref.segment->native[part];
      return CommittedRecord{run.record_addr(ref.index), run.record_size(ref.index)};
    };
    SerExecutor exec(ctx.heap(), ctx.wk(), core.layouts(), *job.reduce.original,
                     *job.reduce.transformed);
    task.io.plan = job.reduce.plan.get();
    task.io.on_abort = [&out_part] { out_part.Release(); };
    TaskBodies bodies;
    bodies.fast = [&](FastPath& fast) {
      fast.AbortIfForcedAtEntry();
      NativePartition scratch(&core.memory());
      ForEachKeyGroup(refs, r, [&](size_t i, size_t j) {
        CommittedRecord acc = record_of(refs[i]);
        for (size_t v = i + 1; v < j; ++v) {
          acc = FoldIntoScratch(fast.runner, fast.builders, job.reduce.fast_fn, job.out_klass,
                                acc.addr, record_of(refs[v]).addr, &scratch);
        }
        out_part.AppendRecord(reinterpret_cast<const uint8_t*>(acc.addr),
                              static_cast<uint32_t>(acc.size));
        fast.records_done += static_cast<int64_t>(j - i);
        // The group's result is copied out, so nothing in scratch is live:
        // Spark's compaction rule reduces to freeing it past 8 MiB.
        if (scratch.bytes_used() > (8 << 20)) {
          scratch.Release();
        }
      });
    };
    bodies.slow = [&](Interpreter& interp) {
      ForEachKeyGroup(refs, r, [&](size_t i, size_t j) {
        RootScope scope(ctx.heap());
        size_t acc = 0;
        for (size_t v = i; v < j; ++v) {
          ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
          const CommittedRecord in = record_of(refs[v]);
          ByteReader reader(reinterpret_cast<const uint8_t*>(in.addr),
                            static_cast<size_t>(in.size));
          size_t rec = scope.Push(ctx.serde().ReadBody(job.out_klass, reader));
          if (v == i) {
            acc = rec;
          } else {
            Value merged = interp.CallFunction(
                job.reduce.orig_fn, {Value::Ref(static_cast<int64_t>(scope.Get(acc))),
                                     Value::Ref(static_cast<int64_t>(scope.Get(rec)))});
            scope.Set(acc, static_cast<ObjRef>(merged.i));
          }
        }
        ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
        ByteBuffer record;
        ctx.serde().WriteRecord(scope.Get(acc), job.out_klass, record);
        out_part.AppendRecord(record.data() + 4, static_cast<uint32_t>(record.size() - 4));
      });
      return static_cast<int64_t>(refs.size());
    };
    task.Run(exec, bodies);
    out_part.Seal();
  });
  return out;
}

}  // namespace gerenuk
