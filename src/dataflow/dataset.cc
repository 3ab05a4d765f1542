#include "src/dataflow/dataset.h"

namespace gerenuk {

Dataset::Dataset(Heap& heap, const Klass* klass_in, int num_partitions, MemoryTracker* tracker)
    : klass(klass_in), heap_(heap) {
  heap_parts.resize(static_cast<size_t>(num_partitions));
  for (auto& part : heap_parts) {
    heap_.AddRootVector(&part);
  }
  native_parts.reserve(static_cast<size_t>(num_partitions));
  for (int i = 0; i < num_partitions; ++i) {
    native_parts.emplace_back(tracker);
  }
}

Dataset::~Dataset() {
  // Newest registration first: RemoveRootVector searches from the back.
  for (auto it = heap_parts.rbegin(); it != heap_parts.rend(); ++it) {
    heap_.RemoveRootVector(&*it);
  }
}

int64_t Dataset::TotalRecords() const {
  int64_t total = 0;
  for (const auto& part : heap_parts) {
    total += static_cast<int64_t>(part.size());
  }
  for (const auto& part : native_parts) {
    total += static_cast<int64_t>(part.record_count());
  }
  return total;
}

int64_t Dataset::TotalBytes() const {
  int64_t total = 0;
  for (const auto& part : native_parts) {
    total += part.bytes_used();
  }
  return total;
}

DatasetPtr MakeSourceDataset(Heap& heap, InlineSerializer& serde, MemoryTracker* tracker,
                             EngineMode mode, const Klass* klass, int num_partitions,
                             int64_t count,
                             const std::function<ObjRef(int64_t, RootScope&)>& make) {
  auto dataset = std::make_shared<Dataset>(heap, klass, num_partitions, tracker);
  RootScope scope(heap);  // `make`'s slots, dropped after every record
  if (mode == EngineMode::kBaseline) {
    for (int64_t i = 0; i < count; ++i) {
      ObjRef record = make(i, scope);
      dataset->heap_parts[static_cast<size_t>(i % num_partitions)].push_back(record);
      scope.Clear();
    }
    return dataset;
  }
  // Gerenuk keeps only the record's bytes. Its objects are scratch: nothing
  // allocates between `make` and serialization, so once the bytes are in the
  // partition the objects are rewound off eden instead of left for the GC.
  // A record whose objects escaped, moved or tenured is not rewound (the
  // heap refuses) and stays ordinary garbage.
  ByteBuffer bytes;
  for (int64_t i = 0; i < count; ++i) {
    Heap::ScratchMark mark = heap.MarkScratch();
    ObjRef record = make(i, scope);
    bytes.Clear();
    serde.WriteRecord(record, klass, bytes);
    dataset->native_parts[static_cast<size_t>(i % num_partitions)].AppendRecord(
        bytes.data() + 4, static_cast<uint32_t>(bytes.size() - 4));
    scope.Clear();
    heap.RewindScratch(mark);
  }
  return dataset;
}

ShuffleKey EvalShuffleKey(SerRunner& runner, const Function* key_fn, Value record,
                          bool is_string) {
  ShuffleKey key;
  EvalShuffleKeyInto(runner, key_fn, record, is_string, &key);
  return key;
}

bool EvalShuffleKeyInto(SerRunner& runner, const Function* key_fn, Value record,
                        bool is_string, ShuffleKey* key) {
  key->is_string = is_string;
  Value v = runner.CallFunction(key_fn, {record});
  if (is_string) {
    size_t capacity_before = key->s.capacity();
    runner.ReadStringBytes(v, &key->s);
    return key->s.capacity() == capacity_before;
  }
  key->s.clear();
  key->i = v.tag == ValueTag::kF64 ? static_cast<int64_t>(v.d) : v.i;
  return false;
}

}  // namespace gerenuk
