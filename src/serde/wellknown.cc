#include "src/serde/wellknown.h"

#include <cstring>

#include "src/runtime/roots.h"

namespace gerenuk {

WellKnown::WellKnown(Heap& heap) : heap_(heap) {
  KlassRegistry& reg = heap.klasses();
  byte_array_ = reg.DefineArray(FieldKind::kI8);
  int_array_ = reg.DefineArray(FieldKind::kI32);
  long_array_ = reg.DefineArray(FieldKind::kI64);
  double_array_ = reg.DefineArray(FieldKind::kF64);
  auto define_once = [&reg](const std::string& name,
                            std::vector<FieldInfo> fields) -> const Klass* {
    if (const Klass* existing = reg.Find(name)) {
      return existing;
    }
    return reg.DefineClass(name, std::move(fields));
  };
  // Strings carry a byte payload, as Hadoop Text / compact JVM strings do.
  string_ = define_once("String", {{"value", FieldKind::kRef, byte_array_, 0}});
  boxed_int_ = define_once("Integer", {{"value", FieldKind::kI32, nullptr, 0}});
  boxed_long_ = define_once("Long", {{"value", FieldKind::kI64, nullptr, 0}});
  boxed_double_ = define_once("Double", {{"value", FieldKind::kF64, nullptr, 0}});
  string_value_ = string_->FindField("value")->offset;
  boxed_int_value_ = boxed_int_->FindField("value")->offset;
  boxed_long_value_ = boxed_long_->FindField("value")->offset;
  boxed_double_value_ = boxed_double_->FindField("value")->offset;
}

ObjRef WellKnown::AllocString(std::string_view text) const {
  RootScope scope(heap_);
  size_t arr_slot = scope.Push(heap_.AllocArray(byte_array_, static_cast<int64_t>(text.size())));
  if (!text.empty()) {
    std::memcpy(heap_.PrimArrayData(scope.Get(arr_slot)), text.data(), text.size());
  }
  ObjRef str = heap_.AllocObject(string_);
  heap_.SetRef(str, string_value_, scope.Get(arr_slot));
  return str;
}

std::string WellKnown::GetString(ObjRef str) const {
  ObjRef arr = heap_.GetRef(str, string_value_);
  GERENUK_CHECK_NE(arr, kNullRef);
  const uint8_t* bytes = heap_.PrimArrayData(arr);
  return std::string(reinterpret_cast<const char*>(bytes),
                     static_cast<size_t>(heap_.ArrayLength(arr)));
}

int32_t WellKnown::StringLength(ObjRef str) const {
  ObjRef arr = heap_.GetRef(str, string_value_);
  GERENUK_CHECK_NE(arr, kNullRef);
  return static_cast<int32_t>(heap_.ArrayLength(arr));
}

ObjRef WellKnown::AllocBoxedInt(int32_t v) const {
  ObjRef box = heap_.AllocObject(boxed_int_);
  heap_.SetPrim<int32_t>(box, boxed_int_value_, v);
  return box;
}

ObjRef WellKnown::AllocBoxedLong(int64_t v) const {
  ObjRef box = heap_.AllocObject(boxed_long_);
  heap_.SetPrim<int64_t>(box, boxed_long_value_, v);
  return box;
}

ObjRef WellKnown::AllocBoxedDouble(double v) const {
  ObjRef box = heap_.AllocObject(boxed_double_);
  heap_.SetPrim<double>(box, boxed_double_value_, v);
  return box;
}

int32_t WellKnown::UnboxInt(ObjRef box) const {
  return heap_.GetPrim<int32_t>(box, boxed_int_value_);
}

int64_t WellKnown::UnboxLong(ObjRef box) const {
  return heap_.GetPrim<int64_t>(box, boxed_long_value_);
}

double WellKnown::UnboxDouble(ObjRef box) const {
  return heap_.GetPrim<double>(box, boxed_double_value_);
}

const Klass* WellKnown::DefineTuple2(const std::string& name, FieldKind first_kind,
                                     const Klass* first_klass, FieldKind second_kind,
                                     const Klass* second_klass) const {
  if (const Klass* existing = heap_.klasses().Find(name)) {
    return existing;
  }
  return heap_.klasses().DefineClass(name, {
                                               {"_1", first_kind, first_klass, 0},
                                               {"_2", second_kind, second_klass, 0},
                                           });
}

}  // namespace gerenuk
