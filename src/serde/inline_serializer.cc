#include "src/serde/inline_serializer.h"

#include "src/runtime/roots.h"

namespace gerenuk {

namespace {
constexpr int kMaxDepth = 64;
}  // namespace

int64_t InlineSerializer::BodySize(ObjRef root, const Klass* klass) {
  GERENUK_CHECK(root != kNullRef) << "inline format cannot represent null (" << klass->name()
                                  << ")";
  if (klass->is_array()) {
    int64_t len = heap_.ArrayLength(root);
    if (klass->element_kind() != FieldKind::kRef) {
      return 4 + len * klass->element_size();
    }
    // Record elements of variable-size classes carry a per-element size
    // prefix (the paper's "special field storing the size of the entire data
    // structure"), which is what makes skipping over records possible.
    bool fixed = KlassHasFixedInlineSize(klass->element_klass());
    int64_t total = 4;
    for (int64_t i = 0; i < len; ++i) {
      total += (fixed ? 0 : 4) + BodySize(heap_.AGetRef(root, i), klass->element_klass());
    }
    return total;
  }
  int64_t total = 0;
  for (const FieldInfo& field : klass->fields()) {
    if (field.kind != FieldKind::kRef) {
      total += FieldKindSize(field.kind);
    } else {
      total += BodySize(heap_.GetRef(root, field.offset), field.target);
    }
  }
  return total;
}

void InlineSerializer::WriteRecord(ObjRef root, const Klass* klass, ByteBuffer& out) {
  size_t size_pos = out.size();
  out.WriteU32(0);
  size_t body_start = out.size();
  WriteBody(root, klass, out, 0);
  out.PatchU32(size_pos, static_cast<uint32_t>(out.size() - body_start));
}

void InlineSerializer::WriteBody(ObjRef obj, const Klass* klass, ByteBuffer& out, int depth) {
  GERENUK_CHECK_LT(depth, kMaxDepth);
  GERENUK_CHECK(obj != kNullRef) << "inline format cannot represent null (" << klass->name()
                                 << ")";
  if (klass->is_array()) {
    int64_t len = heap_.ArrayLength(obj);
    out.WriteI32(static_cast<int32_t>(len));
    if (klass->element_kind() != FieldKind::kRef) {
      // The inline element encoding is the heap's: one block copy.
      out.WriteBytes(heap_.PrimArrayData(obj),
                     static_cast<size_t>(len) * static_cast<size_t>(klass->element_size()));
      return;
    }
    bool fixed = KlassHasFixedInlineSize(klass->element_klass());
    for (int64_t i = 0; i < len; ++i) {
      if (fixed) {
        WriteBody(heap_.AGetRef(obj, i), klass->element_klass(), out, depth + 1);
      } else {
        size_t size_pos = out.size();
        out.WriteU32(0);
        size_t body_start = out.size();
        WriteBody(heap_.AGetRef(obj, i), klass->element_klass(), out, depth + 1);
        out.PatchU32(size_pos, static_cast<uint32_t>(out.size() - body_start));
      }
    }
    return;
  }
  for (const FieldInfo& field : klass->fields()) {
    switch (field.kind) {
      case FieldKind::kBool:
      case FieldKind::kI8:
        out.WriteU8(static_cast<uint8_t>(heap_.GetPrim<int8_t>(obj, field.offset)));
        break;
      case FieldKind::kI16:
      case FieldKind::kChar:
        out.WriteU16(static_cast<uint16_t>(heap_.GetPrim<int16_t>(obj, field.offset)));
        break;
      case FieldKind::kI32:
        out.WriteI32(heap_.GetPrim<int32_t>(obj, field.offset));
        break;
      case FieldKind::kF32:
        out.WriteF32(heap_.GetPrim<float>(obj, field.offset));
        break;
      case FieldKind::kI64:
        out.WriteI64(heap_.GetPrim<int64_t>(obj, field.offset));
        break;
      case FieldKind::kF64:
        out.WriteF64(heap_.GetPrim<double>(obj, field.offset));
        break;
      case FieldKind::kRef:
        WriteBody(heap_.GetRef(obj, field.offset), field.target, out, depth + 1);
        break;
    }
  }
}

ObjRef InlineSerializer::ReadRecord(const Klass* klass, ByteReader& in) {
  uint32_t body_size = in.ReadU32();
  size_t body_start = in.position();
  ObjRef result = ReadBody(klass, in);
  GERENUK_CHECK_EQ(in.position() - body_start, body_size);
  return result;
}

ObjRef InlineSerializer::ReadBody(const Klass* klass, ByteReader& in) {
  RootScope scope(heap_);
  if (klass->is_array()) {
    int64_t len = in.ReadI32();
    size_t arr_slot = scope.Push(heap_.AllocArray(klass, len));
    if (klass->element_kind() != FieldKind::kRef) {
      in.ReadBytes(heap_.PrimArrayData(scope.Get(arr_slot)),
                   static_cast<size_t>(len) * static_cast<size_t>(klass->element_size()));
      return scope.Get(arr_slot);
    }
    bool fixed = KlassHasFixedInlineSize(klass->element_klass());
    for (int64_t i = 0; i < len; ++i) {
      if (!fixed) {
        in.ReadU32();  // per-element size prefix (used only for skipping)
      }
      ObjRef elem = ReadBody(klass->element_klass(), in);
      heap_.ASetRef(scope.Get(arr_slot), i, elem);
    }
    return scope.Get(arr_slot);
  }
  size_t obj_slot = scope.Push(heap_.AllocObject(klass));
  for (const FieldInfo& field : klass->fields()) {
    switch (field.kind) {
      case FieldKind::kBool:
      case FieldKind::kI8:
        heap_.SetPrim<int8_t>(scope.Get(obj_slot), field.offset, static_cast<int8_t>(in.ReadU8()));
        break;
      case FieldKind::kI16:
      case FieldKind::kChar:
        heap_.SetPrim<int16_t>(scope.Get(obj_slot), field.offset,
                               static_cast<int16_t>(in.ReadU16()));
        break;
      case FieldKind::kI32:
        heap_.SetPrim<int32_t>(scope.Get(obj_slot), field.offset, in.ReadI32());
        break;
      case FieldKind::kF32:
        heap_.SetPrim<float>(scope.Get(obj_slot), field.offset, in.ReadF32());
        break;
      case FieldKind::kI64:
        heap_.SetPrim<int64_t>(scope.Get(obj_slot), field.offset, in.ReadI64());
        break;
      case FieldKind::kF64:
        heap_.SetPrim<double>(scope.Get(obj_slot), field.offset, in.ReadF64());
        break;
      case FieldKind::kRef: {
        ObjRef child = ReadBody(field.target, in);
        heap_.SetRef(scope.Get(obj_slot), field.offset, child);
        break;
      }
    }
  }
  return scope.Get(obj_slot);
}

}  // namespace gerenuk
