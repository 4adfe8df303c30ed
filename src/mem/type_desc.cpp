#include "mem/type_desc.hpp"

#include <sstream>

#include "support/logging.hpp"

namespace icheck::mem
{

unsigned
scalarWidth(ScalarKind kind)
{
    switch (kind) {
      case ScalarKind::Int8:    return 1;
      case ScalarKind::Int16:   return 2;
      case ScalarKind::Int32:   return 4;
      case ScalarKind::Int64:   return 8;
      case ScalarKind::Float:   return 4;
      case ScalarKind::Double:  return 8;
      case ScalarKind::Pointer: return 8;
      case ScalarKind::Pad:     return 1;
    }
    ICHECK_PANIC("unknown ScalarKind");
}

hashing::ValueClass
scalarClass(ScalarKind kind)
{
    switch (kind) {
      case ScalarKind::Float:  return hashing::ValueClass::Float;
      case ScalarKind::Double: return hashing::ValueClass::Double;
      default:                 return hashing::ValueClass::Integer;
    }
}

std::shared_ptr<const TypeDescriptor>
TypeDescriptor::scalar(ScalarKind kind, std::size_t pad_bytes)
{
    auto desc = std::shared_ptr<TypeDescriptor>(new TypeDescriptor);
    desc->shape = Shape::Scalar;
    desc->kind = kind;
    desc->anyFp = kind == ScalarKind::Float || kind == ScalarKind::Double;
    desc->byteSize = kind == ScalarKind::Pad ? pad_bytes : scalarWidth(kind);
    ICHECK_ASSERT(desc->byteSize > 0, "empty scalar");
    return desc;
}

std::shared_ptr<const TypeDescriptor>
TypeDescriptor::array(std::shared_ptr<const TypeDescriptor> elem,
                      std::size_t count)
{
    ICHECK_ASSERT(elem != nullptr, "array of null element");
    auto desc = std::shared_ptr<TypeDescriptor>(new TypeDescriptor);
    desc->shape = Shape::Array;
    desc->element = std::move(elem);
    desc->anyFp = desc->element->hasFp();
    desc->count = count;
    desc->byteSize = desc->element->size() * count;
    return desc;
}

std::shared_ptr<const TypeDescriptor>
TypeDescriptor::record(
    std::vector<std::shared_ptr<const TypeDescriptor>> fields)
{
    auto desc = std::shared_ptr<TypeDescriptor>(new TypeDescriptor);
    desc->shape = Shape::Struct;
    desc->fields = std::move(fields);
    desc->byteSize = 0;
    for (const auto &field : desc->fields) {
        ICHECK_ASSERT(field != nullptr, "null struct field");
        desc->byteSize += field->size();
        desc->anyFp = desc->anyFp || field->hasFp();
    }
    return desc;
}

void
TypeDescriptor::forEachScalarAt(
    std::size_t base,
    const std::function<void(std::size_t, ScalarKind, unsigned)> &visit)
    const
{
    switch (shape) {
      case Shape::Scalar:
        if (kind == ScalarKind::Pad) {
            visit(base, ScalarKind::Pad, static_cast<unsigned>(byteSize));
        } else {
            visit(base, kind, scalarWidth(kind));
        }
        return;
      case Shape::Array: {
        const std::size_t elem_size = element->size();
        for (std::size_t i = 0; i < count; ++i)
            element->forEachScalarAt(base + i * elem_size, visit);
        return;
      }
      case Shape::Struct: {
        std::size_t offset = base;
        for (const auto &field : fields) {
            field->forEachScalarAt(offset, visit);
            offset += field->size();
        }
        return;
      }
    }
    ICHECK_PANIC("unknown descriptor shape");
}

void
TypeDescriptor::forEachScalar(
    const std::function<void(std::size_t, ScalarKind, unsigned)> &visit)
    const
{
    forEachScalarAt(0, visit);
}

std::string
TypeDescriptor::describe() const
{
    std::ostringstream os;
    switch (shape) {
      case Shape::Scalar:
        switch (kind) {
          case ScalarKind::Int8:    os << "i8"; break;
          case ScalarKind::Int16:   os << "i16"; break;
          case ScalarKind::Int32:   os << "i32"; break;
          case ScalarKind::Int64:   os << "i64"; break;
          case ScalarKind::Float:   os << "f32"; break;
          case ScalarKind::Double:  os << "f64"; break;
          case ScalarKind::Pointer: os << "ptr"; break;
          case ScalarKind::Pad:     os << "pad" << byteSize; break;
        }
        break;
      case Shape::Array:
        os << element->describe() << "[" << count << "]";
        break;
      case Shape::Struct: {
        os << "{";
        bool first = true;
        for (const auto &field : fields) {
            if (!first)
                os << ",";
            os << field->describe();
            first = false;
        }
        os << "}";
        break;
      }
    }
    return os.str();
}

TypeRef tInt8() { return TypeDescriptor::scalar(ScalarKind::Int8); }
TypeRef tInt16() { return TypeDescriptor::scalar(ScalarKind::Int16); }
TypeRef tInt32() { return TypeDescriptor::scalar(ScalarKind::Int32); }
TypeRef tInt64() { return TypeDescriptor::scalar(ScalarKind::Int64); }
TypeRef tFloat() { return TypeDescriptor::scalar(ScalarKind::Float); }
TypeRef tDouble() { return TypeDescriptor::scalar(ScalarKind::Double); }
TypeRef tPointer() { return TypeDescriptor::scalar(ScalarKind::Pointer); }

TypeRef
tPad(std::size_t bytes)
{
    return TypeDescriptor::scalar(ScalarKind::Pad, bytes);
}

TypeRef
tArray(TypeRef elem, std::size_t count)
{
    return TypeDescriptor::array(std::move(elem), count);
}

TypeRef
tStruct(std::vector<TypeRef> fields)
{
    return TypeDescriptor::record(std::move(fields));
}

TypeRef
tBytes(std::size_t bytes)
{
    return tPad(bytes);
}

} // namespace icheck::mem
