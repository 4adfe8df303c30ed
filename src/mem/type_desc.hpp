#ifndef ICHECK_MEM_TYPE_DESC_HPP
#define ICHECK_MEM_TYPE_DESC_HPP

/**
 * @file
 * Recursive allocation-site type descriptors (Section 4.2).
 *
 * SW-InstantCheck_Tr must know, for every allocated byte, whether it starts
 * a float or a double so the round-off can be applied during state
 * traversal. The paper annotates allocation sites with exactly this
 * information, recursively for structs and arrays; TypeDescriptor is that
 * annotation language.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hashing/state_hash.hpp"
#include "support/types.hpp"

namespace icheck::mem
{

/**
 * The leaf kinds a descriptor bottoms out in.
 */
enum class ScalarKind : std::uint8_t
{
    Int8,
    Int16,
    Int32,
    Int64,
    Float,   ///< 32-bit IEEE-754, subject to FP rounding.
    Double,  ///< 64-bit IEEE-754, subject to FP rounding.
    Pointer, ///< 64-bit simulated address.
    Pad,     ///< Opaque filler bytes (alignment padding).
};

/** Byte width of @p kind (Pad widths are per-field). */
unsigned scalarWidth(ScalarKind kind);

/** ValueClass a scalar hashes as. */
hashing::ValueClass scalarClass(ScalarKind kind);

/**
 * A recursive type shape: scalar, fixed-length array, or struct.
 *
 * Descriptors are immutable and shareable; apps build them once per
 * allocation site with the factory functions below.
 */
class TypeDescriptor
{
  public:
    /** A scalar leaf of @p kind; Pad leaves carry an explicit size. */
    static std::shared_ptr<const TypeDescriptor>
    scalar(ScalarKind kind, std::size_t pad_bytes = 1);

    /** An array of @p count elements of shape @p elem. */
    static std::shared_ptr<const TypeDescriptor>
    array(std::shared_ptr<const TypeDescriptor> elem, std::size_t count);

    /** A struct whose fields lay out sequentially. */
    static std::shared_ptr<const TypeDescriptor>
    record(std::vector<std::shared_ptr<const TypeDescriptor>> fields);

    /** Total size in bytes. */
    std::size_t size() const { return byteSize; }

    /**
     * Visit every scalar field as (offset, kind, width) in layout order.
     * Pad fields are visited too (callers typically hash them raw).
     */
    void forEachScalar(
        const std::function<void(std::size_t offset, ScalarKind kind,
                                 unsigned width)> &visit) const;

    /** Whether any leaf is a Float or Double (fixed at construction). */
    bool hasFp() const { return anyFp; }

    /**
     * Visit every Float/Double leaf as (offset, kind) in layout order,
     * skipping subtrees without one: what traversal hashing needs to
     * round a region's FP bytes in place and hash the rest raw.
     */
    template <typename Visit>
    void
    forEachFpScalar(Visit &&visit) const
    {
        forEachFpScalarAt(0, visit);
    }

    /** Short human-readable rendering ("f64[128]" etc.), for reports. */
    std::string describe() const;

  private:
    enum class Shape { Scalar, Array, Struct };

    TypeDescriptor() = default;

    void forEachScalarAt(
        std::size_t base,
        const std::function<void(std::size_t, ScalarKind, unsigned)> &visit)
        const;

    template <typename Visit>
    void
    forEachFpScalarAt(std::size_t base, Visit &visit) const
    {
        if (!anyFp)
            return;
        switch (shape) {
          case Shape::Scalar:
            visit(base, kind);
            return;
          case Shape::Array: {
            const std::size_t elem_size = element->size();
            for (std::size_t i = 0; i < count; ++i)
                element->forEachFpScalarAt(base + i * elem_size, visit);
            return;
          }
          case Shape::Struct: {
            std::size_t offset = base;
            for (const auto &field : fields) {
                field->forEachFpScalarAt(offset, visit);
                offset += field->size();
            }
            return;
          }
        }
    }

    Shape shape = Shape::Scalar;
    ScalarKind kind = ScalarKind::Int8;
    bool anyFp = false;
    std::size_t byteSize = 1;
    std::size_t count = 0;
    std::shared_ptr<const TypeDescriptor> element;
    std::vector<std::shared_ptr<const TypeDescriptor>> fields;
};

/** Shared handle to an immutable descriptor. */
using TypeRef = std::shared_ptr<const TypeDescriptor>;

/** Convenience leaves. */
TypeRef tInt8();
TypeRef tInt16();
TypeRef tInt32();
TypeRef tInt64();
TypeRef tFloat();
TypeRef tDouble();
TypeRef tPointer();
TypeRef tPad(std::size_t bytes);

/** Convenience array of @p count doubles/floats/etc. */
TypeRef tArray(TypeRef elem, std::size_t count);

/** Convenience struct. */
TypeRef tStruct(std::vector<TypeRef> fields);

/** Raw untyped bytes (hashed bit-by-bit). */
TypeRef tBytes(std::size_t bytes);

} // namespace icheck::mem

#endif // ICHECK_MEM_TYPE_DESC_HPP
