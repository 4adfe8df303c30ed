#include "hashing/state_hash.hpp"

#include "support/logging.hpp"

namespace icheck::hashing
{

namespace
{

/** The low @p width bytes of @p bits, little-endian. */
inline void
toBytes(std::uint64_t bits, unsigned width, std::uint8_t *bytes)
{
    for (unsigned i = 0; i < width; ++i)
        bytes[i] = static_cast<std::uint8_t>(bits >> (8 * i));
}

} // namespace

std::uint64_t
StateHasher::hashedBits(std::uint64_t rawBits, unsigned width,
                        ValueClass cls) const
{
    ICHECK_ASSERT(width >= 1 && width <= 8, "store width must be 1..8");
    if (!isFpClass(cls))
        return rawBits;
    const unsigned fp_width = cls == ValueClass::Float ? 4 : 8;
    ICHECK_ASSERT(width == fp_width, "FP store width mismatch");
    return roundFpBits(rawBits, fp_width, roundMode);
}

ModHash
StateHasher::valueHash(Addr addr, std::uint64_t rawBits, unsigned width,
                       ValueClass cls) const
{
    std::uint8_t bytes[8];
    toBytes(hashedBits(rawBits, width, cls), width, bytes);
    // One batched call per store instead of one virtual call per byte.
    return locHasher.hashSpan(addr, bytes, width);
}

ModHash
StateHasher::storeDelta(Addr addr, std::uint64_t oldBits,
                        std::uint64_t newBits, unsigned width,
                        ValueClass cls) const
{
    const std::uint64_t old_bits = hashedBits(oldBits, width, cls);
    const std::uint64_t new_bits = hashedBits(newBits, width, cls);
    if (old_bits == new_bits)
        return ModHash{};
    std::uint8_t before[8];
    std::uint8_t after[8];
    toBytes(old_bits, width, before);
    toBytes(new_bits, width, after);
    return locHasher.hashDelta(addr, before, after, width);
}

ModHash
StateHasher::spanHash(Addr addr, const std::uint8_t *bytes,
                      std::size_t len) const
{
    return locHasher.hashSpan(addr, bytes, len);
}

} // namespace icheck::hashing
