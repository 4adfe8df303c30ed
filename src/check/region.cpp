#include "check/region.hpp"

#include <algorithm>

namespace icheck::check
{

namespace
{

/** Bytes read and hashed per span call: bounds the scratch buffer of a
 *  region walk whatever the region's size. */
constexpr std::size_t chunkBytes = 1024;

/** Hash @p len raw bytes at @p addr, a chunk at a time via @p buffer. */
hashing::ModHash
hashRawChunks(const hashing::StateHasher &hasher,
              const mem::SparseMemory &image, Addr addr, std::size_t len,
              std::uint8_t *buffer)
{
    hashing::ModHash sum;
    for (std::size_t done = 0; done < len;) {
        const std::size_t chunk = std::min(len - done, chunkBytes);
        image.readBytes(addr + done, buffer, chunk);
        sum += hasher.spanHash(addr + done, buffer, chunk);
        done += chunk;
    }
    return sum;
}

/** Round the @p kind leaf at @p bytes in place (little-endian). */
void
roundLeaf(const hashing::StateHasher &hasher, mem::ScalarKind kind,
          std::uint8_t *bytes)
{
    const unsigned width = mem::scalarWidth(kind);
    std::uint64_t bits = 0;
    for (unsigned i = 0; i < width; ++i)
        bits |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    bits = hashing::roundFpBits(bits, width, hasher.mode());
    for (unsigned i = 0; i < width; ++i)
        bytes[i] = static_cast<std::uint8_t>(bits >> (8 * i));
}

} // namespace

hashing::ModHash
hashRawRegion(const hashing::StateHasher &hasher,
              const mem::SparseMemory &image, Addr addr, std::size_t len)
{
    std::uint8_t buffer[chunkBytes];
    return hashRawChunks(hasher, image, addr, len, buffer);
}

hashing::ModHash
hashTypedRegion(const hashing::StateHasher &hasher,
                const mem::SparseMemory &image, Addr addr,
                const mem::TypeRef &type, std::size_t len)
{
    if (!type)
        return hashRawRegion(hasher, image, addr, len);
    const std::size_t size = type->size();
    if (!type->hasFp() ||
        hasher.mode().kind == hashing::FpRoundKind::None)
        return hashRawRegion(hasher, image, addr, size);

    // The window holds region bytes [start, start + filled); everything
    // before start is already in sum. FP leaves are rounded in the
    // window, so each byte is read once and each window is hashed in one
    // span call.
    std::uint8_t window[chunkBytes];
    std::size_t start = 0;
    std::size_t filled = 0;
    hashing::ModHash sum;
    type->forEachFpScalar([&](std::size_t offset, mem::ScalarKind kind) {
        if (offset + mem::scalarWidth(kind) > start + filled) {
            // The leaf ends past the window: hash the window up to the
            // leaf, the raw gap after it, and refill from the leaf on.
            const std::size_t kept = std::min(offset, start + filled);
            sum += hasher.spanHash(addr + start, window, kept - start);
            sum += hashRawChunks(hasher, image, addr + kept, offset - kept,
                                 window);
            start = offset;
            filled = std::min(size - start, chunkBytes);
            image.readBytes(addr + start, window, filled);
        }
        roundLeaf(hasher, kind, window + (offset - start));
    });
    sum += hasher.spanHash(addr + start, window, filled);
    start += filled;
    return sum + hashRawChunks(hasher, image, addr + start, size - start,
                               window);
}

} // namespace icheck::check
