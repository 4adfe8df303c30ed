#include "hashing/location_hash.hpp"

#include <algorithm>

#include "hashing/crc64.hpp"
#include "support/logging.hpp"

namespace icheck::hashing
{

namespace
{

/**
 * CRC of the seven high address bytes of a 9-byte (address, value) record.
 * crcOfAddr(a) == T7[a & 0xff] ^ addrSuffixCrc(a >> 8); the suffix is
 * constant across a run of addresses that share everything above the low
 * byte, which is what lets the span kernels hoist it out of their inner
 * loops.
 */
inline std::uint64_t
addrSuffixCrc(std::uint64_t hi)
{
    const auto &t = detail::crc64Tables.t;
    return t[6][hi & 0xff] ^ t[5][(hi >> 8) & 0xff] ^
           t[4][(hi >> 16) & 0xff] ^ t[3][(hi >> 24) & 0xff] ^
           t[2][(hi >> 32) & 0xff] ^ t[1][(hi >> 40) & 0xff] ^
           t[0][(hi >> 48) & 0xff];
}

/**
 * Split [addr, addr + len) into runs of addresses that share every byte
 * above the low one and call fn(offset, low, run, suffix) per run: it
 * starts @c offset bytes in, at low address byte @c low, spans @c run
 * bytes, and @c suffix is its addrSuffixCrc (one per run).
 */
template <typename Fn>
inline void
forEachSuffixRun(Addr addr, std::size_t len, Fn &&fn)
{
    for (std::size_t i = 0; i < len;) {
        const Addr base = addr + i;
        const std::size_t low = base & 0xff;
        const std::size_t run = std::min<std::size_t>(0x100 - low, len - i);
        fn(i, low, run, addrSuffixCrc(base >> 8));
        i += run;
    }
}

/** SplitMix64-style finalizer over the packed (address, value) word. */
inline std::uint64_t
mix64Pair(Addr addr, std::uint8_t value)
{
    std::uint64_t z = addr ^ (static_cast<std::uint64_t>(value) << 56)
                           ^ 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

ModHash
LocationHasher::hashSpan(Addr addr, const std::uint8_t *bytes,
                         std::size_t len) const
{
    // Generic fold; concrete hashers override with batched versions that
    // must stay bit-identical to this definition.
    ModHash sum;
    for (std::size_t i = 0; i < len; ++i)
        sum += hashByte(addr + i, bytes[i]);
    return sum;
}

ModHash
LocationHasher::hashDelta(Addr addr, const std::uint8_t *before,
                          const std::uint8_t *after, std::size_t len) const
{
    return hashSpan(addr, after, len) - hashSpan(addr, before, len);
}

ModHash
Crc64LocationHasher::hashByte(Addr addr, std::uint8_t value) const
{
    if (value == 0)
        return ModHash{};
    // CRC-64 of the 9-byte record (8-byte little-endian address, then the
    // value byte): one slicing step for the address, one feed for the
    // value.
    const std::uint64_t addr_crc = Crc64::feedWordLe(0, addr);
    return ModHash(Crc64::feed(addr_crc, value));
}

ModHash
Crc64LocationHasher::hashSpan(Addr addr, const std::uint8_t *bytes,
                              std::size_t len) const
{
    const auto &t = detail::crc64Tables.t;
    ModHash sum;
    forEachSuffixRun(addr, len, [&](std::size_t i, std::size_t low,
                                    std::size_t run, std::uint64_t suffix) {
        for (std::size_t k = 0; k < run; ++k) {
            const std::uint8_t value = bytes[i + k];
            if (value != 0)
                sum += ModHash(Crc64::feed(t[7][low + k] ^ suffix, value));
        }
    });
    return sum;
}

ModHash
Crc64LocationHasher::hashDelta(Addr addr, const std::uint8_t *before,
                               const std::uint8_t *after,
                               std::size_t len) const
{
    const auto &t = detail::crc64Tables.t;
    ModHash sum;
    forEachSuffixRun(addr, len, [&](std::size_t i, std::size_t low,
                                    std::size_t run, std::uint64_t suffix) {
        for (std::size_t k = 0; k < run; ++k) {
            const std::uint8_t old_value = before[i + k];
            const std::uint8_t new_value = after[i + k];
            // An unchanged byte's two terms cancel in the group.
            if (old_value == new_value)
                continue;
            const std::uint64_t addr_crc = t[7][low + k] ^ suffix;
            if (new_value != 0)
                sum += ModHash(Crc64::feed(addr_crc, new_value));
            if (old_value != 0)
                sum -= ModHash(Crc64::feed(addr_crc, old_value));
        }
    });
    return sum;
}

ModHash
Mix64LocationHasher::hashByte(Addr addr, std::uint8_t value) const
{
    if (value == 0)
        return ModHash{};
    // The value byte is rotated into the high bits so that adjacent
    // addresses with adjacent values do not collide structurally.
    return ModHash(mix64Pair(addr, value));
}

ModHash
Mix64LocationHasher::hashSpan(Addr addr, const std::uint8_t *bytes,
                              std::size_t len) const
{
    // Same per-byte math, minus the per-byte virtual dispatch.
    ModHash sum;
    for (std::size_t i = 0; i < len; ++i) {
        if (bytes[i] != 0)
            sum += ModHash(mix64Pair(addr + i, bytes[i]));
    }
    return sum;
}

std::unique_ptr<LocationHasher>
makeLocationHasher(HasherKind kind)
{
    switch (kind) {
      case HasherKind::Crc64:
        return std::make_unique<Crc64LocationHasher>();
      case HasherKind::Mix64:
        return std::make_unique<Mix64LocationHasher>();
    }
    ICHECK_PANIC("unknown HasherKind");
}

} // namespace icheck::hashing
