#ifndef ICHECK_HASHING_LOCATION_HASH_HPP
#define ICHECK_HASHING_LOCATION_HASH_HPP

/**
 * @file
 * The per-location hash function h(a, v) of Section 2.2.
 *
 * InstantCheck defines the State Hash of memory state S as
 *     SH(S) = h(a_1, v_1) oplus ... oplus h(a_m, v_m)
 * where h hashes one (address, value) pair. This repo fixes the canonical
 * granularity at one byte: h maps an (address, byte value) pair to a 64-bit
 * group element, and a k-byte store contributes one term per byte. Per-byte
 * granularity makes incremental hashing agree with traversal hashing no
 * matter how store widths overlap, and makes ignore-deletion well defined.
 *
 * Additionally, h(a, 0) is defined as the group identity for every address:
 * zero bytes contribute nothing to a state hash. With unmapped simulated
 * memory reading as zero, allocations zero-filled, and freed blocks
 * scrubbed, this gives all three InstantCheck schemes (hardware
 * incremental, software incremental, software traversal) bit-identical
 * State Hashes — a property the integration tests assert on every
 * workload.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "hashing/mod_hash.hpp"
#include "support/types.hpp"

namespace icheck::hashing
{

/**
 * Abstract per-location hash function h(a, v).
 *
 * Implementations must be pure functions: equal (address, byte) inputs give
 * equal outputs, with no internal state. That purity is what makes Thread
 * Hash updates core-local and order-free.
 */
class LocationHasher
{
  public:
    virtual ~LocationHasher() = default;

    /** Hash of one (address, byte value) pair. */
    virtual ModHash hashByte(Addr addr, std::uint8_t value) const = 0;

    /**
     * Batched form: the group sum of hashByte(addr + i, bytes[i]) for
     * i in [0, len). One virtual call per store or span instead of one
     * per byte; overrides must be bit-identical to the per-byte fold
     * (tests/hashing/test_equivalence.cpp asserts this exhaustively).
     */
    virtual ModHash hashSpan(Addr addr, const std::uint8_t *bytes,
                             std::size_t len) const;

    /**
     * Fused store delta: hashSpan(addr, after, len) minus
     * hashSpan(addr, before, len), in one call. Bytes equal in @p before
     * and @p after cancel in the group, so overrides may skip them; they
     * must stay bit-identical to the two-span difference
     * (tests/hashing/test_equivalence.cpp).
     */
    virtual ModHash hashDelta(Addr addr, const std::uint8_t *before,
                              const std::uint8_t *after,
                              std::size_t len) const;

    /** Human-readable implementation name. */
    virtual std::string name() const = 0;
};

/**
 * h(a, v) built from CRC-64/ECMA over the 9-byte (address, value) record —
 * the paper's suggested CRC-based instantiation.
 */
class Crc64LocationHasher : public LocationHasher
{
  public:
    ModHash hashByte(Addr addr, std::uint8_t value) const override;
    ModHash hashSpan(Addr addr, const std::uint8_t *bytes,
                     std::size_t len) const override;
    ModHash hashDelta(Addr addr, const std::uint8_t *before,
                      const std::uint8_t *after,
                      std::size_t len) const override;
    std::string name() const override { return "crc64"; }
};

/**
 * h(a, v) built from a SplitMix64-style finalizer over the packed
 * (address, value) word. Cheaper than CRC in software; the ablation bench
 * compares the two.
 */
class Mix64LocationHasher : public LocationHasher
{
  public:
    ModHash hashByte(Addr addr, std::uint8_t value) const override;
    ModHash hashSpan(Addr addr, const std::uint8_t *bytes,
                     std::size_t len) const override;
    std::string name() const override { return "mix64"; }
};

/** Which LocationHasher implementation to instantiate. */
enum class HasherKind
{
    Crc64,
    Mix64,
};

/** Factory for the hasher selected by @p kind. */
std::unique_ptr<LocationHasher> makeLocationHasher(HasherKind kind);

} // namespace icheck::hashing

#endif // ICHECK_HASHING_LOCATION_HASH_HPP
