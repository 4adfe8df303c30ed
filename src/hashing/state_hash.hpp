#ifndef ICHECK_HASHING_STATE_HASH_HPP
#define ICHECK_HASHING_STATE_HASH_HPP

/**
 * @file
 * State-hash algebra shared by every InstantCheck scheme.
 *
 * StateHasher binds a LocationHasher and an FP rounding mode and exposes the
 * three operations everything else is built from:
 *
 *  - valueHash:  hash of a w-byte value at an address (rounded if FP);
 *  - spanHash:   hash of a raw byte span (used by traversal and deletion);
 *  - storeDelta: the incremental update ominus h(a, old) oplus h(a, new)
 *    contributed by one store.
 *
 * The same StateHasher instance drives the hardware MHM model, the
 * software-incremental checker, and the traversal checker, which is what
 * makes "all three schemes compute the same hash" a testable property.
 */

#include <cstdint>

#include "hashing/fp_round.hpp"
#include "hashing/location_hash.hpp"
#include "hashing/mod_hash.hpp"
#include "support/types.hpp"

namespace icheck::hashing
{

/**
 * Value classification a store instruction carries (Section 5: the compiler
 * marks FP writes; the MHM's round-off unit keys off this).
 */
enum class ValueClass : std::uint8_t
{
    Integer, ///< Not floating point; hashed bit-by-bit.
    Float,   ///< 32-bit IEEE-754; subject to rounding.
    Double,  ///< 64-bit IEEE-754; subject to rounding.
};

/** Byte width of a value of class @p cls with raw store width @p width. */
constexpr bool
isFpClass(ValueClass cls)
{
    return cls != ValueClass::Integer;
}

/**
 * Stateless hashing pipeline: FP round-off unit in front of the per-byte
 * location hasher, accumulating into the ModHash group.
 */
class StateHasher
{
  public:
    /**
     * @param hasher Per-location hash function (not owned; must outlive).
     * @param mode   FP rounding applied to Float/Double values.
     */
    StateHasher(const LocationHasher &hasher, FpRoundMode mode)
        : locHasher(hasher), roundMode(mode)
    {}

    /** The rounding mode in effect. */
    const FpRoundMode &mode() const { return roundMode; }

    /** The underlying per-location hasher. */
    const LocationHasher &hasher() const { return locHasher; }

    /**
     * Hash of the @p width -byte value @p rawBits residing at @p addr.
     * Float/Double values pass through the round-off unit first.
     */
    ModHash valueHash(Addr addr, std::uint64_t rawBits, unsigned width,
                      ValueClass cls) const;

    /** Hash of @p len raw bytes at simulated address @p addr. */
    ModHash spanHash(Addr addr, const std::uint8_t *bytes,
                     std::size_t len) const;

    /**
     * Incremental delta contributed by a store: the group element
     * ominus h(addr, old) oplus h(addr, new), per byte. One fused pass
     * (LocationHasher::hashDelta) equal to
     * valueHash(new) - valueHash(old); the identity when the rounded
     * values are equal.
     */
    ModHash storeDelta(Addr addr, std::uint64_t oldBits,
                       std::uint64_t newBits, unsigned width,
                       ValueClass cls) const;

  private:
    /** @p rawBits through the round-off unit if @p cls is FP. */
    std::uint64_t hashedBits(std::uint64_t rawBits, unsigned width,
                             ValueClass cls) const;

    const LocationHasher &locHasher;
    FpRoundMode roundMode;
};

} // namespace icheck::hashing

#endif // ICHECK_HASHING_STATE_HASH_HPP
