#ifndef ICHECK_CACHE_WRITE_BUFFER_HPP
#define ICHECK_CACHE_WRITE_BUFFER_HPP

/**
 * @file
 * The write buffer between the core and the L1 cache (Fig 3a).
 *
 * When a write retires from the ROB, its data and physical address are
 * saved in a write-buffer entry together with the *virtual page number*
 * (VPN) of the destination. When the entry later drains into the L1, the
 * hardware reconstructs V_addr from the saved VPN and the page offset of
 * P_addr and feeds (V_addr, Data_old, Data_new) to the MHM.
 *
 * Section 3.2 stresses that entries may drain in any order without changing
 * the resulting TH, because the hash group is commutative; the buffer
 * therefore supports several drain policies so tests can verify that
 * order-freedom.
 */

#include <cstdint>
#include <deque>

#include "hashing/state_hash.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace icheck::cache
{

/**
 * Linear virtual-to-physical offset of the simulated address space. A
 * nonzero offset makes the VPN-capture mechanism observable: reconstructing
 * V_addr from P_addr alone would produce the wrong hash input.
 */
inline constexpr Addr physOffset = 0x1000'0000'0000ULL;

/** Translate a simulated virtual address to its physical address. */
constexpr Addr
translate(Addr vaddr)
{
    return vaddr + physOffset;
}

/** Page size used for VPN capture. */
inline constexpr Addr vpnPageSize = 4096;

/**
 * One retired store awaiting drain into the L1.
 */
struct WriteBufferEntry
{
    Addr paddr = 0;           ///< Physical address of the store.
    Addr vpn = 0;             ///< Captured virtual page number.
    unsigned width = 0;       ///< Store width in bytes (1..8).
    std::uint64_t oldBits = 0;
    std::uint64_t newBits = 0;
    hashing::ValueClass cls = hashing::ValueClass::Integer;

    /**
     * False when the store retired inside a stop_hashing window (Fig 4)
     * or while the MHM was not armed: it updates the cache but must not
     * reach the MHM.
     */
    bool hashed = true;

    /** Reconstruct the virtual address from VPN + page offset of P_addr. */
    Addr
    vaddr() const
    {
        return vpn * vpnPageSize + paddr % vpnPageSize;
    }
};

/** Order in which buffered writes drain. */
enum class DrainPolicy
{
    Fifo,
    Lifo,
    Random, ///< Seeded shuffle; exercises Section 3.2's order-freedom.
};

/**
 * Bounded write buffer with pluggable drain order.
 */
class WriteBuffer
{
  public:
    /**
     * @param capacity Max buffered entries before a push forces a drain.
     * @param policy   Drain ordering.
     * @param seed     Seed for the Random policy.
     */
    explicit WriteBuffer(std::size_t capacity = 16,
                         DrainPolicy policy = DrainPolicy::Fifo,
                         std::uint64_t seed = 1);

    /**
     * Enqueue a retired store; if the buffer is full, drains one entry
     * first via @p sink. The sink is a template so the per-store call in
     * the simulator inlines instead of routing through a std::function.
     */
    template <typename Sink>
    void
    push(const WriteBufferEntry &entry, const Sink &sink)
    {
        if (entries.size() >= cap)
            drainOne(sink);
        entries.push_back(entry);
    }

    /** Drain everything via @p sink in policy order. */
    template <typename Sink>
    void
    drainAll(const Sink &sink)
    {
        while (!entries.empty())
            drainOne(sink);
    }

    /** Buffered entry count. */
    std::size_t size() const { return entries.size(); }

  private:
    /** Index of the next entry to drain under the current policy. */
    std::size_t pickIndex();

    /** Pop the policy-selected entry and hand it to @p sink. */
    template <typename Sink>
    void
    drainOne(const Sink &sink)
    {
        const std::size_t idx = pickIndex();
        const WriteBufferEntry entry = entries[idx];
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(idx));
        sink(entry);
    }

    std::size_t cap;
    DrainPolicy drainPolicy;
    Xoshiro256 rng;
    std::deque<WriteBufferEntry> entries;
};

} // namespace icheck::cache

#endif // ICHECK_CACHE_WRITE_BUFFER_HPP
