#ifndef ICHECK_CACHE_L1_CACHE_HPP
#define ICHECK_CACHE_L1_CACHE_HPP

/**
 * @file
 * Per-core L1 data cache model (Section 3.1 context).
 *
 * The MHM sits in the L1 controller and reads Data_old from the cache when
 * the write buffer updates a line. The paper's key microarchitectural claim
 * is that obtaining Data_old incurs *no additional cache miss* in
 * write-allocate caches: the write either hits, or the line is brought in
 * anyway to service the write. This model is a tag-only set-associative
 * write-allocate/write-back LRU cache whose statistics let tests verify
 * exactly that claim: enabling the MHM changes no hit/miss counter.
 */

#include <cstdint>
#include <vector>

#include "support/stats.hpp"
#include "support/types.hpp"

namespace icheck::cache
{

/** Geometry of an L1 cache. */
struct CacheConfig
{
    std::size_t sizeBytes = 32 * 1024;
    std::size_t lineBytes = 64;
    std::size_t associativity = 8;
};

/** Outcome of one access. */
struct AccessResult
{
    bool hit = false;
    bool evictedDirty = false; ///< A dirty victim was written back.
};

/**
 * Tag-only set-associative cache with true-LRU replacement. Data stays in
 * the functional SparseMemory; this model tracks architectural state
 * (tags, dirty bits) and statistics.
 */
class L1Cache
{
  public:
    explicit L1Cache(const CacheConfig &config = {});

    /**
     * Perform one access. Write misses allocate (write-allocate); dirty
     * victims count as writebacks.
     */
    AccessResult access(Addr paddr, bool is_write);

    /** True if the line holding @p paddr is currently resident. */
    bool resident(Addr paddr) const;

    /** Invalidate everything (e.g., between runs). */
    void reset();

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    std::uint64_t writebacks() const { return nWritebacks; }
    std::uint64_t accesses() const { return nHits + nMisses; }

    const CacheConfig &config() const { return cfg; }

    /** Bytes of the tag array, which every copy of the cache duplicates
     *  (checkpoint-cache budgeting). */
    std::size_t
    footprintBytes() const
    {
        return lines.capacity() * sizeof(Line);
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    std::size_t setIndex(Addr paddr) const;
    Addr tagOf(Addr paddr) const;

    CacheConfig cfg;
    std::size_t numSets;
    /** log2(lineBytes); line size is asserted to be a power of two. */
    unsigned lineShift = 0;
    /** log2(numSets) when numSets is a power of two, else 0 with
     *  setsArePow2 false — setIndex/tagOf then fall back to divides. */
    unsigned setShift = 0;
    bool setsArePow2 = false;
    std::vector<Line> lines; ///< numSets * associativity, set-major.
    std::uint64_t stamp = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nWritebacks = 0;
};

} // namespace icheck::cache

#endif // ICHECK_CACHE_L1_CACHE_HPP
