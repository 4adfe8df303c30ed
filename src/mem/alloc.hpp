#ifndef ICHECK_MEM_ALLOC_HPP
#define ICHECK_MEM_ALLOC_HPP

/**
 * @file
 * The deterministic dynamic allocator and live-allocation table
 * (sections 4.2 and 5).
 *
 * Two jobs, straight from the paper:
 *
 *  1. Control allocation nondeterminism: malloc may return different
 *     addresses in different runs, so InstantCheck logs the addresses
 *     returned in a recording run and replays them, keyed by allocation
 *     site and per-site sequence number, in later runs.
 *  2. Feed SW-InstantCheck_Tr: maintain the table of live allocated blocks
 *     together with their recursive type annotations so the traversal
 *     checker can walk the heap and round FP values.
 */

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mem/memory.hpp"
#include "mem/type_desc.hpp"
#include "support/types.hpp"

namespace icheck::mem
{

/**
 * One live (or historical) heap block.
 */
struct Block
{
    Addr addr = 0;
    std::size_t size = 0;
    std::string site;       ///< Allocation-site label ("file.cpp:func").
    std::uint32_t seq = 0;  ///< Per-site allocation sequence number.
    TypeRef type;           ///< Shape annotation (may be raw bytes).
    bool live = false;
};

/**
 * Address log for malloc replay: (site, per-site seq) -> address.
 *
 * A campaign's record run (run 0) fills the log and every later run
 * replays it, so allocation addresses stop being an input
 * nondeterminism source. The record run seals the log when it ends, on
 * every exit path; a sealed log is complete, even when it is empty
 * (most workloads never call malloc).
 *
 * Replays may read the log while the record run is still writing it.
 * Once stream() announces a record run, a lookup that misses waits
 * until the record run logs that (site, seq) or seals the log, so a
 * replay waits only on the entries it actually reads. A log nobody
 * streams never waits: a miss returns at once, as it does for the
 * explorer's private logs and for every record-then-replay sequence on
 * one thread. Every member is guarded by one internal lock; a copy
 * takes the entries, the high-water mark and the stream state, never
 * the waiters.
 */
class ReplayLog
{
  public:
    ReplayLog() = default;
    ReplayLog(const ReplayLog &other);
    ReplayLog &operator=(const ReplayLog &other);

    /** Record that allocation @p seq at @p site returned @p addr. */
    void record(const std::string &site, std::uint32_t seq, Addr addr);

    /**
     * Address recorded for (site, seq), if any. On a streamed log that
     * is not sealed yet, a miss waits for the entry or the seal.
     */
    std::optional<Addr> lookup(const std::string &site,
                               std::uint32_t seq) const;

    /** Highest address ever recorded plus the block size, for overflow. */
    Addr highWater() const;

    /** Extend the high-water mark (record mode bookkeeping). */
    void raiseHighWater(Addr limit);

    /**
     * Announce that a record run is about to fill this log while
     * replays read it: until seal(), a lookup that misses waits.
     */
    void stream();

    /** Mark the log complete and wake every waiting lookup. */
    void seal();

    /** True once the log is complete (empty or not). */
    bool sealed() const;

    /** True if nothing has been recorded yet. */
    bool empty() const;

    std::size_t size() const;

    /**
     * The recorded (site, seq) -> address entries, in deterministic map
     * order. The service's result store serializes a campaign's replay
     * log through this so a restarted daemon can resume replay-mode
     * runs without re-executing the record-mode run. Read it only while
     * nobody records into the log (e.g. once it is sealed).
     */
    const std::map<std::pair<std::string, std::uint32_t>, Addr> &
    entriesMap() const
    {
        return entries;
    }

  private:
    mutable std::mutex mu;
    mutable std::condition_variable grown; ///< An entry or the seal landed.
    std::map<std::pair<std::string, std::uint32_t>, Addr> entries;
    Addr high = 0;
    bool streamed = false;
    bool complete = false;
};

/**
 * Deterministic first-fit heap allocator over the simulated heap segment.
 *
 * In Record mode it allocates bump-style with exact-size free-list reuse —
 * which deliberately makes the address layout a function of the allocation
 * *order*, i.e. of the thread interleaving, just like a real malloc. In
 * Replay mode it returns the logged address for each (site, seq) pair, which
 * removes that nondeterminism exactly as Section 5 prescribes; a pair the
 * log lacks gets fresh space above the log's high-water mark, read at that
 * first miss (when a streamed log is already sealed).
 */
class DeterministicAllocator
{
  public:
    /** Allocation behaviour. */
    enum class Mode
    {
        Record, ///< Allocate by order; write the log.
        Replay, ///< Serve addresses from the log.
    };

    /**
     * @param replay_log Shared log; written in Record, read in Replay.
     * @param mode       Record or Replay.
     */
    DeterministicAllocator(ReplayLog &replay_log, Mode mode);

    /**
     * Allocate @p type->size() bytes for @p site. Returns the block
     * address. The caller (runtime) is responsible for zero-filling the
     * returned range through the instrumented store path.
     */
    Addr allocate(const std::string &site, const TypeRef &type);

    /** Free the block at @p addr (must be live). */
    void free(Addr addr);

    /** Live block containing @p addr, if any. */
    const Block *findLive(Addr addr) const;

    /**
     * Most recent block (live or freed) that ever covered @p addr; lets the
     * localization tool attribute dangling-pointer bytes.
     */
    const Block *findHistorical(Addr addr) const;

    /** All live blocks in address order (the SW-Tr traversal input). */
    std::vector<const Block *> liveBlocks() const;

    /** Total bytes currently live. */
    std::size_t liveBytes() const { return bytesLive; }

    /** Number of allocations performed. */
    std::uint64_t allocationCount() const { return allocSeqTotal; }

    Mode mode() const { return allocMode; }

    /**
     * Complete value state of the allocator for machine checkpoints:
     * everything except the replay-log reference and the mode, which are
     * identity, not state. TypeRefs inside blocks are shared, immutable
     * descriptors, so the copy is cheap and aliasing them is safe. A
     * replay's bump pointer stays at heapBase until its first miss.
     */
    struct State
    {
        Addr bump = heapBase;
        std::uint64_t allocSeqTotal = 0;
        std::map<std::string, std::uint32_t> siteSeq;
        std::map<std::size_t, std::vector<Addr>> freeLists;
        std::map<Addr, Block> blocks;
        std::size_t bytesLive = 0;
    };

    /** Capture the allocator's value state (checkpoint). */
    State saveState() const;

    /** Rewind the allocator to @p state (same log and mode required). */
    void restoreState(const State &state);

  private:
    Addr takeAddress(const std::string &site, std::uint32_t seq,
                     std::size_t size);

    ReplayLog &log;
    Mode allocMode;
    Addr bump = heapBase;
    std::uint64_t allocSeqTotal = 0;
    std::map<std::string, std::uint32_t> siteSeq;
    std::map<std::size_t, std::vector<Addr>> freeLists;
    std::map<Addr, Block> blocks; ///< Keyed by base address; live + dead.
    std::size_t bytesLive = 0;
};

} // namespace icheck::mem

#endif // ICHECK_MEM_ALLOC_HPP
