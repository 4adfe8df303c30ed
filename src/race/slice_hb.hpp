#ifndef ICHECK_RACE_SLICE_HB_HPP
#define ICHECK_RACE_SLICE_HB_HPP

/**
 * @file
 * Slice-granularity happens-before analysis for dynamic partial-order
 * reduction.
 *
 * The systematic-testing explorer divides a run into *slices*: the events
 * a thread executes between two consecutive scheduling decisions. DPOR
 * needs to know, for each pair of slices, whether they conflict (touch a
 * common location, at least one writing, or contend for the same
 * synchronization object) and whether they are ordered by happens-before.
 * A pair that conflicts while unordered is a *race*: executing the two
 * slices in the other order can change the behaviour, so the explorer
 * must schedule the later slice's thread at the earlier slice's decision.
 *
 * This analyzer is FastTrack-shaped but at slice granularity: one vector
 * clock per thread counting completed slices, per-granule last-write
 * epochs plus per-thread read epochs, and per-object clocks for mutexes,
 * condition variables, and barriers. Two deliberate differences from the
 * exploration HbTracker:
 *
 *  - read-read is *not* a dependency (two reads commute, so ordering
 *    them would hide real reduction opportunities);
 *  - mutex acquire-acquire pairs *are* races even though the
 *    release-acquire join orders them in the observed execution —
 *    acquisition order is exactly the nondeterminism lock-based programs
 *    exhibit, so DPOR must explore both orders.
 *
 * The analyzer is a plain value: copyable and assignable, so the
 * prefix-sharing explorer checkpoints it alongside a machine snapshot
 * and rewinds both together. Its state is flat so that copy is cheap:
 * slices are plain rows over one shared footprint array, and granule,
 * mutex, condition-variable and barrier-epoch state lives in
 * open-addressing tables of fixed-width rows holding one clock word (and,
 * for granules, one reader slot) per thread. A copy is a handful of
 * array copies, whatever the number of slices or objects.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "support/types.hpp"

namespace icheck::race
{

/** One object a slice touched, and whether it can change state. */
struct SliceRef
{
    std::uint64_t object = 0;
    bool write = false;

    bool
    operator<(const SliceRef &other) const
    {
        return object != other.object ? object < other.object
                                      : write < other.write;
    }
    bool operator==(const SliceRef &) const = default;
};

/** A slice's deduplicated access set, sorted by object. */
using SliceFootprint = std::vector<SliceRef>;

/** A footprint viewed in place (owned by a SliceFootprint or an analyzer). */
using FootprintView = std::span<const SliceRef>;

/**
 * Whether two footprints conflict: they share an object and at least one
 * side writes it. Disjoint slices commute — executing them in either
 * order yields identical per-access behaviour — which is the soundness
 * basis of both race-driven backtracking and sleep sets.
 */
bool footprintsConflict(FootprintView a, FootprintView b);

/** Namespaced object keys: data granules share the address space. */
inline std::uint64_t
mutexKey(std::uint32_t id)
{
    return (0xAULL << 56) | id;
}
inline std::uint64_t
condKey(std::uint32_t id)
{
    return (0xCULL << 56) | id;
}
inline std::uint64_t
barrierKey(std::uint32_t id)
{
    return (0xBULL << 56) | id;
}

/**
 * Incremental slice-granularity happens-before analyzer.
 *
 * Usage: record() the open slice's operations as they happen, then
 * closeSlice() when the next scheduling decision is reached, attributing
 * the slice to the thread that executed it. Races are detected at close
 * time, against the most recent unordered conflicting slice — exactly
 * the adjacent pairs DPOR backtracks on (earlier conflicts are ordered
 * by conflict closure and surface recursively in the subtrees the
 * backtracks open).
 *
 * The first slice is the *prelude*: program setup, closed with
 * decision == noIndex. Its effects are ordered before every thread's
 * first slice (threads start after setup), so it never races and is
 * never a backtrack target.
 */
class SliceHb
{
  public:
    /** "No slice / no decision" sentinel. */
    static constexpr std::size_t noIndex = ~std::size_t{0};

    /** Operations a slice can record. */
    enum class Op : std::uint8_t
    {
        Read,
        Write,
        Acquire,
        Release,
        CondSignal,
        CondWait,
        BarrierArrive,
        BarrierLeave,
    };

    /** An unordered conflicting slice pair (indices into the run). */
    struct Race
    {
        std::size_t earlier = 0;
        std::size_t later = 0;
    };

    /**
     * @param setup_tid Pseudo-thread the prelude slice is attributed to;
     *                  pass the program's thread count so it collides
     *                  with no real thread id. Clocks get one slot per
     *                  thread 0..setup_tid, and widen if a slice of a
     *                  higher thread id closes.
     */
    explicit SliceHb(ThreadId setup_tid = 0) { reset(setup_tid); }

    /** Start over as SliceHb(@p setup_tid), keeping allocated capacity. */
    void reset(ThreadId setup_tid);

    /** Record one operation into the open slice. */
    void
    record(Op op, std::uint64_t object, std::uint64_t epoch = 0)
    {
        pending.push_back({op, object, epoch});
    }

    /**
     * Close the open slice: attribute it to @p tid at scheduling decision
     * @p decision (noIndex for the prelude), run race detection and the
     * clock algebra over its operations, and start a new open slice.
     */
    void closeSlice(ThreadId tid, std::size_t decision);

    /** Races detected so far, in detection order, deduplicated. */
    const std::vector<Race> &races() const { return raceList; }

    /// @name Closed-slice metadata.
    /// @{
    std::size_t sliceCount() const { return slices.size(); }
    ThreadId sliceTid(std::size_t i) const { return slices[i].tid; }
    std::size_t
    sliceDecision(std::size_t i) const
    {
        return slices[i].decision;
    }
    /** Slice @p i's footprint in place; valid until the next closeSlice(). */
    FootprintView
    sliceFootprintView(std::size_t i) const
    {
        return FootprintView(footprints).subspan(
            slices[i].footBegin, slices[i].footEnd - slices[i].footBegin);
    }
    /** An owning copy of slice @p i's footprint. */
    SliceFootprint
    sliceFootprint(std::size_t i) const
    {
        const FootprintView view = sliceFootprintView(i);
        return SliceFootprint(view.begin(), view.end());
    }
    /// @}

    /** Whether the open slice has recorded no operations yet. */
    bool openSliceEmpty() const { return pending.empty(); }

  private:
    struct PendingOp
    {
        Op op;
        std::uint64_t object;
        std::uint64_t epoch;
    };

    /** One closed slice: a plain row over the shared footprint array. */
    struct SliceRow
    {
        std::size_t decision = noIndex;
        /**
         * The later slice this one was last reported racing with. Every
         * race noted while closing slice L has later == L, so this one
         * word per slice deduplicates the race list.
         */
        std::size_t racedWith = noIndex;
        std::size_t footBegin = 0; ///< Footprint: footprints[begin, end).
        std::size_t footEnd = 0;
        ThreadId tid = 0;
    };

    /**
     * Open-addressing map from an (object, epoch) key to a row of words:
     * a header (the key, then the last access's (tid, clock) epoch and
     * slice; clock 0 = none yet) followed by `sections` arrays of one
     * word per clock slot. A power-of-two index of row numbers sits over
     * the dense, insertion-ordered row array; nothing iterates the index,
     * so results never depend on its order.
     */
    class RowTable
    {
      public:
        /// @name Header word offsets.
        /// @{
        static constexpr std::size_t kTid = 2;
        static constexpr std::size_t kClock = 3;
        static constexpr std::size_t kSlice = 4;
        static constexpr std::size_t kHeader = 5;
        /// @}

        explicit RowTable(std::size_t sections) : sectionCount(sections) {}

        /**
         * Row of (@p object, @p epoch), appended zeroed if absent. The
         * pointer is valid until the next row() or widen().
         */
        std::uint64_t *row(std::uint64_t object, std::uint64_t epoch);

        /** Drop every row; rows get @p width slots per section. */
        void clear(std::size_t width);

        /** Re-lay every row from @p from to @p to slots per section. */
        void widen(std::size_t from, std::size_t to);

      private:
        void rebuildIndex(std::size_t slots);

        std::size_t sectionCount;
        std::size_t stride = kHeader;
        std::vector<std::uint32_t> index; ///< Row number + 1; 0 = empty.
        std::vector<std::uint64_t> rows;
    };

    /** Thread @p tid's clock (width words), joined to the base on first use. */
    std::uint64_t *clockOf(ThreadId tid);
    void widen(std::size_t to);
    void noteRace(std::size_t earlier, std::size_t later);
    /** Append the open slice's footprint: sorted by object, writes OR-ed. */
    void appendFootprint();

    std::size_t width = 1; ///< Clock slots: every thread id is below it.
    std::vector<PendingOp> pending;
    std::vector<SliceRow> slices;
    std::vector<SliceRef> footprints; ///< Every slice's footprint in turn.
    std::vector<Race> raceList;

    /**
     * width + 1 clocks of width words: thread t's at row t, then the
     * clock the prelude published, which thread clocks start from.
     */
    std::vector<std::uint64_t> clocks;
    std::vector<std::uint8_t> clockInited; ///< Per thread: joined the base.

    /** Sections: write clock, reader epochs (0 = none), reader slices. */
    RowTable granules{3};
    RowTable mutexes{1};  ///< Section: the clock the last release published.
    RowTable conds{1};    ///< Section: the clock signals published.
    RowTable barriers{1}; ///< Keyed (barrier, epoch); section: the gather.
};

} // namespace icheck::race

#endif // ICHECK_RACE_SLICE_HB_HPP
