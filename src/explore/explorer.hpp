#ifndef ICHECK_EXPLORE_EXPLORER_HPP
#define ICHECK_EXPLORE_EXPLORER_HPP

/**
 * @file
 * Bounded systematic-testing explorer (Section 6.2).
 *
 * Enumerates thread interleavings of a small program over scheduling
 * choices (ScriptedScheduler) and compares three search-space reduction
 * strategies:
 *
 *  - None: exhaustive enumeration;
 *  - HappensBefore: do not expand branches from a run whose happens-before
 *    signature was already seen (the approximation CHESS uses);
 *  - StateHash: do not expand branches past the first scheduling decision
 *    whose machine state (InstantCheck State Hash + per-thread progress)
 *    was already seen.
 *
 * The paper's Figure 1 argument is exactly that the two runs lead to the
 * same state but different happens-before, so state pruning merges what
 * happens-before pruning cannot. The pruning signature includes per-thread
 * progress counters as a program-counter proxy; it is exact for programs
 * whose thread-local state is a function of progress — true of the small
 * test programs used here.
 *
 * One search loop serves every job count: a frontier of schedule
 * prefixes feeds the workers, each executes one scripted run, expands
 * its unexplored branches and pushes them on its own LIFO stack (an idle
 * worker steals another's oldest node), and the pruning signature set is
 * shared and shard-locked, so a state reached by any worker prunes every
 * other worker's branches.
 *
 * Determinism contract: with one worker the search order, and so the
 * whole ExploreResult, is a function of the inputs. With more, which run
 * first claims a signature depends on worker timing. With pruning off
 * the set of executed prefixes is still exactly the one-worker set (each
 * prefix is generated once, by its designated parent), so runsExecuted
 * and finalStates match whenever the search completes within maxRuns.
 * With pruning on, runsExecuted may differ run to run, but pruning only
 * ever skips continuations of already-seen states, so an exhausted
 * search still reports the same finalStates.
 */

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "check/driver.hpp"
#include "explore/explore_constants.hpp"
#include "race/slice_hb.hpp"
#include "sim/chrome_trace.hpp"
#include "sim/machine.hpp"
#include "support/types.hpp"

namespace icheck::explore
{

/** Search-space reduction strategy. */
enum class PruneMode
{
    None,
    HappensBefore,
    StateHash,
};

/** Exploration bounds and scheduling granularity. */
struct ExploreConfig
{
    PruneMode prune = PruneMode::None;

    /**
     * Dynamic partial-order reduction (`--prune dpor`), composable with
     * any base prune mode: instead of expanding every sibling at every
     * decision, expand only the siblings some observed race justifies —
     * one representative schedule per Mazurkiewicz trace. Sound for
     * final-state coverage: commuting independent slices cannot change
     * any outcome, so the reduced search reports the same finalStates
     * (and finds the same seeded bugs) as exhaustive enumeration.
     * Unsound only in combination with a maxPreemptions bound (the
     * classic DPOR/bounding interaction), which is therefore not part
     * of any equivalence guarantee.
     */
    bool dpor = false;

    /** Hard cap on executed runs. */
    int maxRuns = 20000;

    /** Accesses per slice; 1 interleaves at every access. */
    std::uint64_t quantum = 1;

    /** Cap on scheduling decisions considered for branching per run. */
    std::size_t maxDepth = 4096;

    /**
     * CHESS-style iterative context bounding: maximum *preemptive*
     * context switches per explored schedule (switching away from a
     * thread that is still runnable). Unbounded by default. With a
     * bound, default continuations are preemption-free and branches
     * whose preemption count would exceed the bound are skipped.
     */
    std::size_t maxPreemptions = noDecision;

    /**
     * Share schedule prefixes between runs via machine checkpoints: a
     * frontier node restores the checkpoint it leases (an ancestor of its
     * prefix) and executes only the rest, instead of cold re-running the
     * whole prefix. Pure performance for programs that keep only
     * trivially destructible state on their thread stacks (the
     * SimFiber::restore contract) — every observation, report, and hash
     * is then byte-identical with this on or off. Automatically falls
     * back to cold re-execution in builds without fiber snapshots
     * (TSan).
     */
    bool checkpoints = true;

    /**
     * Hard cap on the bytes of the search's live checkpoints. At the cap
     * runs skip new checkpoints; no lease is dropped and no result
     * changes, only more decisions are replayed.
     */
    std::size_t checkpointBudgetBytes = 64ULL << 20;

    /**
     * When non-empty, write one Chrome trace-event JSON per executed
     * run into this directory (`icheck explore --trace-dir`). Forces
     * cold runs so every trace covers its schedule from the start.
     */
    std::string traceDir;
};

/**
 * Observability counters of one exploration (the `icheck explore
 * --stats` JSON footer). Pure metadata: excluded from any equivalence
 * comparison between checkpointing and cold exploration.
 */
struct ExploreStats
{
    bool checkpointing = false; ///< Prefix sharing actually in effect.
    std::uint64_t nodesExpanded = 0;      ///< Schedules executed.
    std::uint64_t checkpointHits = 0;     ///< Runs resumed from a lease.
    std::uint64_t checkpointMisses = 0;   ///< Runs replayed from the root.
    std::uint64_t checkpointsCreated = 0; ///< Checkpoints taken (no roots).
    std::uint64_t checkpointsEvicted = 0; ///< Checkpoints skipped at the cap.
    std::uint64_t checkpointBytes = 0;    ///< Peak live checkpoint bytes.
    std::uint64_t pagesCowCloned = 0;     ///< COW page copies performed.
    std::uint64_t decisionsRestored = 0;  ///< Decisions skipped via restore.
    std::uint64_t decisionsExecuted = 0;  ///< Decisions actually simulated.
    std::uint64_t sigInserts = 0;         ///< Seen-set insert attempts.
    std::uint64_t sigUnique = 0;          ///< ... that were new.

    /// @name DPOR counters (all zero unless ExploreConfig::dpor).
    /// @{
    bool dporActive = false;            ///< DPOR actually in effect.
    std::uint64_t tracesExplored = 0;   ///< Representative schedules run.
    std::uint64_t dporRaces = 0;        ///< Racing slice pairs observed.
    std::uint64_t backtracksInserted = 0; ///< Race-justified children emitted.
    std::uint64_t sleepSetHits = 0;     ///< Proposals skipped: thread asleep.
    std::uint64_t dporPruned = 0;       ///< Siblings no race justified.
    /// @}

    /** Accumulate @p other (counter sums; flags OR). */
    void merge(const ExploreStats &other);
};

/**
 * Render @p stats as the canonical single-line JSON object that
 * `icheck explore --stats` prints. Fixed key order, fixed "%.4f"
 * dedup-rate formatting — consumers diff these lines byte-for-byte.
 */
std::string renderStatsJson(const ExploreStats &stats);

/** Exploration outcome. */
struct ExploreResult
{
    int runsExecuted = 0;
    std::uint64_t branchesPruned = 0;
    std::uint64_t branchesBoundedOut = 0; ///< Skipped by the preemption bound.
    bool exhausted = false; ///< True if the full tree was covered.
    std::set<HashWord> finalStates;

    /** Observability counters (not part of the exploration outcome). */
    ExploreStats stats;
};

/**
 * Explore interleavings of programs from @p factory on machines built
 * from @p machine_template, over @p jobs >= 1 workers: the calling thread
 * plus jobs - 1 helper threads, joined before returning.
 */
ExploreResult explore(const check::ProgramFactory &factory,
                      const sim::MachineConfig &machine_template,
                      const ExploreConfig &config, int jobs = 1);

namespace detail
{

/**
 * The single-run / branch-expansion engine underneath explore(), exposed
 * for the prefix engine, the DPOR expansion and the benches.
 */

/**
 * One sleeping thread: while no executed slice conflicts with `next`
 * (its pending step, recorded when it was put to sleep) and the thread
 * itself is not scheduled, any continuation that wakes it commutes back
 * to the branch point whose alternative already covers it.
 */
struct SleepEntry
{
    ThreadId tid = 0;
    race::SliceFootprint next;
};

/** A frontier node's sleep set, sorted by tid (deterministic folds). */
using SleepSet = std::vector<SleepEntry>;

struct Checkpoint; // prefix_engine.hpp

/**
 * One frontier node: a schedule prefix, its inherited sleep set, and a
 * lease on the checkpoint it resumes from (null when exploring cold).
 */
struct PendingNode
{
    std::vector<std::uint32_t> prefix;
    SleepSet sleep; ///< Empty unless ExploreConfig::dpor.
    std::shared_ptr<const Checkpoint> lease;
};

/**
 * The runnable thread list of every decision of a run, flattened into one
 * tid array plus per-decision end offsets, so a copy is two array copies.
 */
class RunnableLists
{
  public:
    /** Runnable threads at decision @p d (ascending tid order). */
    std::span<const ThreadId>
    operator[](std::size_t d) const
    {
        const std::size_t begin = d == 0 ? 0 : ends[d - 1];
        return std::span<const ThreadId>(tids).subspan(begin,
                                                       ends[d] - begin);
    }

    /** Append the next decision's list. */
    void
    push_back(const std::vector<ThreadId> &list)
    {
        tids.insert(tids.end(), list.begin(), list.end());
        ends.push_back(tids.size());
    }

    /** Replace the newest decision's list (size() > 0). */
    void
    replaceLast(const std::vector<ThreadId> &list)
    {
        ends.pop_back();
        tids.resize(ends.empty() ? 0 : ends.back());
        push_back(list);
    }

    void
    clear()
    {
        tids.clear();
        ends.clear();
    }

  private:
    std::vector<ThreadId> tids;
    std::vector<std::size_t> ends;
};

/** Per-run DPOR observations (attached to RunObservation when on). */
struct DporRunData
{
    /** Slice conflict/order analysis of the whole run. */
    race::SliceHb hb;

    /** Runnable thread list at each decision. */
    RunnableLists runnables;

    /**
     * Per input sleep entry: decision index of the first slice at or
     * past the branch that woke it (scheduled the thread or conflicted
     * with its pending step), or noDecision if it slept to the end.
     */
    std::vector<std::size_t> wakeAt;
};

/** Everything observed during one scripted run. */
struct RunObservation
{
    std::vector<std::uint32_t> fanout;
    std::vector<std::uint32_t> path; ///< Choice taken at each decision.
    std::vector<std::int32_t> prevIdx; ///< Previous-thread index per decision.
    std::vector<std::size_t> preemptionsBefore; ///< Prefix preemption counts.
    std::size_t pruneAt = noDecision;
    HashWord finalState = 0;

    /** DPOR observations; null unless ExploreConfig::dpor. */
    std::shared_ptr<const DporRunData> dpor;
};

/**
 * Insert a pruning signature into the seen set; returns true if the
 * signature was new. explore() backs this with a SignatureSet shared by
 * its workers.
 */
using SignatureInsert = std::function<bool(std::uint64_t)>;

/**
 * The seen set of pruning signatures: a state reached by any worker
 * prunes every worker's branches, without one hot lock. 64 shards, each
 * under its own mutex and each an open-addressing table with linear
 * probing, grown at 3/4 load; 0 marks an empty slot, so signature 0 is a
 * flag of its own. Signatures arrive avalanche-mixed, so their bits are
 * used as they are: the low 6 pick the shard and the ones above them the
 * probe start.
 */
class SignatureSet
{
  public:
    static constexpr std::size_t numShards = 64;

    /** Insert @p sig; true if it was new. Safe from any thread. */
    bool insert(std::uint64_t sig);

  private:
    struct Shard
    {
        std::mutex mu;
        std::vector<std::uint64_t> slots; ///< Power-of-two size; 0 = empty.
        std::size_t used = 0;
        bool hasZero = false;
    };
    std::array<Shard, numShards> shards;
};

/**
 * Execute one scripted run continuing past @p prefix. @p sleep is the
 * frontier node's sleep set (used, under DPOR, for wake tracking and the
 * pruning-signature fold); null is an empty set. @p trace, when non-null,
 * is attached as a run listener (ExploreConfig::traceDir plumbing).
 */
RunObservation runOnce(const check::ProgramFactory &factory,
                       const sim::MachineConfig &machine_template,
                       const ExploreConfig &config,
                       const std::vector<std::uint32_t> &prefix,
                       const SignatureInsert &insert_sig,
                       const SleepSet *sleep = nullptr,
                       sim::ChromeTraceBuilder *trace = nullptr);

/** Write @p trace as `<dir>/run-NNNNN.json` (claim-order @p ordinal);
 *  fatal when the directory is missing or unwritable. */
void writeRunTrace(const std::string &dir, int ordinal,
                   const sim::ChromeTraceBuilder &trace);

/** Branches not expanded (per-observation pruning/bounding counts). */
struct ExpandCounts
{
    std::uint64_t pruned = 0;
    std::uint64_t boundedOut = 0;
};

/**
 * Enumerate the unexplored child prefixes of @p obs (decisions at or past
 * @p prefix_size), calling @p emit for each; pruned and bounded-out
 * branches are counted instead of emitted. The designated (executed)
 * child is never emitted, so each prefix is generated exactly once across
 * the whole search regardless of which worker expands it.
 */
ExpandCounts
expandBranches(const RunObservation &obs, std::size_t prefix_size,
               const ExploreConfig &config,
               const std::function<void(std::vector<std::uint32_t>)> &emit);

} // namespace detail

} // namespace icheck::explore

#endif // ICHECK_EXPLORE_EXPLORER_HPP
