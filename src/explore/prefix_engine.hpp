#ifndef ICHECK_EXPLORE_PREFIX_ENGINE_HPP
#define ICHECK_EXPLORE_PREFIX_ENGINE_HPP

/**
 * @file
 * The explorer's run engines: the per-run tracker both run paths share,
 * the leased checkpoints, and the per-worker prefix engine.
 *
 * The systematic-testing explorer enumerates schedule prefixes. Cold
 * exploration re-executes every prefix from scratch, so a run at depth d
 * costs O(d + suffix). The prefix engine instead keeps one persistent
 * Machine per worker: a frontier node carries a lease on a checkpoint of
 * an ancestor of its prefix, so expanding it restores that checkpoint and
 * executes only the rest. Snapshots are cheap because SparseMemory forks
 * copy-on-write and fiber stacks image only their live region.
 *
 * A checkpoint exists only where a later run resumes from it, and only
 * while one still can:
 *
 *  - Placement. Under DPOR a run checkpoints at its own branch decision
 *    (prefix size - 1), where the siblings it emits at that decision
 *    resume with nothing to replay. Without DPOR, where every sibling
 *    past the prefix is emitted, it checkpoints every checkpointStride-th
 *    decision past the one it resumed from.
 *  - Leases. Every child a run emits holds the deepest checkpoint at or
 *    above its branch decision on the run's chain: the checkpoints the
 *    run took, then the one it resumed from and that one's ancestors
 *    (each checkpoint holds the checkpoint its run resumed from). The
 *    last lease dropped frees the checkpoint; nothing is ever evicted.
 *  - Cap. ExploreConfig::checkpointBudgetBytes caps the live checkpoint
 *    bytes of one search. At the cap a run skips new checkpoints; it
 *    never drops a lease, so the cap costs replay time, not results.
 *
 * Correctness bar: a restored state is bit-identical to the cold state at
 * the same decision, so every observation, pruning signature, hash, and
 * report is byte-identical whether checkpointing is on or off. Snapshots
 * are machine-affine: an engine resumes a lease only if its own machine
 * took it, and otherwise restores its own root snapshot (decision 0).
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "check/driver.hpp"
#include "explore/dpor.hpp"
#include "explore/explorer.hpp"
#include "explore/hb_signature.hpp"
#include "sim/machine.hpp"
#include "support/types.hpp"

namespace icheck::explore
{

namespace detail
{

/**
 * One run's pruning state and rule, shared by cold runOnce() and
 * PrefixEngine so the rule exists once. It owns the trackers the config
 * asks for (HB signature, DPOR slice analysis, sleep-set wake tracking);
 * onDecision() is the machine's decision handler and observe() builds
 * the RunObservation once the run has finished. The prefix engine
 * rewinds `hb` and `dpor` from its checkpoints.
 */
struct RunTracker
{
    explicit RunTracker(const ExploreConfig &config) : cfg(config) {}

    /** Subscribe the trackers cfg needs to @p machine, which will run
     *  @p program. */
    void attach(sim::Machine &machine, const sim::Program &program);

    /** Start a run past @p prefix; @p prefix and @p insert_sig must
     *  outlive it, and @p sleep (null = empty set) is the node's sleep
     *  set. */
    void begin(const std::vector<std::uint32_t> &prefix,
               const SignatureInsert &insert_sig, const SleepSet *sleep);

    /**
     * The decision handler. Closes the slice that just finished, then,
     * past the prefix and until the first repeat, inserts the decision's
     * pruning signature into the seen set; a repeat sets pruneAt.
     * @p executed is the scheduler's choice history, whose size is the
     * decision index (the handler runs before the pick).
     */
    void onDecision(const sim::Machine &machine,
                    const std::vector<ThreadId> &runnable,
                    const std::vector<std::uint32_t> &executed);

    /** The observation builder, for the run @p sched scripted. */
    RunObservation observe(const sim::Machine &machine,
                           const sim::ScriptedScheduler &sched);

    const ExploreConfig &cfg;
    HbTracker hb;     ///< Fed under HappensBefore pruning only.
    DporTracker dpor; ///< Fed under ExploreConfig::dpor only.
    SleepEval sleepEval;
    const std::vector<std::uint32_t> *prefix = nullptr;
    const SignatureInsert *insert = nullptr;
    std::size_t pruneAt = noDecision;
};

/**
 * Live checkpoint bytes of one search against its cap
 * (ExploreConfig::checkpointBudgetBytes), shared by the search's engines.
 * Root snapshots are not charged.
 */
class CheckpointBudget
{
  public:
    explicit CheckpointBudget(std::size_t cap_bytes) : cap(cap_bytes) {}

    /** Whether the live bytes already fill the cap. */
    bool
    full() const
    {
        return live.load(std::memory_order_relaxed) >= cap;
    }

    /** Charge @p bytes if they fit under the cap; false if not. */
    bool reserve(std::size_t bytes);

    /** Return @p bytes charged by reserve(). */
    void
    release(std::size_t bytes)
    {
        live.fetch_sub(bytes, std::memory_order_relaxed);
    }

    /** Highest live byte count reached. */
    std::size_t
    peakBytes() const
    {
        return peak.load(std::memory_order_relaxed);
    }

  private:
    const std::size_t cap;
    std::atomic<std::size_t> live{0};
    std::atomic<std::size_t> peak{0};
};

/**
 * One checkpoint: a machine snapshot taken at scheduling decision
 * `chosen.size()` of the schedule whose choice history is `chosen`,
 * together with everything needed to resume the scheduler and the
 * pruning listeners there. Held by shared_ptr: by the leases of the
 * frontier nodes that can resume from it, by the engine for the run in
 * flight, and by the checkpoints taken by runs that resumed from it.
 */
struct Checkpoint
{
    Checkpoint();
    ~Checkpoint();
    Checkpoint(const Checkpoint &) = delete;
    Checkpoint &operator=(const Checkpoint &) = delete;

    /** Engine that took the snapshot (snapshots are machine-affine). */
    std::size_t owner = 0;

    /// @name Scheduler history over the checkpointed prefix.
    /// @{
    std::vector<std::uint32_t> fanout;
    std::vector<std::uint32_t> chosen;
    std::vector<std::int32_t> prevIdx;
    ThreadId lastPick = invalidThreadId;
    /// @}

    std::shared_ptr<const sim::MachineSnapshot> snap;

    /** HB-tracker state at the decision (HappensBefore pruning only). */
    std::optional<HbTracker> hb;

    /** Slice-analysis state at the decision (DPOR only). */
    std::optional<DporTracker> dpor;

    /** The checkpoint the taking run resumed from (null for a root). */
    std::shared_ptr<const Checkpoint> parent;

    /** Bytes charged to `budget` (null for a root, which is free). */
    std::size_t bytes = 0;
    CheckpointBudget *budget = nullptr;

    /** Checkpoint depth: decisions already executed when it was taken. */
    std::size_t depth() const { return chosen.size(); }
};

/** Checkpoints alive in this process, roots included (tests assert that
 *  a finished search leaves none behind). */
std::uint64_t liveCheckpoints();

} // namespace detail

/**
 * One worker's exploration engine: a persistent Machine + Program pair
 * driven through the checkpoint/restore session API. runOnce() has the
 * exact observable behaviour of detail::runOnce() (cold), with which it
 * shares its detail::RunTracker, but restores the node's lease instead of
 * re-executing the prefix.
 */
class PrefixEngine
{
  public:
    /**
     * @param factory          Program factory (one instance per engine).
     * @param machine_template Machine configuration.
     * @param config           Exploration bounds; checkpoint knobs.
     * @param budget           The search's shared checkpoint cap.
     * @param owner            This engine's id among the search's.
     */
    PrefixEngine(const check::ProgramFactory &factory,
                 const sim::MachineConfig &machine_template,
                 const ExploreConfig &config, detail::CheckpointBudget &budget,
                 std::size_t owner);

    ~PrefixEngine();

    PrefixEngine(const PrefixEngine &) = delete;
    PrefixEngine &operator=(const PrefixEngine &) = delete;

    /** Whether prefix sharing works in this build (fiber snapshots). */
    static bool supported() { return sim::Machine::snapshotSupported(); }

    /**
     * Execute @p node's schedule (plus its default continuation) from its
     * lease, or from the root when the lease is another engine's, and
     * return the same observation cold runOnce() would.
     */
    detail::RunObservation runOnce(const detail::PendingNode &node,
                                   const detail::SignatureInsert &insert_sig);

    /**
     * The lease for a child the last run emitted at decision @p branch:
     * the deepest checkpoint at or above it on the run's chain (at worst
     * the root).
     */
    std::shared_ptr<const detail::Checkpoint>
    leaseAt(std::size_t branch) const;

    /** Per-engine counters; pagesCowCloned is refreshed here. */
    const ExploreStats &stats();

  private:
    void onDecision(const std::vector<ThreadId> &runnable);

    /** A checkpoint of the machine, scheduler and trackers as they are. */
    std::shared_ptr<detail::Checkpoint> capture();

    /** Add a capture() at the current decision to the chain, if it fits
     *  under the cap. */
    void takeCheckpoint();

    ExploreConfig cfg;
    detail::CheckpointBudget &budget;
    std::size_t owner;

    std::unique_ptr<sim::Program> program;
    sim::Machine machine;
    sim::ScriptedScheduler *sched = nullptr; ///< Owned by the machine.
    detail::RunTracker run;

    /** Decision-0 checkpoint, pinned for the machine's whole life. */
    std::shared_ptr<const detail::Checkpoint> root;

    /// @name The chain of the run in flight (or last finished).
    /// @{
    std::shared_ptr<const detail::Checkpoint> resumed;
    /** Checkpoints the run took, in increasing depth. */
    std::vector<std::shared_ptr<const detail::Checkpoint>> taken;
    /// @}

    ExploreStats counters;
};

} // namespace icheck::explore

#endif // ICHECK_EXPLORE_PREFIX_ENGINE_HPP
