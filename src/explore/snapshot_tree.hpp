#ifndef ICHECK_EXPLORE_SNAPSHOT_TREE_HPP
#define ICHECK_EXPLORE_SNAPSHOT_TREE_HPP

/**
 * @file
 * The explorer's run engines: the per-run tracker both run paths share,
 * the checkpoint tree, and the per-worker prefix engine.
 *
 * The systematic-testing explorer enumerates schedule prefixes. Cold
 * exploration re-executes every prefix from scratch, so a run at depth d
 * costs O(d + suffix). The prefix engine instead keeps one persistent
 * Machine per worker and a shared tree of MachineSnapshots keyed by
 * (worker, schedule prefix): expanding a frontier node restores the
 * deepest checkpointed ancestor of its prefix and executes only the
 * suffix. Snapshots are cheap because SparseMemory forks copy-on-write
 * and fiber stacks image only their live region.
 *
 * Correctness bar: a restored state is bit-identical to the cold state at
 * the same decision, so every observation, pruning signature, hash, and
 * report is byte-identical whether checkpointing is on or off. The tree
 * is bounded: least-recently-used entries are evicted past a byte budget,
 * and a worker that restores from an entry holds a shared_ptr lease so
 * eviction can never free a snapshot out from under it. The root snapshot
 * of each engine is pinned outside the tree, so eviction can never force
 * an impossible cold restart.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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

} // namespace detail

/**
 * One checkpoint: a machine snapshot taken at scheduling decision
 * `chosen.size()` of the schedule whose choice history is `chosen`,
 * together with everything needed to resume the scheduler and the
 * pruning listeners at that decision.
 */
struct CheckpointEntry
{
    /** Engine that produced the snapshot (snapshots are machine-affine). */
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
    std::shared_ptr<const HbTracker> hb;

    /** Slice-analysis state at the decision (DPOR only). */
    std::shared_ptr<const DporTracker> dpor;

    /** Checkpoint depth: decisions already executed when it was taken. */
    std::size_t depth() const { return chosen.size(); }

    /** Footprint charged against the tree budget. */
    std::size_t bytes = 0;

    /** Logical timestamp of the last lookup/insert (LRU eviction). */
    std::uint64_t lastUse = 0;
};

/**
 * Bounded, sharded map from (owner, schedule prefix) to checkpoints.
 * Thread-safe: shards are guarded by their own mutexes, so parallel
 * workers contend only when their prefixes hash to the same shard.
 * Lookups return shared_ptr leases; eviction drops the tree's reference
 * but never invalidates a lease already handed out.
 */
class CheckpointTree
{
  public:
    explicit CheckpointTree(std::size_t budget_bytes);

    /**
     * Insert @p entry, evicting least-recently-used entries from its
     * shard if the shard's slice of the budget would overflow.
     */
    void insert(CheckpointEntry entry);

    /**
     * Deepest checkpoint of @p owner whose choice history is a prefix of
     * @p prefix (possibly all of it), or null when none survives.
     */
    std::shared_ptr<const CheckpointEntry>
    deepestAncestor(std::size_t owner,
                    const std::vector<std::uint32_t> &prefix);

    /** Whether a checkpoint for exactly (owner, prefix) is resident. */
    bool contains(std::size_t owner,
                  const std::vector<std::uint32_t> &prefix);

    /**
     * contains() with the key already computed — the prefix engine
     * maintains the rolling hash of its executed path incrementally, so
     * the per-decision residency probe stays O(1) instead of rehashing
     * the whole history (O(depth^2) per run).
     */
    bool containsKeyed(std::uint64_t key, std::size_t owner,
                       const std::vector<std::uint32_t> &prefix);

    /** Rolling hash of (owner, choices[0..count)); see containsKeyed(). */
    static std::uint64_t hashPrefix(std::size_t owner,
                                    const std::uint32_t *choices,
                                    std::size_t count);

    /// @name Tree-wide counters (aggregated across shards).
    /// @{
    std::uint64_t createdCount() const;
    std::uint64_t evictedCount() const;
    std::uint64_t residentBytes() const;
    /// @}

  private:
    static constexpr std::size_t numShards = 16;

    struct Shard
    {
        mutable std::mutex mu;
        /** Ordered map: iteration order is deterministic (lint rule D1);
         *  keyed by the prefix hash, with collisions resolved by the
         *  exact-history compare in the entry. */
        std::map<std::uint64_t, std::shared_ptr<CheckpointEntry>> entries;
        std::size_t bytesResident = 0;
        std::uint64_t created = 0;
        std::uint64_t evicted = 0;
    };

    Shard &shardFor(std::uint64_t key) { return shards[key % numShards]; }

    /** Evict LRU entries from @p shard until @p need more bytes fit. */
    static void evictFor(Shard &shard, std::size_t need,
                         std::size_t shard_budget);

    std::array<Shard, numShards> shards;
    std::size_t shardBudget;
    std::atomic<std::uint64_t> useClock{0};
};

/**
 * One worker's exploration engine: a persistent Machine + Program pair
 * driven through the checkpoint/restore session API. runOnce() has the
 * exact observable behaviour of detail::runOnce() (cold), with which it
 * shares its detail::RunTracker, but restores the deepest resident
 * ancestor checkpoint instead of re-executing the prefix.
 */
class PrefixEngine
{
  public:
    /**
     * @param factory          Program factory (one instance per engine).
     * @param machine_template Machine configuration.
     * @param config           Exploration bounds; checkpoint knobs.
     * @param tree             Shared checkpoint tree.
     * @param owner            This engine's id within the tree.
     */
    PrefixEngine(const check::ProgramFactory &factory,
                 const sim::MachineConfig &machine_template,
                 const ExploreConfig &config, CheckpointTree &tree,
                 std::size_t owner);

    ~PrefixEngine();

    PrefixEngine(const PrefixEngine &) = delete;
    PrefixEngine &operator=(const PrefixEngine &) = delete;

    /** Whether prefix sharing works in this build (fiber snapshots). */
    static bool supported() { return sim::Machine::snapshotSupported(); }

    /**
     * Execute the schedule @p prefix (plus its default continuation) and
     * return the same observation cold runOnce() would.
     */
    detail::RunObservation
    runOnce(const std::vector<std::uint32_t> &prefix,
            const detail::SignatureInsert &insert_sig,
            const detail::SleepSet *sleep = nullptr);

    /**
     * Per-engine counters. checkpointBytes/created/evicted are tree-wide
     * and filled by the caller; pagesCowCloned is refreshed here.
     */
    const ExploreStats &stats();

  private:
    void onDecision(const std::vector<ThreadId> &runnable);

    ExploreConfig cfg;
    CheckpointTree &tree;
    std::size_t owner;

    std::unique_ptr<sim::Program> program;
    sim::Machine machine;
    sim::ScriptedScheduler *sched = nullptr; ///< Owned by the machine.
    detail::RunTracker run;

    /** Decision-0 snapshot, pinned for the machine's whole life: kept
     *  outside the tree so eviction can never force an impossible cold
     *  restart of the persistent machine. */
    std::shared_ptr<const sim::MachineSnapshot> rootSnap;

    /// @name Tracker states right after setup (the decision-0 values).
    /// @{
    HbTracker rootHb;
    DporTracker rootDpor;
    /// @}

    /** Rolling CheckpointTree::hashPrefix of the executed path, folded
     *  incrementally as the scheduler appends choices. */
    std::uint64_t pathHash = 0;
    std::size_t pathHashLen = 0;

    ExploreStats counters;
};

} // namespace icheck::explore

#endif // ICHECK_EXPLORE_SNAPSHOT_TREE_HPP
