#ifndef ICHECK_EXPLORE_DPOR_HPP
#define ICHECK_EXPLORE_DPOR_HPP

/**
 * @file
 * Dynamic partial-order reduction for the exploration engine.
 *
 * Instead of expanding every sibling at every scheduling decision, the
 * DPOR frontier expands only the siblings some observed *race* justifies
 * (Flanagan-Godefroid persistent sets): after each run, the slice-level
 * happens-before analysis (race::SliceHb) yields the pairs of unordered
 * conflicting slices; for each pair the later slice's thread is
 * scheduled at the earlier slice's decision, which is the one reordering
 * that can change behaviour. Everything that commutes is never
 * enumerated — one representative schedule per Mazurkiewicz trace.
 *
 * Three pieces adapt the classic DFS formulation to this repo's
 * prefix-frontier search (each run is a complete execution extending a
 * scripted prefix, runs may execute on any worker in any order):
 *
 *  - BranchLedger replaces the DFS stack's backtrack sets: a shared,
 *    exact trie over schedule decisions recording which children of
 *    which branch points were ever scheduled. The explored set is the
 *    least fixpoint of "run the root; emit every race-justified
 *    unclaimed child of every run" — order-independent, so coverage is
 *    identical at any --jobs.
 *  - Sleep sets ride on the frontier nodes: when a child is emitted at
 *    branch decision b, the thread the parent ran at b goes to sleep
 *    (its subtree from b is covered by the parent's own continuation),
 *    together with the parent's entries still asleep before b. A
 *    sleeping thread wakes when scheduled or when a slice conflicts
 *    with its recorded pending step; while asleep, race proposals for
 *    it are skipped. SleepEval tracks wake points online so the active
 *    sleep set can also be folded into the pruning signature — the
 *    known-unsound sleep-set x state-caching interaction is avoided by
 *    distinguishing states whose sleep sets differ.
 *  - Checkpoint placement: under DPOR a run checkpoints only at its own
 *    branch decision (prefix length - 1), and the children it emits
 *    lease that checkpoint or an ancestor's, so every sibling emitted
 *    at the branch restores with zero replayed decisions.
 */

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "explore/explorer.hpp"
#include "race/slice_hb.hpp"
#include "sim/listener.hpp"
#include "support/types.hpp"

namespace icheck::explore
{

/**
 * Listener + decision hook that segments a run into slices and feeds
 * them to the slice-level happens-before analyzer. A plain value:
 * copyable, so the prefix engine checkpoints it alongside a machine
 * snapshot and rewinds both together.
 */
class DporTracker : public sim::AccessListener
{
  public:
    /** Start a fresh run; the prelude slice opens immediately. */
    void reset(ThreadId setup_tid);

    void
    onStore(const sim::StoreEvent &event) override
    {
        if (event.domain != sim::CostDomain::Native)
            return;
        hbState.record(race::SliceHb::Op::Write, event.addr & ~Addr{7});
    }

    void
    onLoad(const sim::LoadEvent &event) override
    {
        hbState.record(race::SliceHb::Op::Read, event.addr & ~Addr{7});
    }

    void onSync(const sim::SyncEvent &event) override;

    /**
     * Decision hook: close the slice that just finished (its chosen
     * thread is now known from the executed history) and open the next.
     * Re-invocations at the same decision (the handler fires again after
     * a checkpoint restore) are idempotent.
     *
     * @param runnable Runnable threads at this decision (ascending tid).
     * @param chosen   Executed choice history; size() == decision index.
     */
    void onDecision(const std::vector<ThreadId> &runnable,
                    const std::vector<std::uint32_t> &chosen);

    /** Close the final slice once the program has ended. */
    void finishRun(const std::vector<std::uint32_t> &chosen);

    const race::SliceHb &hb() const { return hbState; }

    /**
     * Move this run's observations out (pairing them with @p wake_at
     * from the run's SleepEval). The tracker must be reset() or
     * assigned from a checkpoint before the next run.
     */
    detail::DporRunData takeRunData(std::vector<std::size_t> wake_at);

  private:
    void closeOpenSlice(const std::vector<std::uint32_t> &chosen);

    race::SliceHb hbState;
    detail::RunnableLists runnableLists;
    /** Decision index of the open slice; noDecision = the prelude. */
    std::size_t openDecision = noDecision;
    bool finished = false;
    ThreadId setupTid = 0;
};

/**
 * Online wake tracking for one run's sleep set: advances over the
 * analyzer's closed slices and records, per entry, the first decision at
 * or past the branch whose slice woke it. Folding the still-active
 * entries into the pruning signature keeps sleep sets sound under
 * hb/state pruning.
 */
class SleepEval
{
  public:
    /** Start a run: @p sleep may be null (empty set). */
    void reset(const detail::SleepSet *sleep, std::size_t branch_decision);

    /** Process slices closed since the last call. */
    void advance(const race::SliceHb &hb);

    /** Mix the still-asleep entries (sorted by tid) into @p sig. */
    std::uint64_t foldActive(std::uint64_t sig) const;

    /** Per-entry wake decisions (noDecision = slept to the end). */
    std::vector<std::size_t> takeWakeAt() { return std::move(wake); }

  private:
    const detail::SleepSet *entries = nullptr;
    std::size_t branch = 0;
    std::size_t nextSlice = 0;
    std::vector<std::size_t> wake;
};

/**
 * Shared registry of scheduled branch-point children: the prefix-frontier
 * replacement for DFS backtrack sets. An exact trie over schedule
 * decisions — a node per schedule prefix, an edge per choice — kept in
 * one array under one mutex; a node is *claimed* once its prefix was
 * scheduled as a child of its parent. Exactness matters: a false
 * "already claimed" would silently drop coverage. Safe from any worker.
 */
class BranchLedger
{
  public:
    /** A trie node: the schedule prefix a walk reached. */
    using NodeId = std::uint32_t;

    /**
     * Claim child @p choice of the branch point reached by
     * @p path[0..len). True if this (prefix, choice) pair was new.
     */
    bool claim(const std::uint32_t *path, std::size_t len,
               std::uint32_t choice);

    /**
     * Walk @p path[0..len) once: claim the child taken at every decision
     * at or past @p from, and set @p trail[d] to the node of prefix
     * @p path[0..d) for every d <= len.
     */
    void walk(const std::uint32_t *path, std::size_t len, std::size_t from,
              std::vector<NodeId> &trail);

    /** Claim child @p choice of node @p at. True if it was new. */
    bool claimChild(NodeId at, std::uint32_t choice);

  private:
    struct Node
    {
        std::uint32_t choice = 0;
        NodeId firstChild = 0; ///< 0 = none: the root is nobody's child.
        NodeId nextSibling = 0;
        bool claimed = false;
    };

    /** Child @p choice of @p at, created unclaimed if absent; mu held. */
    NodeId childOf(NodeId at, std::uint32_t choice);

    std::mutex mu;
    std::vector<Node> nodes = std::vector<Node>(1); ///< [0]: the empty prefix.
};

namespace detail
{

/**
 * DPOR counterpart of expandBranches(): register this run's executed
 * children in the ledger, then emit one child node per race-justified,
 * unclaimed, awake sibling. Counter parity: counts.pruned counts
 * siblings past the pruning limit exactly as expandBranches does;
 * stats.dporPruned counts in-scope siblings no race justified.
 */
ExpandCounts
expandDpor(const RunObservation &obs, const PendingNode &node,
           const ExploreConfig &config, BranchLedger &ledger,
           ExploreStats &stats,
           const std::function<void(PendingNode)> &emit);

} // namespace detail

} // namespace icheck::explore

#endif // ICHECK_EXPLORE_DPOR_HPP
