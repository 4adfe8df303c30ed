#include "explore/dpor.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "explore/hb_signature.hpp"
#include "support/logging.hpp"

namespace icheck::explore
{

// ---------------------------------------------------------------------------
// DporTracker

void
DporTracker::reset(ThreadId setup_tid)
{
    setupTid = setup_tid;
    hbState.reset(setup_tid);
    runnableLists.clear();
    openDecision = noDecision;
    finished = false;
}

void
DporTracker::onSync(const sim::SyncEvent &event)
{
    switch (event.kind) {
      case sim::SyncKind::LockAcquire:
        hbState.record(race::SliceHb::Op::Acquire, race::mutexKey(event.object));
        break;
      case sim::SyncKind::LockRelease:
        hbState.record(race::SliceHb::Op::Release, race::mutexKey(event.object));
        break;
      case sim::SyncKind::CondSignal:
        hbState.record(race::SliceHb::Op::CondSignal,
                       race::condKey(event.object));
        break;
      case sim::SyncKind::CondWait:
        hbState.record(race::SliceHb::Op::CondWait, race::condKey(event.object));
        break;
      case sim::SyncKind::BarrierArrive:
        hbState.record(race::SliceHb::Op::BarrierArrive,
                       race::barrierKey(event.object), event.epoch);
        break;
      case sim::SyncKind::BarrierLeave:
        hbState.record(race::SliceHb::Op::BarrierLeave,
                       race::barrierKey(event.object), event.epoch);
        break;
      case sim::SyncKind::ThreadStart:
      case sim::SyncKind::ThreadFinish:
        // Start/finish ordering is subsumed by the prelude base clock and
        // the per-thread slice clocks.
        break;
    }
}

void
DporTracker::closeOpenSlice(const std::vector<std::uint32_t> &chosen)
{
    if (openDecision == noDecision) {
        hbState.closeSlice(setupTid, race::SliceHb::noIndex);
        return;
    }
    hbState.closeSlice(runnableLists[openDecision][chosen[openDecision]],
                       openDecision);
}

void
DporTracker::onDecision(const std::vector<ThreadId> &runnable,
                        const std::vector<std::uint32_t> &chosen)
{
    const std::size_t decision = chosen.size();
    if (openDecision != noDecision && openDecision == decision) {
        // Re-fired at the same decision after a checkpoint restore: the
        // slice boundary was already processed when the checkpoint was
        // taken; just refresh the runnable list.
        runnableLists.replaceLast(runnable);
        return;
    }
    closeOpenSlice(chosen);
    runnableLists.push_back(runnable);
    openDecision = decision;
}

void
DporTracker::finishRun(const std::vector<std::uint32_t> &chosen)
{
    if (finished)
        return;
    closeOpenSlice(chosen);
    finished = true;
}

detail::DporRunData
DporTracker::takeRunData(std::vector<std::size_t> wake_at)
{
    detail::DporRunData data;
    data.hb = std::move(hbState);
    data.runnables = std::move(runnableLists);
    data.wakeAt = std::move(wake_at);
    return data;
}

// ---------------------------------------------------------------------------
// SleepEval

void
SleepEval::reset(const detail::SleepSet *sleep, std::size_t branch_decision)
{
    entries = sleep;
    branch = branch_decision;
    nextSlice = 0;
    wake.assign(sleep != nullptr ? sleep->size() : 0, noDecision);
}

void
SleepEval::advance(const race::SliceHb &hb)
{
    for (; nextSlice < hb.sliceCount(); ++nextSlice) {
        const std::size_t d = hb.sliceDecision(nextSlice);
        // The prelude and replayed prefix slices cannot wake anyone: the
        // sleep set was computed *at* the branch, over exactly those
        // slices (a conflicting entry was never inherited).
        if (d == race::SliceHb::noIndex || d < branch)
            continue;
        for (std::size_t i = 0; i < wake.size(); ++i) {
            if (wake[i] != noDecision)
                continue;
            const detail::SleepEntry &entry = (*entries)[i];
            if (hb.sliceTid(nextSlice) == entry.tid ||
                race::footprintsConflict(hb.sliceFootprintView(nextSlice),
                                         entry.next))
                wake[i] = d;
        }
    }
}

std::uint64_t
SleepEval::foldActive(std::uint64_t sig) const
{
    // Entries are sorted by tid and wake order is position-independent,
    // so cold and checkpointed runs fold identical sequences. The offset
    // keeps sleep folds disjoint from the runnable-tid folds (t + 1).
    for (std::size_t i = 0; i < wake.size(); ++i) {
        if (wake[i] == noDecision)
            sig = mixSignature(sig, (*entries)[i].tid + 0x51ee9);
    }
    return sig;
}

// ---------------------------------------------------------------------------
// BranchLedger

BranchLedger::NodeId
BranchLedger::childOf(NodeId at, std::uint32_t choice)
{
    for (NodeId c = nodes[at].firstChild; c != 0; c = nodes[c].nextSibling) {
        if (nodes[c].choice == choice)
            return c;
    }
    ICHECK_ASSERT(nodes.size() < ~NodeId{0}, "branch ledger is full");
    const NodeId fresh = static_cast<NodeId>(nodes.size());
    Node node;
    node.choice = choice;
    node.nextSibling = nodes[at].firstChild;
    nodes.push_back(node);
    nodes[at].firstChild = fresh;
    return fresh;
}

bool
BranchLedger::claim(const std::uint32_t *path, std::size_t len,
                    std::uint32_t choice)
{
    std::lock_guard<std::mutex> lock(mu);
    NodeId at = 0;
    for (std::size_t d = 0; d < len; ++d)
        at = childOf(at, path[d]);
    Node &child = nodes[childOf(at, choice)];
    return !std::exchange(child.claimed, true);
}

void
BranchLedger::walk(const std::uint32_t *path, std::size_t len,
                   std::size_t from, std::vector<NodeId> &trail)
{
    trail.resize(len + 1);
    std::lock_guard<std::mutex> lock(mu);
    NodeId at = 0;
    trail[0] = at;
    for (std::size_t d = 0; d < len; ++d) {
        at = childOf(at, path[d]);
        if (d >= from)
            nodes[at].claimed = true;
        trail[d + 1] = at;
    }
}

bool
BranchLedger::claimChild(NodeId at, std::uint32_t choice)
{
    std::lock_guard<std::mutex> lock(mu);
    Node &child = nodes[childOf(at, choice)];
    return !std::exchange(child.claimed, true);
}

// ---------------------------------------------------------------------------
// expandDpor

namespace detail
{

ExpandCounts
expandDpor(const RunObservation &obs, const PendingNode &node,
           const ExploreConfig &config, BranchLedger &ledger,
           ExploreStats &stats, const std::function<void(PendingNode)> &emit)
{
    assert(obs.dpor != nullptr);
    const DporRunData &data = *obs.dpor;
    const std::vector<std::uint32_t> &path = obs.path;
    const std::size_t prefixSize = node.prefix.size();
    const bool bounded = config.maxPreemptions != noDecision;

    ++stats.tracesExplored;
    stats.dporRaces += data.hb.races().size();

    const std::size_t limit =
        std::min({obs.fanout.size(), config.maxDepth, obs.pruneAt});

    // Register this run's executed children first: any concurrent run
    // proposing one of them finds it claimed, giving exactly-once
    // emission of every prefix across the whole search. Only decisions
    // at or past the prefix need claiming: the parent run already claimed
    // every earlier one (a replayed prefix has the parent's fanout), and
    // the branch choice at prefixSize - 1 was claimed when this node was
    // emitted. The walk also marks forced moves (fanout 1) claimed;
    // nothing ever proposes those.
    std::vector<BranchLedger::NodeId> trail;
    ledger.walk(path.data(), limit, prefixSize, trail);

    ExpandCounts counts;
    std::uint64_t emittedDeep = 0;

    for (const race::SliceHb::Race &race : data.hb.races()) {
        // Backtrack point: the decision whose choice started the earlier
        // slice — the last point where the later slice's thread can be
        // scheduled before it.
        const std::size_t e = data.hb.sliceDecision(race.earlier);
        if (e == race::SliceHb::noIndex || e >= limit || obs.fanout[e] <= 1)
            continue;
        const ThreadId target = data.hb.sliceTid(race.later);
        const std::span<const ThreadId> runnable = data.runnables[e];

        // Propose the racing thread if it was runnable at e; otherwise
        // fall back to all runnable threads (one of them enables it —
        // the classic conservative fallback).
        std::vector<std::uint32_t> candidates;
        for (std::size_t i = 0; i < runnable.size(); ++i) {
            if (runnable[i] == target) {
                candidates.assign(1, static_cast<std::uint32_t>(i));
                break;
            }
        }
        if (candidates.empty()) {
            for (std::size_t i = 0; i < runnable.size(); ++i)
                candidates.push_back(static_cast<std::uint32_t>(i));
        }

        for (const std::uint32_t c : candidates) {
            if (c == path[e])
                continue;

            // Skip threads asleep at e: their step from here commutes
            // back to a branch whose alternative is already scheduled.
            bool asleep = false;
            for (std::size_t i = 0; i < node.sleep.size(); ++i) {
                if (node.sleep[i].tid == runnable[c] && e <= data.wakeAt[i]) {
                    asleep = true;
                    break;
                }
            }
            if (asleep) {
                ++stats.sleepSetHits;
                continue;
            }

            if (bounded) {
                const std::size_t preempt =
                    (obs.prevIdx[e] >= 0 &&
                     c != static_cast<std::uint32_t>(obs.prevIdx[e]))
                        ? 1
                        : 0;
                if (obs.preemptionsBefore[e] + preempt > config.maxPreemptions) {
                    ++counts.boundedOut;
                    continue;
                }
            }

            if (!ledger.claimChild(trail[e], c))
                continue;

            PendingNode child;
            child.prefix.assign(path.begin(),
                                path.begin() + static_cast<std::ptrdiff_t>(e));
            child.prefix.push_back(c);

            // The child's sleep set: the parent's entries still asleep at
            // the branch, plus the displaced designated thread with the
            // footprint of the step it would have taken (slice e is at
            // index e + 1: the prelude shifts slice indices by one).
            const ThreadId designated = runnable[path[e]];
            for (std::size_t i = 0; i < node.sleep.size(); ++i) {
                if (node.sleep[i].tid != designated && data.wakeAt[i] >= e)
                    child.sleep.push_back(node.sleep[i]);
            }
            SleepEntry displaced;
            displaced.tid = designated;
            if (e + 1 < data.hb.sliceCount())
                displaced.next = data.hb.sliceFootprint(e + 1);
            child.sleep.push_back(std::move(displaced));
            std::sort(child.sleep.begin(), child.sleep.end(),
                      [](const SleepEntry &a, const SleepEntry &b) {
                          return a.tid < b.tid;
                      });

            ++stats.backtracksInserted;
            if (e >= prefixSize)
                ++emittedDeep;
            emit(std::move(child));
        }
    }

    // Counter parity with expandBranches: siblings past the pruning
    // limit count as pruned; in-scope siblings DPOR did not need count
    // as dpor-pruned (the headline node reduction).
    std::uint64_t candidatesDeep = 0;
    for (std::size_t d = prefixSize; d < limit; ++d)
        candidatesDeep += obs.fanout[d] - 1;
    const std::size_t depthCap = std::min(obs.fanout.size(), config.maxDepth);
    for (std::size_t d = std::max(prefixSize, limit); d < depthCap; ++d)
        counts.pruned += obs.fanout[d] - 1;
    if (candidatesDeep > emittedDeep)
        stats.dporPruned += candidatesDeep - emittedDeep;

    return counts;
}

} // namespace detail

} // namespace icheck::explore
