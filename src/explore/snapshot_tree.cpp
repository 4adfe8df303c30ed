#include "explore/snapshot_tree.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace icheck::explore
{

// ---------------------------------------------------------------------------
// RunTracker

namespace detail
{

void
RunTracker::attach(sim::Machine &machine, const sim::Program &program)
{
    // Listeners run synchronously, so by each decision the trackers have
    // seen the whole slice it closes.
    if (cfg.prune == PruneMode::HappensBefore)
        machine.addListener(&hb);
    if (cfg.dpor) {
        dpor.reset(program.numThreads());
        machine.addListener(&dpor);
    }
}

void
RunTracker::begin(const std::vector<std::uint32_t> &run_prefix,
                  const SignatureInsert &insert_sig, const SleepSet *sleep)
{
    prefix = &run_prefix;
    insert = &insert_sig;
    pruneAt = noDecision;
    sleepEval.reset(sleep, run_prefix.empty() ? 0 : run_prefix.size() - 1);
}

void
RunTracker::onDecision(const sim::Machine &machine,
                       const std::vector<ThreadId> &runnable,
                       const std::vector<std::uint32_t> &executed)
{
    // Close the previous slice first: the pruning signature below, and
    // any checkpoint the prefix engine takes after it, must reflect every
    // slice executed *before* this decision. After a restore the handler
    // re-fires at the restored decision; DporTracker::onDecision is
    // idempotent against that.
    if (cfg.dpor) {
        dpor.onDecision(runnable, executed);
        sleepEval.advance(dpor.hb());
    }

    // Both pruning modes work at decision granularity: if the
    // fingerprint of the execution prefix repeats, every continuation
    // from here was already reachable from the earlier occurrence, so
    // branches past this decision need not be expanded. StateHash
    // fingerprints the reached *state* (merging state-equal prefixes even
    // when their traces differ, the paper's improvement); HappensBefore
    // fingerprints the *trace* (the CHESS approximation). Decisions
    // before prefix.size() are shared with the ancestor run that spawned
    // this prefix and were recorded by it already; a restored run does
    // not even execute those before its checkpoint.
    const std::size_t decision = executed.size();
    if (cfg.prune == PruneMode::None || decision < prefix->size() ||
        pruneAt != noDecision)
        return;
    // HappensBefore merges equal *traces*; trace-equivalent prefixes
    // always have the same length, so folding the depth in costs nothing
    // — and without it a decision whose slice emitted no sync event (a
    // pre-acquire switch point) would collide with its own predecessor
    // and truncate the run's expansion. States, by contrast, merge at
    // any depth.
    std::uint64_t sig = cfg.prune == PruneMode::StateHash
                            ? machine.stateSignature()
                            : mixSignature(hb.value(), decision);
    // Sleep sets make continuations a function of (state, sleep set),
    // not state alone: fold the active entries in so states reached with
    // different sleep sets never dedup against each other (the classic
    // sleep-set x state-caching unsoundness).
    if (cfg.dpor)
        sig = sleepEval.foldActive(sig);
    for (ThreadId t : runnable)
        sig = mixSignature(sig, t + 1);
    if (!(*insert)(sig))
        pruneAt = decision;
}

RunObservation
RunTracker::observe(const sim::Machine &machine,
                    const sim::ScriptedScheduler &sched)
{
    RunObservation obs;
    obs.fanout = sched.decisionFanout();
    obs.path = sched.chosenIndices();
    obs.prevIdx = sched.previousIndices();
    obs.pruneAt = pruneAt;
    hashing::ModHash sum;
    for (ThreadId t = 0; t < machine.numThreads(); ++t)
        sum += hashing::ModHash(machine.threadHash(t));
    obs.finalState = sum.raw();
    if (cfg.dpor) {
        dpor.finishRun(obs.path);
        sleepEval.advance(dpor.hb());
        obs.dpor = std::make_shared<const DporRunData>(
            dpor.takeRunData(sleepEval.takeWakeAt()));
    }
    // Prefix sums of preemptions: decision d preempts when the previous
    // thread was runnable but a different one was chosen.
    obs.preemptionsBefore.resize(obs.fanout.size() + 1, 0);
    for (std::size_t d = 0; d < obs.fanout.size(); ++d) {
        const bool preempted =
            obs.prevIdx[d] >= 0 &&
            obs.path[d] != static_cast<std::uint32_t>(obs.prevIdx[d]);
        obs.preemptionsBefore[d + 1] =
            obs.preemptionsBefore[d] + (preempted ? 1 : 0);
    }
    return obs;
}

} // namespace detail

// ---------------------------------------------------------------------------
// CheckpointTree

CheckpointTree::CheckpointTree(std::size_t budget_bytes)
    : shardBudget(std::max<std::size_t>(budget_bytes / numShards, 1))
{}

std::uint64_t
CheckpointTree::hashPrefix(std::size_t owner, const std::uint32_t *choices,
                           std::size_t count)
{
    std::uint64_t h = mixSignature(0x1c5eedULL, owner + 1);
    for (std::size_t i = 0; i < count; ++i)
        h = mixSignature(h, choices[i] + 1ULL);
    return h;
}

void
CheckpointTree::dropEntry(Shard &shard, EntryMap::iterator it)
{
    shard.bytesResident -= std::min(shard.bytesResident, it->second->bytes);
    ++shard.evicted;
    shard.byUse.erase(it->second->lastUse);
    // Dropping the map's shared_ptr: a worker holding a lease keeps the
    // entry (and its snapshot) alive until it finishes with it.
    shard.entries.erase(it);
}

void
CheckpointTree::touch(Shard &shard, CheckpointEntry &entry,
                      std::uint64_t stamp)
{
    auto node = shard.byUse.extract(entry.lastUse);
    node.key() = stamp;
    shard.byUse.insert(std::move(node));
    entry.lastUse = stamp;
}

void
CheckpointTree::evictFor(Shard &shard, std::size_t need,
                         std::size_t shard_budget)
{
    while (!shard.byUse.empty() &&
           shard.bytesResident + need > shard_budget)
        dropEntry(shard, shard.entries.find(shard.byUse.begin()->second));
}

void
CheckpointTree::insert(CheckpointEntry entry)
{
    const std::uint64_t key =
        hashPrefix(entry.owner, entry.chosen.data(), entry.chosen.size());
    const std::uint64_t stamp =
        useClock.fetch_add(1, std::memory_order_relaxed) + 1;
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
        if (it->second->owner == entry.owner &&
            it->second->chosen == entry.chosen) {
            touch(shard, *it->second, stamp); // already resident; refresh
            return;
        }
        // Key collision with a different prefix: replace (lookups verify
        // the exact history, so keeping just one is merely a cache miss
        // for the displaced prefix).
        dropEntry(shard, it);
    }
    evictFor(shard, entry.bytes, shardBudget);
    entry.lastUse = stamp;
    shard.bytesResident += entry.bytes;
    ++shard.created;
    shard.byUse.emplace(stamp, key);
    shard.entries.emplace(
        key, std::make_shared<CheckpointEntry>(std::move(entry)));
}

std::shared_ptr<const CheckpointEntry>
CheckpointTree::deepestAncestor(std::size_t owner,
                                const std::vector<std::uint32_t> &prefix)
{
    // Rolling hashes of every prefix length, built front to back, then
    // probed deepest first. Length 0 is excluded: the root snapshot is
    // pinned by the engine, never stored in the tree.
    std::vector<std::uint64_t> keys(prefix.size() + 1);
    std::uint64_t h = mixSignature(0x1c5eedULL, owner + 1);
    keys[0] = h;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
        h = mixSignature(h, prefix[i] + 1ULL);
        keys[i + 1] = h;
    }
    for (std::size_t len = prefix.size(); len >= 1; --len) {
        Shard &shard = shardFor(keys[len]);
        std::lock_guard<std::mutex> lock(shard.mu);
        auto it = shard.entries.find(keys[len]);
        if (it == shard.entries.end())
            continue;
        const std::shared_ptr<CheckpointEntry> &entry = it->second;
        if (entry->owner != owner || entry->chosen.size() != len ||
            !std::equal(entry->chosen.begin(), entry->chosen.end(),
                        prefix.begin())) {
            continue; // hash collision; treat as absent
        }
        touch(shard, *entry,
              useClock.fetch_add(1, std::memory_order_relaxed) + 1);
        return entry;
    }
    return nullptr;
}

bool
CheckpointTree::contains(std::size_t owner,
                         const std::vector<std::uint32_t> &prefix)
{
    return containsKeyed(hashPrefix(owner, prefix.data(), prefix.size()),
                         owner, prefix);
}

bool
CheckpointTree::containsKeyed(std::uint64_t key, std::size_t owner,
                              const std::vector<std::uint32_t> &prefix)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    return it != shard.entries.end() && it->second->owner == owner &&
           it->second->chosen == prefix;
}

std::uint64_t
CheckpointTree::createdCount() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        total += shard.created;
    }
    return total;
}

std::uint64_t
CheckpointTree::evictedCount() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        total += shard.evicted;
    }
    return total;
}

std::uint64_t
CheckpointTree::residentBytes() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        total += shard.bytesResident;
    }
    return total;
}

// ---------------------------------------------------------------------------
// PrefixEngine

PrefixEngine::PrefixEngine(const check::ProgramFactory &factory,
                           const sim::MachineConfig &machine_template,
                           const ExploreConfig &config,
                           CheckpointTree &checkpoint_tree,
                           std::size_t owner_id)
    : cfg(config), tree(checkpoint_tree), owner(owner_id),
      program(factory()), machine(machine_template), run(cfg)
{
    ICHECK_ASSERT(supported(),
                  "PrefixEngine requires fiber snapshots (use the cold "
                  "explorer under TSan)");
    counters.checkpointing = true;

    machine.setDecisionHandler(
        [this](const std::vector<ThreadId> &runnable) {
            onDecision(runnable);
        });
    run.attach(machine, *program);

    // The scheduler must be injected before beginRun() (which otherwise
    // installs a RandomScheduler); runOnce() replaces it per run.
    const bool bounded = cfg.maxPreemptions != noDecision;
    auto seed_sched = std::make_unique<sim::ScriptedScheduler>(
        std::vector<std::uint32_t>{}, cfg.quantum, bounded);
    sched = seed_sched.get();
    machine.setScheduler(std::move(seed_sched));

    machine.beginRun(*program);
    rootSnap = machine.checkpoint();
    rootHb = run.hb;
    rootDpor = run.dpor;
}

PrefixEngine::~PrefixEngine() = default;

void
PrefixEngine::onDecision(const std::vector<ThreadId> &runnable)
{
    const std::vector<std::uint32_t> &executed = sched->chosenIndices();
    const std::size_t decision = executed.size();
    run.onDecision(machine, runnable, executed);

    // Fold choices appended since the last decision into the rolling
    // path hash.
    while (pathHashLen < executed.size()) {
        pathHash = mixSignature(pathHash, executed[pathHashLen] + 1ULL);
        ++pathHashLen;
    }

    // Checkpoint creation. Eligible decisions: past the (pinned) root,
    // within the branching depth, actually branchy (forced moves add no
    // reachable prefix keys), on the stride, and not beyond a pruned
    // decision (expansion never emits prefixes past pruneAt, so deeper
    // checkpoints on this path could never be hit). Under DPOR the
    // current prefix's own branch decision bypasses the stride: every
    // sibling emitted at that branch restores from it with zero replayed
    // decisions, which is what makes per-trace cost O(suffix).
    const bool branchPoint = cfg.dpor && !run.prefix->empty() &&
                             decision + 1 == run.prefix->size();
    if (decision >= 1 && runnable.size() > 1 &&
        decision < cfg.maxDepth && decision < run.pruneAt &&
        (cfg.checkpointStride <= 1 ||
         decision % cfg.checkpointStride == 0 || branchPoint) &&
        !tree.containsKeyed(pathHash, owner, executed)) {
        CheckpointEntry entry;
        entry.owner = owner;
        entry.fanout = sched->decisionFanout();
        entry.chosen = sched->chosenIndices();
        entry.prevIdx = sched->previousIndices();
        entry.lastPick = sched->lastPicked();
        entry.snap = machine.checkpoint();
        if (cfg.prune == PruneMode::HappensBefore)
            entry.hb = std::make_shared<HbTracker>(run.hb);
        if (cfg.dpor)
            entry.dpor = std::make_shared<DporTracker>(run.dpor);
        entry.bytes = entry.snap->bytes() +
                      entry.chosen.size() * 16 + sizeof(CheckpointEntry);
        if (entry.dpor != nullptr) {
            // Rough LRU-budget charge for the slice analysis state.
            entry.bytes += 1024 + entry.dpor->hb().sliceCount() * 96;
        }
        tree.insert(std::move(entry));
    }
}

detail::RunObservation
PrefixEngine::runOnce(const std::vector<std::uint32_t> &prefix,
                      const detail::SignatureInsert &insert_sig,
                      const detail::SleepSet *sleep)
{
    const bool bounded = cfg.maxPreemptions != noDecision;
    auto fresh = std::make_unique<sim::ScriptedScheduler>(
        std::vector<std::uint32_t>(prefix), cfg.quantum, bounded);
    sched = fresh.get();

    const std::shared_ptr<const CheckpointEntry> anc =
        tree.deepestAncestor(owner, prefix);
    std::size_t start_decision = 0;
    if (anc) {
        // The lease (anc) keeps the snapshot alive even if the tree
        // evicts the entry while we restore.
        sched->resumeAt(anc->fanout, anc->chosen, anc->prevIdx,
                        anc->lastPick);
        machine.restore(*anc->snap);
        if (cfg.prune == PruneMode::HappensBefore) {
            ICHECK_ASSERT(anc->hb != nullptr,
                          "checkpoint without HB state under HB pruning");
            run.hb = *anc->hb;
        }
        if (cfg.dpor) {
            ICHECK_ASSERT(anc->dpor != nullptr,
                          "checkpoint without slice state under DPOR");
            run.dpor = *anc->dpor;
        }
        start_decision = anc->depth();
        ++counters.checkpointHits;
    } else {
        machine.restore(*rootSnap);
        if (cfg.prune == PruneMode::HappensBefore)
            run.hb = rootHb;
        if (cfg.dpor)
            run.dpor = rootDpor;
        ++counters.checkpointMisses;
    }
    machine.setScheduler(std::move(fresh));
    run.begin(prefix, insert_sig, sleep);

    // Seed the rolling path hash from the restored choice history; the
    // per-decision folds in onDecision() keep it current from here.
    pathHash = CheckpointTree::hashPrefix(
        owner, sched->chosenIndices().data(),
        sched->chosenIndices().size());
    pathHashLen = sched->chosenIndices().size();
    counters.decisionsRestored += start_decision;

    machine.finishRun();

    detail::RunObservation obs = run.observe(machine, *sched);
    counters.decisionsExecuted += obs.fanout.size() - start_decision;
    ++counters.nodesExpanded;
    return obs;
}

const ExploreStats &
PrefixEngine::stats()
{
    counters.pagesCowCloned = machine.memory().cowClonedPages();
    return counters;
}

} // namespace icheck::explore
