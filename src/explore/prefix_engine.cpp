#include "explore/prefix_engine.hpp"

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
// Checkpoints

namespace detail
{

namespace
{

/** Checkpoints alive in this process (liveCheckpoints()). */
std::atomic<std::uint64_t> liveCount{0};

/** Parents of the checkpoints this thread is destroying, queued so that
 *  freeing a chain loops instead of recursing. */
thread_local std::vector<std::shared_ptr<const Checkpoint>> orphans;
thread_local bool freeingChain = false;

} // namespace

std::uint64_t
liveCheckpoints()
{
    return liveCount.load(std::memory_order_relaxed);
}

bool
CheckpointBudget::reserve(std::size_t bytes)
{
    std::size_t cur = live.load(std::memory_order_relaxed);
    do {
        if (bytes > cap || cur > cap - bytes)
            return false;
    } while (!live.compare_exchange_weak(cur, cur + bytes,
                                         std::memory_order_relaxed));
    std::size_t top = peak.load(std::memory_order_relaxed);
    while (top < cur + bytes &&
           !peak.compare_exchange_weak(top, cur + bytes,
                                       std::memory_order_relaxed)) {
    }
    return true;
}

Checkpoint::Checkpoint()
{
    liveCount.fetch_add(1, std::memory_order_relaxed);
}

Checkpoint::~Checkpoint()
{
    if (budget != nullptr)
        budget->release(bytes);
    liveCount.fetch_sub(1, std::memory_order_relaxed);
    // Free the chain above without recursion: a destructor that runs
    // inside another's loop only queues its parent, and the outermost
    // one drops the queued parents one at a time.
    if (parent == nullptr)
        return;
    orphans.push_back(std::move(parent));
    if (freeingChain)
        return;
    freeingChain = true;
    while (!orphans.empty()) {
        const std::shared_ptr<const Checkpoint> next =
            std::move(orphans.back());
        orphans.pop_back();
    }
    freeingChain = false;
}

} // namespace detail

// ---------------------------------------------------------------------------
// PrefixEngine

PrefixEngine::PrefixEngine(const check::ProgramFactory &factory,
                           const sim::MachineConfig &machine_template,
                           const ExploreConfig &config,
                           detail::CheckpointBudget &checkpoint_budget,
                           std::size_t owner_id)
    : cfg(config), budget(checkpoint_budget), owner(owner_id),
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
    root = capture();
    resumed = root;
}

PrefixEngine::~PrefixEngine() = default;

void
PrefixEngine::onDecision(const std::vector<ThreadId> &runnable)
{
    const std::size_t decision = sched->chosenIndices().size();
    run.onDecision(machine, runnable, sched->chosenIndices());

    // Placement (see the file comment). A decision qualifies past the
    // chain's deepest checkpoint (the root covers decision 0, and a
    // sibling resumed at its branch decision already has one), within
    // the branching depth, actually branchy, and not beyond a pruned
    // decision: expansion emits no child past pruneAt.
    const bool placed = cfg.dpor ? decision + 1 == run.prefix->size()
                                 : decision % checkpointStride == 0;
    const std::size_t deepest =
        taken.empty() ? resumed->depth() : taken.back()->depth();
    if (!placed || decision <= deepest || runnable.size() < 2 ||
        decision >= cfg.maxDepth || decision >= run.pruneAt)
        return;
    if (budget.full()) {
        ++counters.checkpointsEvicted;
        return;
    }
    takeCheckpoint();
}

std::shared_ptr<detail::Checkpoint>
PrefixEngine::capture()
{
    auto cp = std::make_shared<detail::Checkpoint>();
    cp->owner = owner;
    cp->fanout = sched->decisionFanout();
    cp->chosen = sched->chosenIndices();
    cp->prevIdx = sched->previousIndices();
    cp->lastPick = sched->lastPicked();
    cp->snap = machine.checkpoint();
    if (cfg.prune == PruneMode::HappensBefore)
        cp->hb = run.hb;
    if (cfg.dpor)
        cp->dpor = run.dpor;
    return cp;
}

void
PrefixEngine::takeCheckpoint()
{
    std::shared_ptr<detail::Checkpoint> cp = capture();
    std::size_t bytes = cp->snap->bytes() + cp->chosen.size() * 16 +
                        sizeof(detail::Checkpoint);
    if (cp->dpor)
        bytes += 1024 + cp->dpor->hb().sliceCount() * 96; // rough charge
    if (!budget.reserve(bytes)) {
        ++counters.checkpointsEvicted;
        return;
    }
    cp->bytes = bytes;
    cp->budget = &budget;
    cp->parent = taken.empty() ? resumed : taken.back();
    ++counters.checkpointsCreated;
    taken.push_back(std::move(cp));
}

detail::RunObservation
PrefixEngine::runOnce(const detail::PendingNode &node,
                      const detail::SignatureInsert &insert_sig)
{
    const std::vector<std::uint32_t> &prefix = node.prefix;
    const bool bounded = cfg.maxPreemptions != noDecision;
    auto fresh = std::make_unique<sim::ScriptedScheduler>(
        std::vector<std::uint32_t>(prefix), cfg.quantum, bounded);
    sched = fresh.get();

    // Resume the lease if this machine took it; otherwise start over
    // from the root.
    taken.clear();
    resumed = node.lease != nullptr && node.lease->owner == owner
                  ? node.lease
                  : root;
    const detail::Checkpoint &from = *resumed;
    ICHECK_ASSERT(from.depth() <= prefix.size() &&
                      std::equal(from.chosen.begin(), from.chosen.end(),
                                 prefix.begin()),
                  "a lease must checkpoint a prefix of its node");
    sched->resumeAt(from.fanout, from.chosen, from.prevIdx, from.lastPick);
    machine.restore(*from.snap);
    if (cfg.prune == PruneMode::HappensBefore)
        run.hb = from.hb.value();
    if (cfg.dpor)
        run.dpor = from.dpor.value();
    if (from.depth() > 0)
        ++counters.checkpointHits;
    else
        ++counters.checkpointMisses;
    machine.setScheduler(std::move(fresh));
    run.begin(prefix, insert_sig, &node.sleep);
    counters.decisionsRestored += from.depth();

    machine.finishRun();

    detail::RunObservation obs = run.observe(machine, *sched);
    counters.decisionsExecuted += obs.fanout.size() - from.depth();
    ++counters.nodesExpanded;
    return obs;
}

std::shared_ptr<const detail::Checkpoint>
PrefixEngine::leaseAt(std::size_t branch) const
{
    const auto below = std::upper_bound(
        taken.begin(), taken.end(), branch,
        [](std::size_t d, const std::shared_ptr<const detail::Checkpoint>
                              &cp) { return d < cp->depth(); });
    if (below != taken.begin())
        return *std::prev(below);
    // Above everything this run took: climb the chain it resumed from,
    // which ends at the root (depth 0).
    const std::shared_ptr<const detail::Checkpoint> *at = &resumed;
    while ((*at)->depth() > branch)
        at = &(*at)->parent;
    return *at;
}

const ExploreStats &
PrefixEngine::stats()
{
    counters.pagesCowCloned = machine.memory().cowClonedPages();
    return counters;
}

} // namespace icheck::explore
