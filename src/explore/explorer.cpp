#include "explore/explorer.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "explore/dpor.hpp"
#include "explore/snapshot_tree.hpp"
#include "support/logging.hpp"

namespace icheck::explore
{

namespace detail
{

RunObservation
runOnce(const check::ProgramFactory &factory,
        const sim::MachineConfig &machine_template,
        const ExploreConfig &config,
        const std::vector<std::uint32_t> &prefix,
        const SignatureInsert &insert_sig, const SleepSet *sleep,
        sim::ChromeTraceBuilder *trace)
{
    auto program = factory();
    sim::Machine machine(machine_template);
    auto sched = std::make_unique<sim::ScriptedScheduler>(
        std::vector<std::uint32_t>(prefix), config.quantum,
        /*prefer_previous=*/config.maxPreemptions != noDecision);
    const sim::ScriptedScheduler &script = *sched;
    machine.setScheduler(std::move(sched));

    RunTracker run(config);
    run.attach(machine, *program);
    if (trace != nullptr)
        machine.addListener(trace);
    run.begin(prefix, insert_sig, sleep);
    machine.setDecisionHandler(
        [&](const std::vector<ThreadId> &runnable) {
            run.onDecision(machine, runnable, script.chosenIndices());
        });
    machine.run(*program);
    return run.observe(machine, script);
}

void
writeRunTrace(const std::string &dir, int ordinal,
              const sim::ChromeTraceBuilder &trace)
{
    char name[32];
    std::snprintf(name, sizeof name, "run-%05d.json", ordinal);
    const std::string path = dir + "/" + name;
    if (!sim::writeChromeTraceFile(path, {&trace}))
        ICHECK_FATAL("cannot write trace file '", path, "'");
}

ExpandCounts
expandBranches(const RunObservation &obs, std::size_t prefix_size,
               const ExploreConfig &config,
               const std::function<void(std::vector<std::uint32_t>)> &emit)
{
    ExpandCounts counts;

    // Expand new branches only up to the first pruned decision.
    const std::size_t limit =
        std::min({obs.fanout.size(), config.maxDepth, obs.pruneAt});

    // Expand every non-designated choice at every decision past the
    // prefix. The designated (executed) child is a deterministic
    // function of the execution history, so each prefix is generated
    // exactly once across the whole search.
    for (std::size_t d = prefix_size;
         d < std::min(obs.fanout.size(), config.maxDepth); ++d) {
        for (std::uint32_t c = 0; c < obs.fanout[d]; ++c) {
            if (c == obs.path[d])
                continue;
            if (d >= limit) {
                ++counts.pruned;
                continue;
            }
            // Context bounding: skip branches whose preemption count
            // would exceed the budget.
            const bool branch_preempts =
                obs.prevIdx[d] >= 0 &&
                c != static_cast<std::uint32_t>(obs.prevIdx[d]);
            if (obs.preemptionsBefore[d] + (branch_preempts ? 1 : 0) >
                config.maxPreemptions) {
                ++counts.boundedOut;
                continue;
            }
            std::vector<std::uint32_t> next(
                obs.path.begin(),
                obs.path.begin() + static_cast<std::ptrdiff_t>(d));
            next.push_back(c);
            emit(std::move(next));
        }
    }
    return counts;
}

} // namespace detail

namespace
{

/**
 * Shard-locked signature set: a state reached by any worker immediately
 * prunes every worker's branches, without a single hot lock. Signatures
 * are already avalanche-mixed by the explorer, so the low bits pick the
 * shard uniformly.
 */
class ShardedSignatureSet
{
  public:
    bool
    insert(std::uint64_t sig)
    {
        Shard &shard = shards[sig % shards.size()];
        std::lock_guard<std::mutex> lock(shard.mu);
        return shard.seen.insert(sig).second;
    }

  private:
    struct Shard
    {
        std::mutex mu;
        std::unordered_set<std::uint64_t> seen;
    };
    std::array<Shard, 64> shards;
};

/** Shared LIFO frontier plus the merged result, all under one lock. */
struct Frontier
{
    std::mutex mu;
    std::condition_variable cv;
    std::vector<detail::PendingNode> pending;
    int inFlight = 0;
    int claimed = 0; ///< Runs handed to workers (capped at maxRuns).
    bool done = false;
    std::exception_ptr error; ///< First exception a worker threw.
    ExploreResult result;
};

void
workerLoop(Frontier &frontier, ShardedSignatureSet &seen,
           const check::ProgramFactory &factory,
           const sim::MachineConfig &machine_template,
           const ExploreConfig &config, CheckpointTree *tree,
           BranchLedger *ledger, std::size_t worker_id)
{
    ExploreStats local;
    const detail::SignatureInsert insert_sig =
        [&seen, &local](std::uint64_t sig) {
            // icheck-lint: allow(C2): `local` is worker-private; merged
            // into the shared result under frontier.mu by flush_stats.
            ++local.sigInserts;
            const bool fresh = seen.insert(sig);
            if (fresh)
                ++local.sigUnique;
            return fresh;
        };

    // With a checkpoint tree, this worker drives a persistent machine
    // whose snapshots it shares (keyed by worker id: snapshots are
    // machine-affine, so workers never restore each other's).
    std::unique_ptr<PrefixEngine> engine;
    if (tree != nullptr) {
        engine = std::make_unique<PrefixEngine>(factory, machine_template,
                                                config, *tree, worker_id);
    }

    // Called with frontier.mu held, on every exit path.
    const auto flush_stats = [&]() {
        if (engine)
            local.merge(engine->stats());
        frontier.result.stats.merge(local);
        local = ExploreStats{};
    };

    for (;;) {
        detail::PendingNode node;
        int run_ordinal = 0;
        {
            std::unique_lock<std::mutex> lock(frontier.mu);
            for (;;) {
                if (frontier.done) {
                    flush_stats();
                    return;
                }
                if (frontier.claimed >= config.maxRuns) {
                    frontier.done = true;
                    flush_stats();
                    frontier.cv.notify_all();
                    return;
                }
                if (!frontier.pending.empty()) {
                    node = std::move(frontier.pending.back());
                    frontier.pending.pop_back();
                    ++frontier.inFlight;
                    run_ordinal = frontier.claimed;
                    ++frontier.claimed;
                    break;
                }
                if (frontier.inFlight == 0) {
                    // Nothing queued, nothing running: search complete.
                    frontier.done = true;
                    flush_stats();
                    frontier.cv.notify_all();
                    return;
                }
                frontier.cv.wait(lock);
            }
        }

        std::unique_ptr<sim::ChromeTraceBuilder> trace;
        if (!config.traceDir.empty()) {
            trace = std::make_unique<sim::ChromeTraceBuilder>(
                "run " + std::to_string(run_ordinal) + " (depth " +
                std::to_string(node.prefix.size()) + ")");
        }
        const detail::RunObservation obs =
            engine ? engine->runOnce(node.prefix, insert_sig, &node.sleep)
                   : detail::runOnce(factory, machine_template, config,
                                     node.prefix, insert_sig, &node.sleep,
                                     trace.get());
        if (trace != nullptr)
            detail::writeRunTrace(config.traceDir, run_ordinal, *trace);
        if (!engine) {
            ++local.nodesExpanded;
            local.decisionsExecuted += obs.fanout.size();
        }
        std::vector<detail::PendingNode> children;
        const auto emit = [&children](detail::PendingNode child) {
            children.push_back(std::move(child));
        };
        const detail::ExpandCounts counts =
            ledger != nullptr
                ? detail::expandDpor(obs, node, config, *ledger, local, emit)
                : detail::expandBranches(
                      obs, node.prefix.size(), config,
                      [&children](std::vector<std::uint32_t> next) {
                          children.push_back({std::move(next), {}});
                      });

        {
            std::lock_guard<std::mutex> lock(frontier.mu);
            ++frontier.result.runsExecuted;
            frontier.result.finalStates.insert(obs.finalState);
            frontier.result.branchesPruned += counts.pruned;
            frontier.result.branchesBoundedOut += counts.boundedOut;
            for (detail::PendingNode &child : children)
                frontier.pending.push_back(std::move(child));
            --frontier.inFlight;
        }
        frontier.cv.notify_all();
    }
}

} // namespace

ExploreResult
explore(const check::ProgramFactory &factory,
        const sim::MachineConfig &machine_template,
        const ExploreConfig &config, int jobs)
{
    ICHECK_ASSERT(jobs >= 1, "explore() needs at least one worker, got ",
                  jobs);
    Frontier frontier;
    frontier.pending.push_back({});
    frontier.result.stats.dporActive = config.dpor;
    ShardedSignatureSet seen;

    // Prefix sharing: one persistent machine per worker plus a shared
    // checkpoint tree, unless disabled or unsupported (TSan builds).
    // Either way every observation — and therefore the whole
    // ExploreResult minus stats — is byte-identical. Per-run tracing
    // forces cold runs: a trace must cover its schedule from the start.
    const bool warm = config.checkpoints && PrefixEngine::supported() &&
                      config.traceDir.empty();
    std::unique_ptr<CheckpointTree> tree;
    if (warm)
        tree = std::make_unique<CheckpointTree>(config.checkpointBudgetBytes);
    std::unique_ptr<BranchLedger> ledger;
    if (config.dpor)
        ledger = std::make_unique<BranchLedger>();

    // Worker 0 is the calling thread. A worker that throws stops the
    // search; the first exception is rethrown once every worker is back.
    const auto work = [&](std::size_t worker_id) {
        try {
            workerLoop(frontier, seen, factory, machine_template, config,
                       tree.get(), ledger.get(), worker_id);
        } catch (...) {
            std::lock_guard<std::mutex> lock(frontier.mu);
            if (!frontier.error)
                frontier.error = std::current_exception();
            frontier.done = true;
            frontier.cv.notify_all();
        }
    };
    std::vector<std::thread> helpers;
    for (int w = 1; w < jobs; ++w)
        helpers.emplace_back(work, static_cast<std::size_t>(w));
    work(0);
    for (std::thread &helper : helpers)
        helper.join();
    if (frontier.error)
        std::rethrow_exception(frontier.error);

    frontier.result.exhausted = frontier.pending.empty();
    if (warm) {
        frontier.result.stats.checkpointsCreated = tree->createdCount();
        frontier.result.stats.checkpointsEvicted = tree->evictedCount();
        frontier.result.stats.checkpointBytes = tree->residentBytes();
    }
    return frontier.result;
}

} // namespace icheck::explore
