#include "runtime/parallel_explore.hpp"

#include <array>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "explore/dpor.hpp"
#include "explore/snapshot_tree.hpp"
#include "runtime/parallel_driver.hpp"

namespace icheck::runtime
{

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
    std::vector<explore::detail::PendingNode> pending;
    int inFlight = 0;
    int claimed = 0; ///< Runs handed to workers (capped at maxRuns).
    bool done = false;
    explore::ExploreResult result;
};

void
workerLoop(Frontier &frontier, ShardedSignatureSet &seen,
           const check::ProgramFactory &factory,
           const sim::MachineConfig &machine_template,
           const explore::ExploreConfig &config,
           explore::CheckpointTree *tree, explore::BranchLedger *ledger,
           std::size_t worker_id)
{
    explore::ExploreStats local;
    const explore::detail::SignatureInsert insert_sig =
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
    std::unique_ptr<explore::PrefixEngine> engine;
    if (tree != nullptr) {
        engine = std::make_unique<explore::PrefixEngine>(
            factory, machine_template, config, *tree, worker_id);
    }

    // Called with frontier.mu held, on every exit path.
    const auto flush_stats = [&]() {
        if (engine)
            local.merge(engine->stats());
        frontier.result.stats.merge(local);
        local = explore::ExploreStats{};
    };

    for (;;) {
        explore::detail::PendingNode node;
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
        const explore::detail::RunObservation obs =
            engine ? engine->runOnce(node.prefix, insert_sig, &node.sleep)
                   : explore::detail::runOnce(factory, machine_template,
                                              config, node.prefix,
                                              insert_sig, &node.sleep,
                                              trace.get());
        if (trace != nullptr)
            explore::detail::writeRunTrace(config.traceDir, run_ordinal,
                                           *trace);
        if (!engine) {
            ++local.nodesExpanded;
            local.decisionsExecuted += obs.fanout.size();
        }
        std::vector<explore::detail::PendingNode> children;
        const auto emit = [&children](explore::detail::PendingNode child) {
            children.push_back(std::move(child));
        };
        const explore::detail::ExpandCounts counts =
            ledger != nullptr
                ? explore::detail::expandDpor(obs, node, config, *ledger,
                                              local, emit)
                : explore::detail::expandBranches(
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
            for (explore::detail::PendingNode &child : children)
                frontier.pending.push_back(std::move(child));
            --frontier.inFlight;
        }
        frontier.cv.notify_all();
    }
}

} // namespace

explore::ExploreResult
exploreParallel(const check::ProgramFactory &factory,
                const sim::MachineConfig &machine_template,
                const explore::ExploreConfig &config, int jobs)
{
    jobs = resolveJobs(jobs);
    if (jobs <= 1 || config.maxRuns <= 1)
        return explore::explore(factory, machine_template, config);

    Frontier frontier;
    frontier.pending.push_back({});
    frontier.result.stats.dporActive = config.dpor;
    ShardedSignatureSet seen;

    const bool warm = config.checkpoints &&
                      explore::PrefixEngine::supported() &&
                      config.traceDir.empty();
    std::unique_ptr<explore::CheckpointTree> tree;
    if (warm) {
        tree = std::make_unique<explore::CheckpointTree>(
            config.checkpointBudgetBytes);
    }
    std::unique_ptr<explore::BranchLedger> ledger;
    if (config.dpor)
        ledger = std::make_unique<explore::BranchLedger>();

    ThreadPool pool(static_cast<unsigned>(jobs));
    pool.parallelFor(static_cast<std::size_t>(jobs), [&](std::size_t w) {
        workerLoop(frontier, seen, factory, machine_template, config,
                   tree.get(), ledger.get(), w);
    });

    frontier.result.exhausted = frontier.pending.empty();
    if (warm) {
        frontier.result.stats.checkpointsCreated = tree->createdCount();
        frontier.result.stats.checkpointsEvicted = tree->evictedCount();
        frontier.result.stats.checkpointBytes = tree->residentBytes();
    }
    return frontier.result;
}

} // namespace icheck::runtime
