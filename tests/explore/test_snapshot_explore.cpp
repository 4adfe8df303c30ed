/**
 * @file
 * Prefix-sharing exploration: with checkpointing on, every exploration
 * outcome (runs executed, prune/bound counts, exhaustion, final states)
 * must be byte-identical to the cold path, for every pruning mode; the
 * checkpoint tree must survive tiny byte budgets (eviction) and the
 * parallel frontier must agree with the sequential engine.
 */

#include <gtest/gtest.h>
#include <memory>

#include "apps/scales.hpp"
#include "explore/explorer.hpp"
#include "explore/snapshot_tree.hpp"
#include "runtime/parallel_explore.hpp"
#include "sim/lambda_program.hpp"

namespace icheck::explore
{
namespace
{

using sim::LambdaProgram;

sim::MachineConfig
machineConfig()
{
    sim::MachineConfig cfg;
    cfg.numCores = 2;
    return cfg;
}

/** Figure 1 without the lock: racy, multiple final states. */
check::ProgramFactory
racyFactory()
{
    return [] {
        return std::make_unique<LambdaProgram>(
            "snapexp-racy", 2,
            [](sim::SetupCtx &ctx) {
                const Addr g = ctx.global("G", mem::tInt64());
                ctx.init<std::int64_t>(g, 2);
            },
            [](sim::ThreadCtx &ctx) {
                const std::int64_t local = ctx.tid() == 0 ? 7 : 3;
                for (int i = 0; i < 3; ++i) {
                    const auto g =
                        ctx.load<std::int64_t>(ctx.global("G"));
                    ctx.store<std::int64_t>(ctx.global("G"), g + local);
                }
            });
    };
}

/** Mutex-serialized increments: deterministic final state. */
check::ProgramFactory
lockedFactory()
{
    return [] {
        auto mutex_id = std::make_shared<sim::MutexId>();
        return std::make_unique<LambdaProgram>(
            "snapexp-locked", 2,
            [mutex_id](sim::SetupCtx &ctx) {
                const Addr g = ctx.global("G", mem::tInt64());
                ctx.init<std::int64_t>(g, 2);
                *mutex_id = ctx.mutex();
            },
            [mutex_id](sim::ThreadCtx &ctx) {
                const std::int64_t local = ctx.tid() == 0 ? 7 : 3;
                ctx.lock(*mutex_id);
                const auto g = ctx.load<std::int64_t>(ctx.global("G"));
                ctx.store<std::int64_t>(ctx.global("G"), g + local);
                ctx.unlock(*mutex_id);
            });
    };
}

ExploreConfig
baseConfig(PruneMode mode)
{
    ExploreConfig cfg;
    cfg.prune = mode;
    cfg.maxRuns = 4000;
    cfg.quantum = 1;
    return cfg;
}

/** The exploration outcome minus the (explicitly excluded) stats. */
void
expectSameOutcome(const ExploreResult &warm, const ExploreResult &cold,
                  const char *label)
{
    EXPECT_EQ(warm.runsExecuted, cold.runsExecuted) << label;
    EXPECT_EQ(warm.branchesPruned, cold.branchesPruned) << label;
    EXPECT_EQ(warm.branchesBoundedOut, cold.branchesBoundedOut) << label;
    EXPECT_EQ(warm.exhausted, cold.exhausted) << label;
    EXPECT_EQ(warm.finalStates, cold.finalStates) << label;
}

TEST(SnapshotExplore, WarmEqualsColdEveryPruneMode)
{
    // pbzip2 at the CLI's slicing: its consumers are checkpointed in the
    // middle of compressing a block, so a restored fiber stack must hold
    // only trivially destructible state.
    ExploreConfig pbzip2_cfg;
    pbzip2_cfg.maxRuns = 40;
    pbzip2_cfg.quantum = 16;
    pbzip2_cfg.maxDepth = 24;
    struct Case
    {
        check::ProgramFactory factory;
        ExploreConfig cfg;
    };
    const Case cases[] = {
        {racyFactory(), baseConfig(PruneMode::None)},
        {lockedFactory(), baseConfig(PruneMode::None)},
        {apps::scaledFactory("pbzip2", apps::InputScale::Dev), pbzip2_cfg},
    };
    for (const PruneMode mode :
         {PruneMode::None, PruneMode::HappensBefore,
          PruneMode::StateHash}) {
        for (const Case &c : cases) {
            ExploreConfig warm_cfg = c.cfg;
            warm_cfg.prune = mode;
            warm_cfg.checkpoints = true;
            ExploreConfig cold_cfg = warm_cfg;
            cold_cfg.checkpoints = false;

            const ExploreResult warm =
                explore(c.factory, machineConfig(), warm_cfg);
            const ExploreResult cold =
                explore(c.factory, machineConfig(), cold_cfg);
            expectSameOutcome(warm, cold, "prune-mode sweep");
            if (PrefixEngine::supported())
                EXPECT_TRUE(warm.stats.checkpointing);
            EXPECT_FALSE(cold.stats.checkpointing);
        }
    }
}

TEST(SnapshotExplore, WarmEqualsColdUnderContextBound)
{
    ExploreConfig warm_cfg = baseConfig(PruneMode::None);
    warm_cfg.maxPreemptions = 2;
    warm_cfg.checkpoints = true;
    ExploreConfig cold_cfg = warm_cfg;
    cold_cfg.checkpoints = false;

    const ExploreResult warm =
        explore(racyFactory(), machineConfig(), warm_cfg);
    const ExploreResult cold =
        explore(racyFactory(), machineConfig(), cold_cfg);
    expectSameOutcome(warm, cold, "context bound");
    EXPECT_GT(cold.branchesBoundedOut, 0u)
        << "the bound must actually bite for this to test anything";
}

TEST(SnapshotExplore, TinyBudgetEvictsButStaysExact)
{
    ExploreConfig warm_cfg = baseConfig(PruneMode::StateHash);
    warm_cfg.checkpoints = true;
    // A budget too small for more than a handful of snapshots: the tree
    // must evict (and fall back to shallower ancestors / the pinned
    // root) without changing any outcome.
    warm_cfg.checkpointBudgetBytes = 64 * 1024;
    ExploreConfig cold_cfg = baseConfig(PruneMode::StateHash);
    cold_cfg.checkpoints = false;

    const ExploreResult warm =
        explore(racyFactory(), machineConfig(), warm_cfg);
    const ExploreResult cold =
        explore(racyFactory(), machineConfig(), cold_cfg);
    expectSameOutcome(warm, cold, "tiny budget");
    if (sim::Machine::snapshotSupported())
        EXPECT_GT(warm.stats.checkpointsEvicted, 0u)
            << "a 64 KiB budget must force evictions here";
}

TEST(SnapshotExplore, StrideOneMatchesDefaultStride)
{
    ExploreConfig dense_cfg = baseConfig(PruneMode::None);
    dense_cfg.checkpoints = true;
    dense_cfg.checkpointStride = 1;
    ExploreConfig sparse_cfg = baseConfig(PruneMode::None);
    sparse_cfg.checkpoints = true;
    sparse_cfg.checkpointStride = 8;

    const ExploreResult dense =
        explore(racyFactory(), machineConfig(), dense_cfg);
    const ExploreResult sparse =
        explore(racyFactory(), machineConfig(), sparse_cfg);
    expectSameOutcome(dense, sparse, "stride sweep");
}

TEST(SnapshotExplore, ParallelWarmEqualsSequentialCold)
{
    // Pruning-off parallel exploration is deterministic (each prefix is
    // generated exactly once by its designated parent), so the full
    // outcome must match the sequential cold search for any job count.
    ExploreConfig cfg = baseConfig(PruneMode::None);
    cfg.checkpoints = true;

    ExploreConfig cold_cfg = cfg;
    cold_cfg.checkpoints = false;
    const ExploreResult cold =
        explore(racyFactory(), machineConfig(), cold_cfg);
    ASSERT_TRUE(cold.exhausted);

    for (const int jobs : {2, 4}) {
        const ExploreResult par = runtime::exploreParallel(
            racyFactory(), machineConfig(), cfg, jobs);
        ASSERT_TRUE(par.exhausted);
        EXPECT_EQ(par.runsExecuted, cold.runsExecuted) << jobs;
        EXPECT_EQ(par.finalStates, cold.finalStates) << jobs;
        EXPECT_EQ(par.branchesBoundedOut, cold.branchesBoundedOut)
            << jobs;
    }
}

TEST(SnapshotExplore, StatsCountRestores)
{
    if (!PrefixEngine::supported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    ExploreConfig cfg = baseConfig(PruneMode::None);
    cfg.checkpoints = true;
    const ExploreResult result =
        explore(racyFactory(), machineConfig(), cfg);
    EXPECT_TRUE(result.stats.checkpointing);
    EXPECT_EQ(result.stats.nodesExpanded,
              static_cast<std::uint64_t>(result.runsExecuted));
    EXPECT_GT(result.stats.checkpointsCreated, 0u);
    EXPECT_GT(result.stats.checkpointHits, 0u);
    EXPECT_GT(result.stats.decisionsRestored, 0u)
        << "hits that restore nothing are not prefix sharing";
    EXPECT_GT(result.stats.pagesCowCloned, 0u);
}

} // namespace
} // namespace icheck::explore
