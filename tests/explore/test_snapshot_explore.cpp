/**
 * @file
 * Prefix-sharing exploration: with checkpointing on, every exploration
 * outcome (runs executed, prune/bound counts, exhaustion, final states)
 * must be byte-identical to the cold path, for every pruning mode; leased
 * checkpoints must resume children that branch above their parent's
 * branch, must all be freed when the search returns, and a cap too small
 * for any must change nothing but the replay; and the parallel frontier
 * must agree with the sequential engine.
 */

#include <gtest/gtest.h>
#include <memory>

#include "apps/scales.hpp"
#include "explore/explorer.hpp"
#include "explore/prefix_engine.hpp"
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
            if (PrefixEngine::supported()) {
                EXPECT_TRUE(warm.stats.checkpointing);
            }
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

TEST(SnapshotExplore, CapTooSmallForOneSnapshotStaysExact)
{
    for (const bool dpor : {false, true}) {
        ExploreConfig warm_cfg = baseConfig(PruneMode::StateHash);
        warm_cfg.dpor = dpor;
        warm_cfg.checkpoints = true;
        // No snapshot fits: every run must replay from its root without
        // changing any outcome.
        warm_cfg.checkpointBudgetBytes = 1;
        ExploreConfig cold_cfg = warm_cfg;
        cold_cfg.checkpoints = false;

        const ExploreResult warm =
            explore(racyFactory(), machineConfig(), warm_cfg);
        const ExploreResult cold =
            explore(racyFactory(), machineConfig(), cold_cfg);
        expectSameOutcome(warm, cold, dpor ? "1-byte cap, dpor" : "1-byte cap");
        if (!PrefixEngine::supported())
            continue;
        EXPECT_GT(warm.stats.checkpointsEvicted, 0u)
            << "the skipped checkpoints must be counted";
        EXPECT_EQ(warm.stats.checkpointsCreated, 0u);
        EXPECT_EQ(warm.stats.checkpointHits, 0u);
        EXPECT_EQ(warm.stats.checkpointBytes, 0u);
    }
}

TEST(SnapshotExplore, NoCheckpointOutlivesTheSearch)
{
    if (!PrefixEngine::supported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    ASSERT_EQ(detail::liveCheckpoints(), 0u);
    for (const bool dpor : {false, true}) {
        for (const int jobs : {1, 4}) {
            // Exhausted, and cut short with leases still on the frontier.
            for (const int max_runs : {4000, 12}) {
                ExploreConfig cfg = baseConfig(PruneMode::StateHash);
                cfg.dpor = dpor;
                cfg.maxRuns = max_runs;
                const ExploreResult result =
                    explore(racyFactory(), machineConfig(), cfg, jobs);
                EXPECT_GT(result.stats.checkpointsCreated, 0u)
                    << dpor << " " << jobs << " " << max_runs;
                EXPECT_EQ(detail::liveCheckpoints(), 0u)
                    << dpor << " " << jobs << " " << max_runs;
            }
        }
    }
}

TEST(SnapshotExplore, LongChainFreesWithoutRecursion)
{
    // Far deeper than a recursive release could go on a thread stack.
    ASSERT_EQ(detail::liveCheckpoints(), 0u);
    std::shared_ptr<const detail::Checkpoint> head;
    for (int i = 0; i < 1000000; ++i) {
        auto next = std::make_shared<detail::Checkpoint>();
        next->parent = std::move(head);
        head = std::move(next);
    }
    EXPECT_EQ(detail::liveCheckpoints(), 1000000u);
    head.reset();
    EXPECT_EQ(detail::liveCheckpoints(), 0u);
}

TEST(SnapshotExplore, ChildAboveParentBranchResumesFromAncestor)
{
    if (!PrefixEngine::supported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    ExploreConfig cfg = baseConfig(PruneMode::None);
    cfg.dpor = true;
    detail::CheckpointBudget budget(cfg.checkpointBudgetBytes);
    PrefixEngine engine(racyFactory(), machineConfig(), cfg, budget, 0);
    const detail::SignatureInsert insert = [](std::uint64_t) {
        return true;
    };

    // Run @p node warm and check it against the cold run.
    const auto run = [&](const detail::PendingNode &node) {
        detail::RunObservation warm = engine.runOnce(node, insert);
        const detail::RunObservation cold =
            detail::runOnce(racyFactory(), machineConfig(), cfg,
                            node.prefix, insert, &node.sleep);
        EXPECT_EQ(warm.path, cold.path);
        EXPECT_EQ(warm.fanout, cold.fanout);
        EXPECT_EQ(warm.finalState, cold.finalState);
        return warm;
    };
    // The child of the last run @p obs that flips its choice at @p e.
    const auto child = [&](const detail::RunObservation &obs,
                           std::size_t e) {
        detail::PendingNode node;
        node.prefix.assign(obs.path.begin(),
                           obs.path.begin() + static_cast<std::ptrdiff_t>(e));
        node.prefix.push_back(obs.path[e] == 0 ? 1 : 0);
        node.lease = engine.leaseAt(e);
        return node;
    };
    const auto branchy = [](const detail::RunObservation &obs,
                            std::size_t from) {
        for (std::size_t d = from; d < obs.fanout.size(); ++d) {
            if (obs.fanout[d] > 1)
                return d;
        }
        return noDecision;
    };

    // root -> n1 (branch e1, checkpointed) -> n2 (branch e2 > e1,
    // checkpointed) -> n3, whose branch e3 lies between them: above its
    // parent's branch, so its lease is the checkpoint n1 took.
    const detail::RunObservation root = run({});
    const std::size_t e1 = branchy(root, 1);
    ASSERT_NE(e1, noDecision);
    const detail::RunObservation o1 = run(child(root, e1));
    const std::size_t e3 = branchy(o1, e1 + 1);
    ASSERT_NE(e3, noDecision);
    const std::size_t e2 = branchy(o1, e3 + 1);
    ASSERT_NE(e2, noDecision);
    const detail::PendingNode n2 = child(o1, e2);
    ASSERT_NE(n2.lease, nullptr);
    EXPECT_EQ(n2.lease->depth(), e1);
    const detail::RunObservation o2 = run(n2);

    const detail::PendingNode n3 = child(o2, e3);
    ASSERT_NE(n3.lease, nullptr);
    EXPECT_EQ(n3.lease.get(), n2.lease.get())
        << "the lease must be the ancestor's checkpoint at e1";
    const std::uint64_t hits = engine.stats().checkpointHits;
    const std::uint64_t restored = engine.stats().decisionsRestored;
    run(n3);
    EXPECT_EQ(engine.stats().checkpointHits, hits + 1);
    EXPECT_EQ(engine.stats().decisionsRestored, restored + e1);

    // And the whole DPOR search is the cold one.
    ExploreConfig cold_cfg = cfg;
    cold_cfg.checkpoints = false;
    const ExploreResult warm = explore(racyFactory(), machineConfig(), cfg);
    const ExploreResult cold =
        explore(racyFactory(), machineConfig(), cold_cfg);
    expectSameOutcome(warm, cold, "dpor");
    EXPECT_GT(warm.stats.checkpointHits, 0u);
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
