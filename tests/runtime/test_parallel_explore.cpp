/**
 * @file
 * Parallel exploration: an exhaustive multi-worker search covers exactly
 * the one-worker schedule tree (same run count, same final states), and a
 * pruned multi-worker search converges to the same final states with
 * sound (never-unsound) pruning.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "runtime/parallel_explore.hpp"
#include "sim/lambda_program.hpp"

namespace icheck::runtime
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

/** Racy increment: distinct final states per interleaving class. */
check::ProgramFactory
racyIncrement()
{
    return [] {
        return std::make_unique<LambdaProgram>(
            "racyinc", 2,
            [](sim::SetupCtx &ctx) {
                const Addr g = ctx.global("G", mem::tInt64());
                ctx.init<std::int64_t>(g, 0);
            },
            [](sim::ThreadCtx &ctx) {
                const auto g = ctx.load<std::int64_t>(ctx.global("G"));
                ctx.store<std::int64_t>(ctx.global("G"), g + 1);
            });
    };
}

explore::ExploreConfig
exhaustiveConfig()
{
    explore::ExploreConfig cfg;
    cfg.prune = explore::PruneMode::None;
    cfg.maxRuns = 5000;
    return cfg;
}

TEST(ParallelExplore, ExhaustiveSearchMatchesSequential)
{
    const auto factory = racyIncrement();
    const explore::ExploreConfig cfg = exhaustiveConfig();

    const explore::ExploreResult sequential =
        explore::explore(factory, machineConfig(), cfg);
    ASSERT_TRUE(sequential.exhausted);

    for (const int jobs : {2, 4}) {
        const explore::ExploreResult parallel =
            exploreParallel(factory, machineConfig(), cfg, jobs);
        EXPECT_TRUE(parallel.exhausted);
        // Without pruning each prefix is generated exactly once by its
        // designated parent, so the executed set is schedule-independent.
        EXPECT_EQ(parallel.runsExecuted, sequential.runsExecuted)
            << "jobs=" << jobs;
        EXPECT_EQ(parallel.finalStates, sequential.finalStates)
            << "jobs=" << jobs;
    }
}

TEST(ParallelExplore, StatePruningFindsAllFinalStates)
{
    const auto factory = racyIncrement();
    explore::ExploreConfig cfg = exhaustiveConfig();
    cfg.prune = explore::PruneMode::StateHash;

    const explore::ExploreResult sequential =
        explore::explore(factory, machineConfig(), cfg);
    const explore::ExploreResult parallel =
        exploreParallel(factory, machineConfig(), cfg, 4);

    // Which run first claims a signature is timing-dependent, so run
    // counts may differ — but pruning only skips continuations of
    // already-reached states, so an exhausted search finds every state.
    ASSERT_TRUE(sequential.exhausted);
    ASSERT_TRUE(parallel.exhausted);
    EXPECT_EQ(parallel.finalStates, sequential.finalStates);
    EXPECT_LE(parallel.runsExecuted,
              exhaustiveConfig().maxRuns);
}

TEST(ParallelExplore, WorkerExceptionReachesCaller)
{
    // Cold runs build one program each; the third build throws. Whichever
    // worker hits it, the search stops and the exception surfaces from
    // the call once every worker is back.
    const auto built = std::make_shared<std::atomic<int>>(0);
    const check::ProgramFactory inner = racyIncrement();
    const check::ProgramFactory factory = [built, inner] {
        if (built->fetch_add(1) == 2)
            throw std::runtime_error("third program build fails");
        return inner();
    };
    explore::ExploreConfig cfg = exhaustiveConfig();
    cfg.checkpoints = false;
    for (const int jobs : {1, 4}) {
        built->store(0);
        EXPECT_THROW(exploreParallel(factory, machineConfig(), cfg, jobs),
                     std::runtime_error)
            << "jobs=" << jobs;
    }
}

TEST(ParallelExplore, RespectsMaxRunsCap)
{
    const auto factory = racyIncrement();
    explore::ExploreConfig cfg = exhaustiveConfig();
    cfg.maxRuns = 3;

    const explore::ExploreResult parallel =
        exploreParallel(factory, machineConfig(), cfg, 4);
    EXPECT_LE(parallel.runsExecuted, 3);
    EXPECT_FALSE(parallel.exhausted);
}

} // namespace
} // namespace icheck::runtime
