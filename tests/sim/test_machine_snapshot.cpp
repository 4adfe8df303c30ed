/**
 * @file
 * Machine checkpoint()/restore(): a restored machine must be bit-
 * identical to a cold machine at the same scheduling decision — same
 * thread hashes, same state signature, same rendered statistics — so
 * every downstream report is byte-identical with snapshots on or off.
 */

#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <vector>

#include "check/driver.hpp"
#include "sim/lambda_program.hpp"
#include "sim/machine.hpp"
#include "sim/sched.hpp"

namespace icheck::sim
{
namespace
{

/** Racy increments: the final state depends on the schedule. */
check::ProgramFactory
racyFactory()
{
    return [] {
        return std::make_unique<LambdaProgram>(
            "snap-racy", 2,
            [](SetupCtx &ctx) {
                const Addr g = ctx.global("G", mem::tInt64());
                ctx.init<std::int64_t>(g, 2);
            },
            [](ThreadCtx &ctx) {
                const std::int64_t local = ctx.tid() == 0 ? 7 : 3;
                for (int i = 0; i < 6; ++i) {
                    const auto g =
                        ctx.load<std::int64_t>(ctx.global("G"));
                    ctx.store<std::int64_t>(ctx.global("G"),
                                            g * 2 + local);
                }
            });
    };
}

MachineConfig
machineConfig()
{
    MachineConfig cfg;
    cfg.numCores = 2;
    return cfg;
}

/** All observable outcomes of one finished run. */
struct Outcome
{
    std::vector<HashWord> threadHashes;
    std::uint64_t signature = 0;
    std::string stats;

    bool operator==(const Outcome &) const = default;
};

Outcome
observe(const Machine &machine)
{
    Outcome out;
    for (ThreadId t = 0; t < machine.numThreads(); ++t)
        out.threadHashes.push_back(machine.threadHash(t));
    out.signature = machine.stateSignature();
    out.stats = machine.renderStats();
    return out;
}

/**
 * A machine driven through the session API with a scripted scheduler,
 * checkpointing at @p checkpoint_decision; keeps everything needed to
 * resume the scheduler at that decision.
 */
struct Session
{
    Machine machine;
    std::unique_ptr<Program> program;
    ScriptedScheduler *sched = nullptr;
    std::shared_ptr<const MachineSnapshot> snap;
    std::vector<std::uint32_t> fanout, chosen;
    std::vector<std::int32_t> prevIdx;
    ThreadId lastPick = invalidThreadId;
    std::size_t decision = 0;

    Session(const check::ProgramFactory &factory,
            std::vector<std::uint32_t> script,
            std::size_t checkpoint_decision)
        : machine(machineConfig()), program(factory())
    {
        auto scripted = std::make_unique<ScriptedScheduler>(
            std::move(script), /*fixed_quantum=*/2);
        sched = scripted.get();
        machine.setScheduler(std::move(scripted));
        machine.setDecisionHandler([this, checkpoint_decision](
                                       const std::vector<ThreadId> &) {
            if (decision == checkpoint_decision) {
                snap = machine.checkpoint();
                fanout = sched->decisionFanout();
                chosen = sched->chosenIndices();
                prevIdx = sched->previousIndices();
                lastPick = sched->lastPicked();
            }
            ++decision;
        });
        machine.beginRun(*program);
    }

    Outcome
    finish()
    {
        machine.finishRun();
        return observe(machine);
    }

    /** Restore the checkpoint and re-run the suffix under @p script. */
    Outcome
    resume(std::vector<std::uint32_t> script)
    {
        auto scripted = std::make_unique<ScriptedScheduler>(
            std::move(script), /*fixed_quantum=*/2);
        scripted->resumeAt(fanout, chosen, prevIdx, lastPick);
        sched = scripted.get();
        machine.restore(*snap);
        machine.setScheduler(std::move(scripted));
        decision = chosen.size();
        machine.finishRun();
        return observe(machine);
    }
};

TEST(MachineSnapshot, RestoredSuffixMatchesColdRun)
{
    if (!Machine::snapshotSupported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    const std::vector<std::uint32_t> script = {0, 1, 1, 0, 1, 0, 0, 1};
    Session session(racyFactory(), script, /*checkpoint_decision=*/4);
    const Outcome cold = session.finish();
    ASSERT_NE(session.snap, nullptr) << "checkpoint was never taken";
    EXPECT_EQ(session.chosen.size(), 4u)
        << "scheduler history must hold exactly the checkpointed prefix";

    const Outcome warm = session.resume(script);
    EXPECT_EQ(warm, cold)
        << "restore + identical suffix must replay bit-identically";
}

TEST(MachineSnapshot, RestoreIsRepeatable)
{
    if (!Machine::snapshotSupported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    const std::vector<std::uint32_t> script = {1, 0, 0, 1, 1, 0};
    Session session(racyFactory(), script, /*checkpoint_decision=*/3);
    const Outcome cold = session.finish();
    ASSERT_NE(session.snap, nullptr);

    const Outcome first = session.resume(script);
    const Outcome second = session.resume(script);
    EXPECT_EQ(first, cold);
    EXPECT_EQ(second, cold)
        << "a snapshot must survive being restored more than once";
}

TEST(MachineSnapshot, DivergentSuffixMatchesColdScriptedRun)
{
    if (!Machine::snapshotSupported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    // Shared prefix of 3 decisions, then two different continuations.
    const std::vector<std::uint32_t> base = {0, 1, 0, 0, 0, 1, 1};
    std::vector<std::uint32_t> other = base;
    other[4] ^= 1u; // diverge right after the checkpoint
    other[6] ^= 1u;

    Session session(racyFactory(), base, /*checkpoint_decision=*/3);
    const Outcome cold_base = session.finish();
    ASSERT_NE(session.snap, nullptr);

    // Cold reference for the divergent schedule: a fresh machine.
    Session reference(racyFactory(), other, /*checkpoint_decision=*/3);
    const Outcome cold_other = reference.finish();
    EXPECT_NE(cold_other, cold_base)
        << "the racy program must actually distinguish the schedules";

    const Outcome warm_other = session.resume(other);
    EXPECT_EQ(warm_other, cold_other)
        << "restoring and taking a different branch must equal the "
           "cold run of that branch";

    const Outcome warm_base = session.resume(base);
    EXPECT_EQ(warm_base, cold_base);
}

TEST(MachineSnapshot, RootCheckpointRestartsWholeRun)
{
    if (!Machine::snapshotSupported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    const std::vector<std::uint32_t> script = {1, 1, 0, 0, 1};
    Session session(racyFactory(), script, /*checkpoint_decision=*/0);
    const Outcome cold = session.finish();
    ASSERT_NE(session.snap, nullptr);
    EXPECT_TRUE(session.chosen.empty());

    const Outcome warm = session.resume(script);
    EXPECT_EQ(warm, cold)
        << "a decision-0 snapshot must replay the entire run";
}

TEST(MachineSnapshot, SnapshotReportsFootprint)
{
    if (!Machine::snapshotSupported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    Session session(racyFactory(), {0, 0, 1}, /*checkpoint_decision=*/2);
    session.finish();
    ASSERT_NE(session.snap, nullptr);
    EXPECT_GT(session.snap->bytes(), sizeof(MachineSnapshot))
        << "footprint must account for owned state beyond the struct";
}

TEST(MachineSnapshot, FootprintCountsTheCopiedCacheTags)
{
    if (!Machine::snapshotSupported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    // Every snapshot copies each core's L1 tag array (12 KiB per core on
    // the default geometry); a budget that does not count them holds
    // far more memory than it says.
    Session session(racyFactory(), {0, 0, 1}, /*checkpoint_decision=*/2);
    session.finish();
    ASSERT_NE(session.snap, nullptr);
    std::size_t tags = 0;
    for (CoreId c = 0; c < session.machine.numCores(); ++c)
        tags += session.machine.core(c).l1.footprintBytes();
    EXPECT_GE(tags, 2 * std::size_t{12} * 1024);
    EXPECT_GE(session.snap->bytes(), sizeof(MachineSnapshot) + tags);
}

} // namespace
} // namespace icheck::sim
