/**
 * @file
 * Determinism-driver edge cases: checkpoint-count mismatches (a program
 * whose *number* of checkpoints is schedule-dependent), output-stream
 * verdicts, and the output-stream hash.
 */

#include <gtest/gtest.h>
#include <memory>

#include "check/driver.hpp"
#include "check/io_hash.hpp"
#include "sim/lambda_program.hpp"

namespace icheck::check
{
namespace
{

using sim::LambdaProgram;

DriverConfig
config()
{
    DriverConfig cfg;
    cfg.runs = 12;
    cfg.machine.numCores = 4;
    cfg.machine.minQuantum = 1;
    cfg.machine.maxQuantum = 6;
    return cfg;
}

TEST(DriverEdge, CheckpointCountMismatchIsNondeterminism)
{
    // Thread 0 emits a manual checkpoint per unit of a racy counter: the
    // checkpoint *count* itself becomes schedule-dependent. The driver
    // must flag this rather than silently truncating.
    DeterminismDriver driver(config());
    const DriverReport report = driver.check([] {
        return std::make_unique<LambdaProgram>(
            "varying-cps", 3,
            [](sim::SetupCtx &ctx) { ctx.global("n", mem::tInt64()); },
            [](sim::ThreadCtx &ctx) {
                const Addr n = ctx.global("n");
                if (ctx.tid() == 0) {
                    // Read a racy progress indicator and checkpoint that
                    // many times (1..3).
                    ctx.tick(50);
                    auto count = ctx.load<std::int64_t>(n);
                    count = std::clamp<std::int64_t>(count, 0, 2);
                    for (std::int64_t i = 0; i <= count; ++i)
                        ctx.checkpoint();
                } else {
                    const auto v = ctx.load<std::int64_t>(n);
                    ctx.store<std::int64_t>(n, v + 1);
                }
            });
    });
    EXPECT_FALSE(report.deterministic());
    EXPECT_FALSE(report.checkpointCountsMatch);
}

TEST(DriverEdge, OutputNondeterminismAloneFailsTheVerdict)
{
    // State converges (threads only write their own slots and restore
    // them), but the *output order* interleaves.
    DeterminismDriver driver(config());
    const DriverReport report = driver.check([] {
        return std::make_unique<LambdaProgram>(
            "racy-output", 3, nullptr,
            [](sim::ThreadCtx &ctx) {
                for (int i = 0; i < 4; ++i) {
                    ctx.outputValue<std::uint32_t>(ctx.tid() * 100 + i);
                    ctx.tick(20);
                }
            });
    });
    EXPECT_FALSE(report.outputDeterministic);
    EXPECT_FALSE(report.deterministic());
    EXPECT_EQ(report.ndetPoints, 0u)
        << "memory state itself never diverged";
}

TEST(DriverEdge, OverheadFactorDefinition)
{
    DriverReport report;
    report.avgNativeInstrs = 1000;
    report.avgOverheadInstrs = 30;
    EXPECT_DOUBLE_EQ(report.overheadFactor(), 1.03);
    report.avgNativeInstrs = 0;
    EXPECT_DOUBLE_EQ(report.overheadFactor(), 1.0);
}

TEST(OutputHasher, OrderSensitiveStreamHash)
{
    EXPECT_NE(hashOutputStream({1, 2, 3, 4, 5}),
              hashOutputStream({4, 5, 1, 2, 3}))
        << "interleaved outputs must hash differently (Section 4.3)";
}

} // namespace
} // namespace icheck::check
