/**
 * @file
 * Chrome trace export (`icheck check --trace`): the emitted JSON must be
 * structurally valid trace-event format — Perfetto/chrome://tracing
 * accept exactly this shape — and divergence markers must appear for
 * nondeterministic campaigns.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "check/driver.hpp"
#include "check/trace_export.hpp"
#include "sim/lambda_program.hpp"

namespace icheck::check
{
namespace
{

using sim::LambdaProgram;

DriverConfig
baseConfig()
{
    DriverConfig cfg;
    cfg.scheme = Scheme::HwInc;
    cfg.runs = 6;
    cfg.machine.numCores = 2;
    cfg.machine.minQuantum = 2;
    cfg.machine.maxQuantum = 10;
    return cfg;
}

ProgramFactory
lockedCounterFactory()
{
    return [] {
        auto ids = std::make_shared<sim::MutexId>();
        return std::make_unique<LambdaProgram>(
            "locked", 2,
            [ids](sim::SetupCtx &ctx) {
                ctx.global("G", mem::tInt64());
                *ids = ctx.mutex();
            },
            [ids](sim::ThreadCtx &ctx) {
                for (int i = 0; i < 4; ++i) {
                    ctx.lock(*ids);
                    const auto g =
                        ctx.load<std::int64_t>(ctx.global("G"));
                    ctx.store<std::int64_t>(ctx.global("G"), g + 1);
                    ctx.unlock(*ids);
                }
                ctx.outputValue<std::int64_t>(7);
            });
    };
}

/** Racy final state: campaigns on this are nondeterministic. */
ProgramFactory
racyFactory()
{
    return [] {
        return std::make_unique<LambdaProgram>(
            "racy", 4,
            [](sim::SetupCtx &ctx) { ctx.global("w", mem::tInt64()); },
            [](sim::ThreadCtx &ctx) {
                for (int i = 0; i < 10; ++i)
                    ctx.store<std::int64_t>(ctx.global("w"),
                                            ctx.tid() * 100 + i);
                ctx.outputValue<std::int64_t>(
                    ctx.load<std::int64_t>(ctx.global("w")));
            });
    };
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++count;
    return count;
}

class TraceExportTest : public ::testing::Test
{
  protected:
    std::string
    tracePath() const
    {
        return testing::TempDir() + "trace_export_test.json";
    }

    void TearDown() override { std::remove(tracePath().c_str()); }
};

TEST_F(TraceExportTest, EmitsStructurallyValidTraceEvents)
{
    const DriverConfig cfg = baseConfig();
    const ProgramFactory factory = lockedCounterFactory();
    const DriverReport report =
        DeterminismDriver(cfg).check(factory);
    const TraceExportResult result =
        exportCampaignTrace(cfg, factory, report, tracePath());
    EXPECT_EQ(result.runsTraced, 2);
    EXPECT_EQ(result.divergences, 0);

    const std::string text = slurp(tracePath());
    ASSERT_FALSE(text.empty());
    // Trace-event container shape.
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    // Only the phases the exporter is specified to produce: complete
    // slices (X), instants (I), and metadata (M).
    EXPECT_GT(countOccurrences(text, "\"ph\":\"X\""), 0u);
    EXPECT_GT(countOccurrences(text, "\"ph\":\"M\""), 0u);
    const std::size_t named = countOccurrences(text, "\"ph\":\"X\"") +
                              countOccurrences(text, "\"ph\":\"I\"") +
                              countOccurrences(text, "\"ph\":\"M\"");
    EXPECT_EQ(countOccurrences(text, "\"ph\":"), named);
    // Both traced runs appear as named processes; lock holds and
    // checkpoints are present.
    EXPECT_EQ(countOccurrences(text, "process_name"), 2u);
    EXPECT_NE(text.find("lock "), std::string::npos);
    EXPECT_NE(text.find("checkpoint "), std::string::npos);
    // Every X event needs a duration to render.
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"X\""),
              countOccurrences(text, "\"dur\":"));
    EXPECT_EQ(text.find("HASH DIVERGENCE"), std::string::npos);
}

TEST_F(TraceExportTest, MarksHashDivergencesForNondeterministicRuns)
{
    const DriverConfig cfg = baseConfig();
    const ProgramFactory factory = racyFactory();
    const DriverReport report =
        DeterminismDriver(cfg).check(factory);
    ASSERT_FALSE(report.deterministic());
    const TraceExportResult result =
        exportCampaignTrace(cfg, factory, report, tracePath());
    EXPECT_EQ(result.runsTraced, 2);
    EXPECT_GT(result.divergences, 0);

    const std::string text = slurp(tracePath());
    // One marker per diverging checkpoint in EACH traced run.
    EXPECT_EQ(countOccurrences(text, "HASH DIVERGENCE"),
              2u * static_cast<std::size_t>(result.divergences));
}

} // namespace
} // namespace icheck::check
