/**
 * @file
 * Absolute byte pins on the canonical campaign report, plus its
 * invariance to the worker count.
 *
 * Every other identity test compares two modes of one build; these pin
 * the exact `renderReportJson` bytes (what `icheck check <app> --scheme S
 * --input dev --runs 6 --json` prints), so a change that shifts any
 * checkpoint hash, the output-stream hash, an instruction count or the
 * rendering fails here even if it shifts every mode alike. Five apps are
 * integer-only (`icheck list` FP = N); pbzip2 writes an output stream,
 * which pins the output hash through recordsDigest. ocean and lu store
 * doubles, so their pins run the FP round-off unit (DecimalFloor, 3
 * digits) in all three schemes: the MHM's and SW-Inc's store deltas and
 * SW-Tr's typed traversal. That path uses only IEEE basic operations and
 * fabs/floor, so these bytes do not depend on the host libm either.
 * Together they cover the bit-by-bit, FP-precision, small-struct and
 * NDet classes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "apps/app_registry.hpp"
#include "apps/scales.hpp"
#include "check/driver.hpp"
#include "check/report_json.hpp"
#include "runtime/parallel_driver.hpp"
#include "sim/lambda_program.hpp"

namespace icheck
{
namespace
{

using check::DriverConfig;
using check::ProgramFactory;
using check::Scheme;
using sim::LambdaProgram;

struct GoldenReport
{
    const char *app;
    const char *schemeFlag; ///< The `--scheme` value.
    Scheme scheme;
    const char *json;
};

const GoldenReport kGolden[] = {
    {"radix", "hw", Scheme::HwInc,
        R"({"app":"radix","scheme":"HW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":13,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"2d932a7a81d48a80","avgNativeInstrs":14272,)"
        R"("avgOverheadInstrs":104,"overheadFactor":1.0072869955156951})"},
    {"radix", "swinc", Scheme::SwInc,
        R"({"app":"radix","scheme":"SW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":13,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"ff9acbf4636ffd51","avgNativeInstrs":14272,)"
        R"("avgOverheadInstrs":102504,"overheadFactor":8.1821748878923763})"},
    {"radix", "swtr", Scheme::SwTr,
        R"({"app":"radix","scheme":"SW-InstantCheck-Tr","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":13,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"6ff5b66d1eef8cf0","avgNativeInstrs":14272,)"
        R"("avgOverheadInstrs":143360,"overheadFactor":11.044843049327355})"},
    {"volrend", "hw", Scheme::HwInc,
        R"({"app":"volrend","scheme":"HW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":3,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"9f0a9dd61d9f9834","avgNativeInstrs":15953,)"
        R"("avgOverheadInstrs":24,"overheadFactor":1.0015044192314926})"},
    {"volrend", "swinc", Scheme::SwInc,
        R"({"app":"volrend","scheme":"SW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":3,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"e2ee7b31fa2231b4","avgNativeInstrs":15953,)"
        R"("avgOverheadInstrs":6584,"overheadFactor":1.4127123425061117})"},
    {"volrend", "swtr", Scheme::SwTr,
        R"({"app":"volrend","scheme":"SW-InstantCheck-Tr","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":3,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"0c1e9faf1b10caf8","avgNativeInstrs":15953,)"
        R"("avgOverheadInstrs":15680,"overheadFactor":1.9828872312417727})"},
    {"pbzip2", "hw", Scheme::HwInc,
        R"({"app":"pbzip2","scheme":"HW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":1,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"d2823de3d620793f",)"
        R"("avgNativeInstrs":3081.1666666666665,"avgOverheadInstrs":284,)"
        R"("overheadFactor":1.0921728782387623})"},
    {"pbzip2", "swinc", Scheme::SwInc,
        R"({"app":"pbzip2","scheme":"SW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":1,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"1345e8a1ff79035e",)"
        R"("avgNativeInstrs":3081.1666666666665,)"
        R"("avgOverheadInstrs":19987.666666666668,)"
        R"("overheadFactor":7.4870449505057621})"},
    {"pbzip2", "swtr", Scheme::SwTr,
        R"({"app":"pbzip2","scheme":"SW-InstantCheck-Tr","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":1,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"8450a8c3426da1c9",)"
        R"("avgNativeInstrs":3081.1666666666665,"avgOverheadInstrs":5300,)"
        R"("overheadFactor":2.7201276572726782})"},
    {"canneal", "hw", Scheme::HwInc,
        R"({"app":"canneal","scheme":"HW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":false,"firstNdetRun":2,)"
        R"("checkpointCountsMatch":true,"detPoints":0,"ndetPoints":3,)"
        R"("detAtEnd":false,"outputDeterministic":true,)"
        R"("recordsDigest":"1ad5d78b53ac6329",)"
        R"("avgNativeInstrs":3812.6666666666665,"avgOverheadInstrs":24,)"
        R"("overheadFactor":1.0062948067844029})"},
    {"canneal", "swinc", Scheme::SwInc,
        R"({"app":"canneal","scheme":"SW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":false,"firstNdetRun":2,)"
        R"("checkpointCountsMatch":true,"detPoints":0,"ndetPoints":3,)"
        R"("detAtEnd":false,"outputDeterministic":true,)"
        R"("recordsDigest":"81e491cdefe4e25a",)"
        R"("avgNativeInstrs":3812.6666666666665,)"
        R"("avgOverheadInstrs":10637.333333333334,)"
        R"("overheadFactor":3.7899982514425599})"},
    {"canneal", "swtr", Scheme::SwTr,
        R"({"app":"canneal","scheme":"SW-InstantCheck-Tr","runs":6,)"
        R"("deterministic":false,"firstNdetRun":2,)"
        R"("checkpointCountsMatch":true,"detPoints":0,"ndetPoints":3,)"
        R"("detAtEnd":false,"outputDeterministic":true,)"
        R"("recordsDigest":"ad969f8d4df5837f",)"
        R"("avgNativeInstrs":3812.6666666666665,"avgOverheadInstrs":5120,)"
        R"("overheadFactor":2.3428921140059451})"},
    {"radiosity", "hw", Scheme::HwInc,
        R"({"app":"radiosity","scheme":"HW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":false,"firstNdetRun":2,)"
        R"("checkpointCountsMatch":true,"detPoints":1,"ndetPoints":4,)"
        R"("detAtEnd":false,"outputDeterministic":true,)"
        R"("recordsDigest":"85059dcd4d70efd1","avgNativeInstrs":2482,)"
        R"("avgOverheadInstrs":40,"overheadFactor":1.0161160354552781})"},
    {"radiosity", "swinc", Scheme::SwInc,
        R"({"app":"radiosity","scheme":"SW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":false,"firstNdetRun":2,)"
        R"("checkpointCountsMatch":true,"detPoints":1,"ndetPoints":4,)"
        R"("detAtEnd":false,"outputDeterministic":true,)"
        R"("recordsDigest":"251f8e17dac2d4b0","avgNativeInstrs":2482,)"
        R"("avgOverheadInstrs":7871.333333333333,)"
        R"("overheadFactor":4.1713671770077889})"},
    {"radiosity", "swtr", Scheme::SwTr,
        R"({"app":"radiosity","scheme":"SW-InstantCheck-Tr","runs":6,)"
        R"("deterministic":false,"firstNdetRun":2,)"
        R"("checkpointCountsMatch":true,"detPoints":1,"ndetPoints":4,)"
        R"("detAtEnd":false,"outputDeterministic":true,)"
        R"("recordsDigest":"52ec22aaf223377e","avgNativeInstrs":2482,)"
        R"("avgOverheadInstrs":7920,"overheadFactor":4.1909750201450446})"},
    {"ocean", "hw", Scheme::HwInc,
        R"({"app":"ocean","scheme":"HW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":17,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"701a126dd94a1659","avgNativeInstrs":9588,)"
        R"("avgOverheadInstrs":136,"overheadFactor":1.0141843971631206})"},
    {"ocean", "swinc", Scheme::SwInc,
        R"({"app":"ocean","scheme":"SW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":17,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"0b7d461d85e539f6","avgNativeInstrs":9588,)"
        R"("avgOverheadInstrs":35016,)"
        R"("overheadFactor":4.6520650813516893})"},
    {"ocean", "swtr", Scheme::SwTr,
        R"({"app":"ocean","scheme":"SW-InstantCheck-Tr","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":17,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"8c60b678902c9037","avgNativeInstrs":9588,)"
        R"("avgOverheadInstrs":104400,)"
        R"("overheadFactor":11.888610763454318})"},
    {"lu", "hw", Scheme::HwInc,
        R"({"app":"lu","scheme":"HW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":7,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"b1d51297b67fcf1d","avgNativeInstrs":8940,)"
        R"("avgOverheadInstrs":56,"overheadFactor":1.0062639821029082})"},
    {"lu", "swinc", Scheme::SwInc,
        R"({"app":"lu","scheme":"SW-InstantCheck-Inc","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":7,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"f4613b5c51a21dad","avgNativeInstrs":8940,)"
        R"("avgOverheadInstrs":108824,)"
        R"("overheadFactor":13.172706935123042})"},
    {"lu", "swtr", Scheme::SwTr,
        R"({"app":"lu","scheme":"SW-InstantCheck-Tr","runs":6,)"
        R"("deterministic":true,"firstNdetRun":0,)"
        R"("checkpointCountsMatch":true,"detPoints":7,"ndetPoints":0,)"
        R"("detAtEnd":true,"outputDeterministic":true,)"
        R"("recordsDigest":"5d3c121f00c43b33","avgNativeInstrs":8940,)"
        R"("avgOverheadInstrs":81920,"overheadFactor":10.16331096196868})"},
};

/** Keeps the parameter's printed form (part of the listed test name)
 *  free of pointer values. */
void
PrintTo(const GoldenReport &pin, std::ostream *os)
{
    *os << pin.app << " --scheme " << pin.schemeFlag;
}

class ReportGolden : public ::testing::TestWithParam<GoldenReport>
{
};

TEST_P(ReportGolden, RenderedBytesArePinned)
{
    // The configuration `icheck check` builds from its defaults.
    const GoldenReport &pin = GetParam();
    const apps::AppInfo &app = apps::findApp(pin.app);
    DriverConfig cfg;
    cfg.scheme = pin.scheme;
    cfg.runs = 6;
    cfg.ignores = app.ignores;
    const check::DriverReport report = runtime::runCampaign(
        cfg, apps::scaledFactory(app.name, apps::InputScale::Dev), {});
    EXPECT_EQ(check::renderReportJson(report), pin.json);
}

INSTANTIATE_TEST_SUITE_P(
    DevInput, ReportGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenReport> &info) {
        return std::string(info.param.app) + "_" + info.param.schemeFlag;
    });

DriverConfig
lambdaConfig()
{
    DriverConfig cfg;
    cfg.scheme = Scheme::HwInc;
    cfg.runs = 8;
    cfg.machine.numCores = 4;
    cfg.machine.minQuantum = 2;
    cfg.machine.maxQuantum = 10;
    return cfg;
}

/** Deterministic: per-thread partial sums merged under a lock. */
ProgramFactory
deterministicFactory()
{
    return [] {
        auto ids = std::make_shared<sim::MutexId>();
        return std::make_unique<LambdaProgram>(
            "det", 4,
            [ids](sim::SetupCtx &ctx) {
                ctx.global("sum", mem::tInt64());
                *ids = ctx.mutex();
            },
            [ids](sim::ThreadCtx &ctx) {
                std::int64_t local = 0;
                for (int i = 0; i < 8; ++i)
                    local += ctx.tid() * 8 + i;
                ctx.lock(*ids);
                const Addr sum = ctx.global("sum");
                ctx.store<std::int64_t>(
                    sum, ctx.load<std::int64_t>(sum) + local);
                ctx.unlock(*ids);
                ctx.outputValue<std::int64_t>(local);
            });
    };
}

/** Racy last-writer-wins: nondeterministic, so the report carries
 *  divergence structure that must also be reproduced byte for byte. */
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
renderWithJobs(const ProgramFactory &factory, int jobs)
{
    runtime::CampaignOptions options;
    options.jobs = jobs;
    return check::renderReportJson(
        runtime::runCampaign(lambdaConfig(), factory, options));
}

class ReportJobsIdentity : public ::testing::TestWithParam<bool>
{
  protected:
    ProgramFactory
    factory() const
    {
        return GetParam() ? racyFactory() : deterministicFactory();
    }
};

TEST_P(ReportJobsIdentity, ReportBytesInvariantToJobs)
{
    const ProgramFactory factory = this->factory();
    const std::string serial = renderWithJobs(factory, 1);
    ASSERT_FALSE(serial.empty());
    for (int jobs : {2, 4})
        EXPECT_EQ(renderWithJobs(factory, jobs), serial) << "jobs " << jobs;
}

INSTANTIATE_TEST_SUITE_P(DetAndRacy, ReportJobsIdentity,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "racy" : "deterministic";
                         });

} // namespace
} // namespace icheck
