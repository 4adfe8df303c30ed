/**
 * @file
 * The parallel campaign executor's contract: for any worker count the
 * DriverReport — checkpoint hash sequences, distributions, det/ndet
 * verdicts, firstNdetRun, and overhead statistics — is bit-identical to
 * the sequential DeterminismDriver's, for deterministic and
 * nondeterministic apps alike, including apps whose replays read the
 * malloc log while the record run writes it. Also covers campaigns
 * sharing one pool, a failing record run, a sealed empty log, and the
 * result sink's streaming counters and JSONL output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/app_registry.hpp"
#include "runtime/parallel_driver.hpp"
#include "runtime/result_sink.hpp"
#include "sim/lambda_program.hpp"

namespace icheck::runtime
{
namespace
{

check::DriverConfig
campaignConfig(const apps::AppInfo &app, int runs)
{
    check::DriverConfig cfg;
    cfg.runs = runs;
    cfg.machine.numCores = 8;
    cfg.ignores = app.ignores;
    return cfg;
}

/** Assert every field the report derives is equal, run records included. */
void
expectBitIdentical(const check::DriverReport &expected,
                   const check::DriverReport &actual)
{
    EXPECT_EQ(expected.app, actual.app);
    EXPECT_EQ(expected.scheme, actual.scheme);
    EXPECT_EQ(expected.runs, actual.runs);
    ASSERT_EQ(expected.records.size(), actual.records.size());
    for (std::size_t i = 0; i < expected.records.size(); ++i) {
        const check::RunRecord &e = expected.records[i];
        const check::RunRecord &a = actual.records[i];
        EXPECT_EQ(e.checkpointHashes, a.checkpointHashes) << "run " << i;
        EXPECT_EQ(e.outputHash, a.outputHash) << "run " << i;
        EXPECT_EQ(e.outputBytes, a.outputBytes) << "run " << i;
        EXPECT_EQ(e.result.nativeInstrs, a.result.nativeInstrs)
            << "run " << i;
        EXPECT_EQ(e.result.overheadInstrs, a.result.overheadInstrs)
            << "run " << i;
        EXPECT_EQ(e.checkerOverheadInstrs, a.checkerOverheadInstrs)
            << "run " << i;
    }
    EXPECT_EQ(expected.checkpointCountsMatch, actual.checkpointCountsMatch);
    ASSERT_EQ(expected.distributions.size(), actual.distributions.size());
    for (std::size_t cp = 0; cp < expected.distributions.size(); ++cp)
        EXPECT_EQ(expected.distributions[cp], actual.distributions[cp])
            << "checkpoint " << cp;
    EXPECT_EQ(expected.detPoints, actual.detPoints);
    EXPECT_EQ(expected.ndetPoints, actual.ndetPoints);
    EXPECT_EQ(expected.detAtEnd, actual.detAtEnd);
    EXPECT_EQ(expected.outputDeterministic, actual.outputDeterministic);
    EXPECT_EQ(expected.firstNdetRun, actual.firstNdetRun);
    EXPECT_EQ(expected.deterministic(), actual.deterministic());
    EXPECT_EQ(expected.avgNativeInstrs, actual.avgNativeInstrs);
    EXPECT_EQ(expected.avgOverheadInstrs, actual.avgOverheadInstrs);
    EXPECT_EQ(expected.overheadFactor(), actual.overheadFactor());
}

class ParallelDriverIdentity
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{
};

TEST_P(ParallelDriverIdentity, MatchesSequentialReport)
{
    const auto [app_name, jobs] = GetParam();
    const apps::AppInfo &app = apps::findApp(app_name);
    const check::DriverConfig cfg = campaignConfig(app, /*runs=*/10);

    const check::DriverReport sequential =
        check::DeterminismDriver(cfg).check(app.factory);

    CampaignOptions options;
    options.jobs = jobs;
    const check::DriverReport parallel =
        runCampaign(cfg, app.factory, options);

    expectBitIdentical(sequential, parallel);
}

// radix is bit-by-bit deterministic; barnes is nondeterministic (tree
// shape depends on the interleaving), so firstNdetRun and per-checkpoint
// distributions are all exercised.
INSTANTIATE_TEST_SUITE_P(
    DetAndNdetAppsAcrossJobCounts, ParallelDriverIdentity,
    ::testing::Combine(::testing::Values("radix", "barnes"),
                       ::testing::Values(1, 2, 8)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) + "_jobs" +
               std::to_string(std::get<1>(info.param));
    });

TEST(ParallelDriver, AllSchemesMatchSequential)
{
    const apps::AppInfo &app = apps::findApp("fluidanimate");
    for (const check::Scheme scheme :
         {check::Scheme::HwInc, check::Scheme::SwInc,
          check::Scheme::SwTr}) {
        check::DriverConfig cfg = campaignConfig(app, /*runs=*/6);
        cfg.scheme = scheme;
        const check::DriverReport sequential =
            check::DeterminismDriver(cfg).check(app.factory);
        CampaignOptions options;
        options.jobs = 4;
        expectBitIdentical(sequential,
                           runCampaign(cfg, app.factory, options));
    }
}

TEST(ParallelDriver, ReusesExternalPool)
{
    const apps::AppInfo &app = apps::findApp("radix");
    const check::DriverConfig cfg = campaignConfig(app, /*runs=*/8);
    const check::DriverReport sequential =
        check::DeterminismDriver(cfg).check(app.factory);

    ThreadPool pool(4);
    std::mutex mu;
    std::vector<int> executed;
    CampaignOptions options;
    options.pool = &pool;
    options.onRunComplete = [&](int run, const check::RunRecord &) {
        std::lock_guard<std::mutex> lock(mu);
        executed.push_back(run);
    };
    expectBitIdentical(sequential, runCampaign(cfg, app.factory, options));
    // Every run executed exactly once, on the caller or one of at most
    // workerCount() helper tasks.
    std::sort(executed.begin(), executed.end());
    EXPECT_EQ(executed, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_LE(pool.stats().tasksExecuted, 4u);
}

/**
 * The four registry apps that call malloc, with the entries their record
 * run logs at medium input: their replays read the log while the record
 * run writes it.
 */
struct AllocatingApp
{
    const char *name;
    std::size_t logEntries;
};

const AllocatingApp kAllocatingApps[] = {
    {"cholesky", 8}, {"pbzip2", 24}, {"sphinx3", 40}, {"barnes", 48}};

/** Names the parameter in test listings by the app, not its bytes. */
void
PrintTo(const AllocatingApp &app, std::ostream *os)
{
    *os << app.name;
}

class ParallelDriverStreamedLog
    : public ::testing::TestWithParam<
          std::tuple<AllocatingApp, check::Scheme>>
{
};

TEST_P(ParallelDriverStreamedLog, MatchesSequentialReport)
{
    const auto [allocating, scheme] = GetParam();
    const apps::AppInfo &app = apps::findApp(allocating.name);
    check::DriverConfig cfg = campaignConfig(app, /*runs=*/6);
    cfg.scheme = scheme;
    const check::DriverReport sequential =
        check::DeterminismDriver(cfg).check(app.factory);

    mem::ReplayLog log;
    CampaignOptions options;
    options.jobs = 4;
    options.replayLog = &log;
    expectBitIdentical(sequential, runCampaign(cfg, app.factory, options));
    EXPECT_TRUE(log.sealed());
    EXPECT_EQ(log.size(), allocating.logEntries);
}

INSTANTIATE_TEST_SUITE_P(
    AllocatingAppsAllSchemes, ParallelDriverStreamedLog,
    ::testing::Combine(::testing::ValuesIn(kAllocatingApps),
                       ::testing::Values(check::Scheme::HwInc,
                                         check::Scheme::SwInc,
                                         check::Scheme::SwTr)),
    [](const auto &info) {
        const check::Scheme scheme = std::get<1>(info.param);
        return std::string(std::get<0>(info.param).name) +
               (scheme == check::Scheme::HwInc   ? "_hw"
                : scheme == check::Scheme::SwInc ? "_swinc"
                                                 : "_swtr");
    });

TEST(ParallelDriver, TwoCampaignsShareOnePool)
{
    // The daemon's shape: two dispatcher threads run one campaign each
    // on a shared 2-worker pool, both apps streaming their logs.
    ThreadPool pool(2);
    const char *const names[] = {"barnes", "pbzip2"};
    std::vector<check::DriverReport> reports(2);
    std::vector<std::thread> dispatchers;
    for (std::size_t i = 0; i < 2; ++i) {
        dispatchers.emplace_back([&pool, &reports, &names, i] {
            const apps::AppInfo &app = apps::findApp(names[i]);
            CampaignOptions options;
            options.pool = &pool;
            reports[i] =
                runCampaign(campaignConfig(app, 8), app.factory, options);
        });
    }
    for (std::thread &dispatcher : dispatchers)
        dispatcher.join();
    for (std::size_t i = 0; i < 2; ++i) {
        const apps::AppInfo &app = apps::findApp(names[i]);
        expectBitIdentical(
            check::DeterminismDriver(campaignConfig(app, 8))
                .check(app.factory),
            reports[i]);
    }
}

TEST(ParallelDriver, RecordRunThrowWakesWaitingReplays)
{
    // The pool's one worker is busy when the campaign starts, so the
    // caller claims run 0, the record run, and builds the first program.
    ThreadPool pool(1);
    std::promise<void> release;
    auto blocker =
        pool.submit([held = release.get_future().share()] { held.wait(); });

    std::atomic<int> programs{0};
    const check::ProgramFactory factory =
        [&]() -> std::unique_ptr<sim::Program> {
        const bool record_run = programs.fetch_add(1) == 0;
        return std::make_unique<sim::LambdaProgram>(
            "throws", 1,
            [&, record_run](sim::SetupCtx &ctx) {
                if (!record_run) {
                    ctx.alloc("late.cpp:block", mem::tInt64());
                    return;
                }
                // Free the worker so a replay starts and waits on this
                // run's log, then fail before logging its entry.
                release.set_value();
                const auto deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
                while (programs.load() < 2 &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                throw std::runtime_error("record run failed");
            },
            [](sim::ThreadCtx &) {});
    };

    check::DriverConfig cfg;
    cfg.runs = 4;
    mem::ReplayLog log;
    std::mutex mu;
    std::vector<int> completed;
    CampaignOptions options;
    options.pool = &pool;
    options.replayLog = &log;
    options.onRunComplete = [&](int run, const check::RunRecord &) {
        std::lock_guard<std::mutex> lock(mu);
        completed.push_back(run);
    };
    try {
        runCampaign(cfg, factory, options);
        FAIL() << "expected the record run's exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "record run failed");
    }
    blocker.get();
    // The seal woke the waiting replay: every replay finished, above
    // the sealed (empty) log's high-water mark.
    EXPECT_TRUE(log.sealed());
    EXPECT_TRUE(log.empty());
    std::sort(completed.begin(), completed.end());
    EXPECT_EQ(completed, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelDriver, SealedEmptyLogSkipsTheRecordRun)
{
    // fft never calls malloc: its record run logs nothing and seals the
    // log. Extending the campaign from 8 to 16 runs with that log must
    // execute runs 8..15 only.
    const apps::AppInfo &app = apps::findApp("fft");
    mem::ReplayLog log;
    CampaignOptions first;
    first.jobs = 4;
    first.replayLog = &log;
    const check::DriverReport head =
        runCampaign(campaignConfig(app, 8), app.factory, first);
    ASSERT_TRUE(log.sealed());
    ASSERT_TRUE(log.empty());

    std::vector<const check::RunRecord *> precomputed;
    for (const check::RunRecord &record : head.records)
        precomputed.push_back(&record);
    std::mutex mu;
    std::vector<int> executed;
    CampaignOptions extend;
    extend.jobs = 4;
    extend.precomputed = &precomputed;
    extend.replayLog = &log;
    extend.appName = app.name;
    extend.onRunComplete = [&](int run, const check::RunRecord &) {
        std::lock_guard<std::mutex> lock(mu);
        executed.push_back(run);
    };
    const check::DriverConfig cfg = campaignConfig(app, 16);
    const check::DriverReport extended =
        runCampaign(cfg, app.factory, extend);

    std::sort(executed.begin(), executed.end());
    EXPECT_EQ(executed,
              (std::vector<int>{8, 9, 10, 11, 12, 13, 14, 15}));
    expectBitIdentical(check::DeterminismDriver(cfg).check(app.factory),
                       extended);
}

TEST(ParallelDriver, SinkStreamsEveryRunAndCampaignCounters)
{
    const apps::AppInfo &app = apps::findApp("radix");
    const check::DriverConfig cfg = campaignConfig(app, /*runs=*/8);

    std::ostringstream jsonl;
    ResultSink sink(&jsonl);
    CampaignOptions options;
    options.jobs = 4;
    options.sink = &sink;
    runCampaign(cfg, app.factory, options);

    EXPECT_EQ(sink.runsRecorded(), 8);
    const CampaignCounters counters = sink.lastCampaign();
    EXPECT_EQ(counters.app, "radix");
    EXPECT_EQ(counters.runs, 8);
    EXPECT_EQ(counters.jobs, 4);
    EXPECT_GT(counters.runsPerSec, 0.0);
    EXPECT_GT(counters.workerUtilization, 0.0);

    // One JSONL line per run plus the campaign line.
    const std::string text = jsonl.str();
    std::size_t lines = 0;
    for (const char c : text)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 9u);
    EXPECT_NE(text.find("\"type\":\"run\""), std::string::npos);
    EXPECT_NE(text.find("\"type\":\"campaign\""), std::string::npos);
}

} // namespace
} // namespace icheck::runtime
