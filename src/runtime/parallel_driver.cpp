#include "runtime/parallel_driver.hpp"

#include <chrono>
#include <memory>
#include <vector>

#include "support/logging.hpp"

namespace icheck::runtime
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

int
resolveJobs(int jobs)
{
    if (jobs <= 0)
        return static_cast<int>(ThreadPool::hardwareWorkers());
    return jobs;
}

check::DriverReport
runCampaign(const check::DriverConfig &cfg,
            const check::ProgramFactory &factory,
            const CampaignOptions &options)
{
    ICHECK_ASSERT(cfg.runs >= 2, "need at least two runs to compare");

    const auto campaign_start = Clock::now();

    mem::ReplayLog local_log;
    mem::ReplayLog &replay_log =
        options.replayLog != nullptr ? *options.replayLog : local_log;
    // A sealed log is complete, empty or not: every run replays it.
    // Otherwise run 0 records it while later runs read it as it grows.
    const bool log_ready = replay_log.sealed();

    // The report's name: run 0's own, or the caller's when run 0 does
    // not execute. Only run 0 writes it, and nobody reads it before the
    // loop below has joined.
    std::string app = options.appName;
    std::vector<check::RunRecord> records(
        static_cast<std::size_t>(cfg.runs));

    const auto precomputedFor =
        [&options](int run) -> const check::RunRecord * {
        if (options.precomputed == nullptr)
            return nullptr;
        const auto index = static_cast<std::size_t>(run);
        if (index >= options.precomputed->size())
            return nullptr;
        return (*options.precomputed)[index];
    };

    // Runs the service (or a resumed campaign) already has records for
    // are copied in place; everything else still needs executing. A
    // cached run 0 must nonetheless re-execute in Record mode when the
    // log is not ready and any Replay run remains — replays read the log.
    std::vector<int> to_execute;
    for (int run = 0; run < cfg.runs; ++run) {
        if (const check::RunRecord *cached = precomputedFor(run))
            records[static_cast<std::size_t>(run)] = *cached;
        else
            to_execute.push_back(run);
    }
    if (!log_ready && !to_execute.empty()) {
        if (to_execute.front() != 0)
            to_execute.insert(to_execute.begin(), 0);
        replay_log.stream();
    }

    // Per-run wall time summed across threads; the utilization
    // denominator (pool busy time would trail the last tasks).
    std::mutex busy_mu;
    double busy_seconds = 0.0;

    const auto execute = [&](int run) {
        const auto run_start = Clock::now();
        const auto mode = run == 0 && !log_ready
                              ? mem::DeterministicAllocator::Mode::Record
                              : mem::DeterministicAllocator::Mode::Replay;
        std::string name;
        check::RunRecord &record = records[static_cast<std::size_t>(run)];
        record = check::executeCampaignRun(cfg, factory, run, replay_log,
                                           mode, &name);
        const double seconds = secondsSince(run_start);
        {
            std::lock_guard<std::mutex> lock(busy_mu);
            busy_seconds += seconds;
        }
        if (options.onRunComplete)
            options.onRunComplete(run, record);
        if (options.sink != nullptr)
            options.sink->onRun(name, check::schemeName(cfg.scheme), run,
                                record, seconds);
        if (run == 0)
            app = std::move(name);
    };

    // One loop runs every pending run, the record run first. The calling
    // thread claims runs beside the pool's workers, so jobs counts it.
    ThreadPool *pool = options.pool;
    std::unique_ptr<ThreadPool> owned;
    const int jobs = pool != nullptr
                         ? static_cast<int>(pool->workerCount()) + 1
                         : resolveJobs(options.jobs);
    if (pool == nullptr && jobs > 1 && to_execute.size() > 1) {
        owned =
            std::make_unique<ThreadPool>(static_cast<unsigned>(jobs - 1));
        pool = owned.get();
    }
    PoolStats pool_stats;
    if (pool == nullptr) {
        for (const int run : to_execute)
            execute(run);
    } else {
        pool->parallelFor(to_execute.size(),
                          [&execute, &to_execute](std::size_t i) {
                              execute(to_execute[i]);
                          });
        pool_stats = pool->stats();
    }

    check::DriverReport report =
        check::analyzeCampaign(cfg, std::move(app), std::move(records));

    if (options.sink != nullptr) {
        CampaignCounters counters;
        counters.app = report.app;
        counters.scheme = report.scheme;
        counters.runs = cfg.runs;
        counters.jobs = jobs;
        counters.wallSeconds = secondsSince(campaign_start);
        counters.runsPerSec =
            counters.wallSeconds > 0.0
                ? static_cast<double>(cfg.runs) / counters.wallSeconds
                : 0.0;
        counters.workerUtilization =
            counters.wallSeconds > 0.0 && jobs > 1
                ? busy_seconds /
                      (counters.wallSeconds * static_cast<double>(jobs))
                : 1.0;
        counters.tasksStolen = pool_stats.tasksStolen;
        counters.maxQueueDepth = pool_stats.maxQueueDepth;
        options.sink->onCampaignEnd(counters);
    }
    return report;
}

} // namespace icheck::runtime
