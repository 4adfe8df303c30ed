#ifndef ICHECK_RUNTIME_PARALLEL_DRIVER_HPP
#define ICHECK_RUNTIME_PARALLEL_DRIVER_HPP

/**
 * @file
 * Parallel campaign executor.
 *
 * A determinism campaign is embarrassingly parallel: every seeded run is
 * a pure function of (program, input seed, scheduler seed) — except that
 * run 0 records the malloc replay log the later runs replay (Section 5
 * input-nondeterminism control). The executor runs every pending run as
 * one iteration of one loop, with no serial phase:
 *
 *   1. unless the log is already sealed (complete), it is streamed, and
 *      run 0 is iteration 0, in Record mode; it seals the log however
 *      it ends;
 *   2. ThreadPool::parallelFor claims iterations in index order on the
 *      calling thread and the pool's workers, so the record run is
 *      claimed, and running, before any replay starts. A replay that
 *      misses in the log waits until the record run logs that entry or
 *      seals the log; the record run waits on nothing, so no campaign
 *      can deadlock, even beside others on a shared pool;
 *   3. records land in a pre-sized vector at their seed index, and the
 *      verdict comes from check::analyzeCampaign over that seed-ordered
 *      vector.
 *
 * Because both execution (check::executeCampaignRun) and analysis
 * (check::analyzeCampaign) are the exact functions the sequential
 * DeterminismDriver uses, and a replay reads the same log entries and
 * the same final high-water mark whenever it runs, the resulting
 * DriverReport is bit-identical to the sequential one for any worker
 * count.
 */

#include "check/driver.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/thread_pool.hpp"

namespace icheck::runtime
{

/** Execution options of one parallel campaign. */
struct CampaignOptions
{
    /**
     * Threads that run the campaign's runs, the calling thread included
     * (a pool of jobs - 1 workers is created for it); 0 = hardware
     * concurrency, 1 = run every run on the caller, in order.
     */
    int jobs = 0;

    /** Optional per-run streaming and aggregate counters. */
    ResultSink *sink = nullptr;

    /**
     * Optional externally owned pool (jobs is ignored if set). The
     * calling thread runs runs beside its workers.
     */
    ThreadPool *pool = nullptr;

    /**
     * Previously computed records, indexed by run; a non-null entry is
     * copied into the report instead of executing that run. The campaign
     * service feeds store-resident units through this so a resumed or
     * deduplicated campaign only executes the missing runs. May be
     * shorter than cfg.runs (missing tail entries mean "not cached").
     */
    const std::vector<const check::RunRecord *> *precomputed = nullptr;

    /**
     * Externally owned replay log. If it arrives sealed (complete, even
     * when empty), run 0 is treated like every other run (Replay mode,
     * skipped when precomputed); otherwise run 0 records into it as
     * usual and has sealed it by the time onRunComplete(0) runs. Without
     * a sealed log a cached run 0 must still be re-executed whenever any
     * later run is missing, because Replay runs need the log.
     */
    mem::ReplayLog *replayLog = nullptr;

    /**
     * App name to stamp on the report when run 0 never executes (the
     * name is otherwise taken from run 0's program).
     */
    std::string appName;

    /**
     * Called once per *executed* run with its fresh record, from the
     * thread that ran it (precomputed runs are not re-announced). The
     * service persists each unit the moment it completes, which is what
     * makes a killed-and-restarted campaign resume instead of recheck.
     */
    std::function<void(int run, const check::RunRecord &record)>
        onRunComplete;
};

/**
 * Run the campaign described by @p cfg across workers and return a
 * DriverReport bit-identical to DeterminismDriver(cfg).check(factory).
 */
check::DriverReport runCampaign(const check::DriverConfig &cfg,
                                const check::ProgramFactory &factory,
                                const CampaignOptions &options = {});

/** Resolve a --jobs value: 0 means hardware concurrency; minimum 1. */
int resolveJobs(int jobs);

} // namespace icheck::runtime

#endif // ICHECK_RUNTIME_PARALLEL_DRIVER_HPP
