#ifndef ICHECK_CHECK_DRIVER_HPP
#define ICHECK_CHECK_DRIVER_HPP

/**
 * @file
 * The determinism-checking driver (Section 7 methodology).
 *
 * Runs a program N times for the same input under different scheduler
 * seeds, with a chosen InstantCheck scheme attached, and compares the
 * State Hash sequences across runs. Handles the Section 5 input-
 * nondeterminism control automatically: run 0 records (and seals) the
 * malloc replay log, later runs replay it; library calls are intercepted
 * by the machine.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/distribution.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "support/types.hpp"

namespace icheck::check
{

/** Factory producing a fresh program instance per run. */
using ProgramFactory = std::function<std::unique_ptr<sim::Program>()>;

/** Configuration of one determinism-checking campaign. */
struct DriverConfig
{
    /** Scheme attached to every run. */
    Scheme scheme = Scheme::HwInc;

    /** Use the per-scheme ideal (lower-bound) software cost model. */
    bool idealCostModel = true;

    /** Number of test runs (the paper uses 30). */
    int runs = 30;

    /** Run i uses scheduler seed baseSchedSeed + i. */
    std::uint64_t baseSchedSeed = 1000;

    /** Machine template (input seed, cores, quanta, FP mode, ...). */
    sim::MachineConfig machine{};

    /** Structures deleted from the hash before comparison. */
    IgnoreSpec ignores{};
};

/** Everything recorded about one run. */
struct RunRecord
{
    std::vector<HashWord> checkpointHashes;
    HashWord outputHash = 0;
    std::uint64_t outputBytes = 0;
    sim::RunResult result{};
    InstCount checkerOverheadInstrs = 0;
};

/** Aggregated verdict of a campaign. */
struct DriverReport
{
    std::string app;
    std::string scheme;
    int runs = 0;

    /** Per-run raw data. */
    std::vector<RunRecord> records;

    /** True if every run produced the same number of checkpoints. */
    bool checkpointCountsMatch = true;

    /** Distribution per checkpoint index (over min checkpoint count). */
    std::vector<Distribution> distributions;

    /** Checkpoints deterministic / nondeterministic across all runs. */
    std::uint64_t detPoints = 0;
    std::uint64_t ndetPoints = 0;

    /** Whether the final (program-end) checkpoint was deterministic. */
    bool detAtEnd = false;

    /** Whether the output stream was deterministic. */
    bool outputDeterministic = true;

    /**
     * 1-based index of the first run whose hash sequence differs from any
     * earlier run; 0 if never (deterministic within coverage).
     */
    int firstNdetRun = 0;

    /** Fully deterministic within test coverage. */
    bool
    deterministic() const
    {
        return firstNdetRun == 0 && checkpointCountsMatch &&
               outputDeterministic;
    }

    /** Mean native / overhead instructions per run. */
    double avgNativeInstrs = 0.0;
    double avgOverheadInstrs = 0.0;

    /** Overhead relative to native ((native+overhead)/native). */
    double overheadFactor() const;
};

/**
 * Execute run @p run_index of the campaign described by @p cfg and return
 * its record. A Record-mode run fills @p replay_log and seals it when it
 * ends, on every exit path (exceptions included). Replay runs only read
 * the log, so they may execute concurrently with each other, and with
 * the record run too once the log is streamed (mem::ReplayLog::stream):
 * a replay then waits only for the entries it reads. The parallel
 * campaign executor in src/runtime relies on exactly this.
 *
 * @param app_name If non-null, receives the program's name.
 */
RunRecord executeCampaignRun(const DriverConfig &cfg,
                             const ProgramFactory &factory, int run_index,
                             mem::ReplayLog &replay_log,
                             mem::DeterministicAllocator::Mode mode,
                             std::string *app_name = nullptr);

/**
 * Derive the campaign verdict from per-run records. Pure function of
 * (cfg, app, records): both the sequential driver and the parallel
 * executor call this, which is what makes their reports bit-identical.
 * @p records must be in seed order (record for run i at index i).
 */
DriverReport analyzeCampaign(const DriverConfig &cfg, std::string app,
                             std::vector<RunRecord> records);

/**
 * The campaign runner. Stateless apart from configuration; each call to
 * check() owns its replay log, so campaigns are independent.
 */
class DeterminismDriver
{
  public:
    explicit DeterminismDriver(DriverConfig config)
        : cfg(std::move(config))
    {}

    /** Run the campaign on programs from @p factory. */
    DriverReport check(const ProgramFactory &factory) const;

    /**
     * Run once natively (no checker, no instrumentation) and return the
     * native instruction count — the Figure 6 baseline.
     */
    sim::RunResult runNative(const ProgramFactory &factory,
                             std::uint64_t sched_seed) const;

    const DriverConfig &config() const { return cfg; }

  private:
    DriverConfig cfg;
};

} // namespace icheck::check

#endif // ICHECK_CHECK_DRIVER_HPP
