/**
 * @file
 * The `icheck` command-line tool: run InstantCheck determinism campaigns
 * on the bundled workloads without writing any code.
 *
 *   icheck list
 *   icheck check <app> [--runs N] [--scheme hw|swinc|swtr]
 *                      [--no-rounding] [--no-ignores] [--seed S]
 *                      [--input dev|medium|large] [--distributions]
 *                      [--jobs N] [--jsonl FILE]
 *   icheck characterize <app> [--runs N] [--jobs N]
 *   icheck explore <app> [--runs N] [--quantum Q] [--depth D]
 *                        [--prune none|hb|state[,dpor]] [--preemptions P]
 *                        [--jobs N] [--no-checkpoints] [--stats]
 *   icheck localize <app> [--checkpoint K] [--seed-a A] [--seed-b B]
 *   icheck stats <app> [--seed S] [--input dev|medium|large]
 *   icheck infer <app> [--runs N] [--no-rounding]
 *   icheck verify [--runs N] [--jobs N]
 *   icheck serve [--socket PATH] [--store FILE] [--jobs N]
 *                [--dispatchers N] [--queue-depth N]
 *   icheck route --socket PATH (--config FILE | --backend NAME=SOCK...)
 *                [--vnodes N] [--ship sync|async]
 *                [--pull-interval-ms N]
 *
 * Campaigns run their N seeded runs on --jobs threads, the calling
 * thread included (default: hardware concurrency); the report is
 * bit-identical for every thread count. --jsonl streams per-run records
 * and campaign counters.
 *
 * Exit codes: 0 success / deterministic verdict, 1 nondeterminism
 * detected, 2 usage or configuration error, 3 internal error.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "apps/apps.hpp"
#include "apps/characterize.hpp"
#include "apps/scales.hpp"
#include "check/distribution.hpp"
#include "check/infer.hpp"
#include "check/localize.hpp"
#include "check/report_json.hpp"
#include "check/trace_export.hpp"
#include "explore/explorer.hpp"
#include "race/race_log.hpp"
#include "runtime/parallel_driver.hpp"
#include "runtime/parallel_explore.hpp"
#include "fleet/fleet_config.hpp"
#include "fleet/router.hpp"
#include "service/daemon.hpp"
#include "service/serve_loop.hpp"
#include "support/cli_args.hpp"
#include "support/exit_codes.hpp"
#include "support/logging.hpp"

using namespace icheck;

namespace
{

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  icheck list\n"
        "  icheck check <app> [--runs N] [--scheme hw|swinc|swtr]\n"
        "                     [--no-rounding] [--no-ignores] [--seed S]\n"
        "                     [--input dev|medium|large]"
        " [--distributions]\n"
        "                     [--jobs N] [--jsonl FILE] [--json]\n"
        "                     [--bug semantic|atomicity|order]\n"
        "                     [--race-log FILE] [--trace FILE]\n"
        "  icheck characterize <app> [--runs N] [--jobs N]\n"
        "  icheck explore <app> [--runs N] [--quantum Q] [--depth D]\n"
        "                       [--prune none|hb|state[,dpor]]"
        " [--preemptions P]\n"
        "                       [--jobs N] [--no-checkpoints]"
        " [--stats]\n"
        "                       [--trace-dir DIR]\n"
        "  icheck localize <app> [--checkpoint K] [--seed-a A]"
        " [--seed-b B]\n"
        "  icheck stats <app> [--seed S] [--input dev|medium|large]\n"
        "  icheck infer <app> [--runs N] [--no-rounding]\n"
        "  icheck verify [--runs N] [--jobs N]\n"
        "  icheck serve [--socket PATH] [--store FILE] [--jobs N]\n"
        "               [--dispatchers N] [--queue-depth N]\n"
        "               [--max-line-bytes N]\n"
        "  icheck route --socket PATH (--config FILE |"
        " --backend NAME=SOCK...)\n"
        "               [--vnodes N] [--ship sync|async]\n"
        "               [--pull-interval-ms N]\n"
        "\n"
        "--jobs N runs a campaign's runs on N threads, the calling\n"
        "thread included (default: hardware concurrency); reports are\n"
        "bit-identical for any N. serve --jobs N shares N workers among\n"
        "its dispatchers, each of which also runs its own campaign's runs.\n"
        "Numeric flags take plain decimal digits; --runs is at least 2\n"
        "for campaigns and at least 1 for explore; --jobs is at most\n"
        "256, and 0 means auto.\n"
        "--jsonl FILE streams per-run records and campaign counters.\n"
        "--json prints the canonical one-line report (byte-identical to\n"
        "the report a serve daemon returns for the same request).\n"
        "--bug plants a known defect from the paper's Table 2 into the\n"
        "app (waterNS: semantic, waterSP: atomicity, radix: order).\n"
        "--race-log FILE appends the dynamic race detector's racing\n"
        "access pairs as JSONL, each endpoint attributed to the app\n"
        "source file:line; icheck-lint --race-log cross-checks its\n"
        "static findings against this log.\n"
        "--trace FILE (check) writes a Chrome trace-event JSON of two\n"
        "representative runs — schedule slices, lock holds, barrier\n"
        "epochs, preemptions, checkpoints, and hash-divergence markers\n"
        "— loadable in chrome://tracing or Perfetto. --trace-dir DIR\n"
        "(explore) writes one such file per executed schedule.\n"
        "--prune takes one base mode (none|hb|state) plus optionally\n"
        "`dpor` (comma-separated): dynamic partial-order reduction runs\n"
        "one representative schedule per Mazurkiewicz trace; final\n"
        "states and bug findings are identical to the unreduced search.\n"
        "serve reads JSONL requests on stdin (or --socket PATH) and\n"
        "answers one JSONL response per line; --store FILE persists\n"
        "results so a restarted daemon resumes without re-running\n"
        "completed work.\n"
        "route fronts N serve backends: check requests shard by\n"
        "consistent hashing on the canonical campaign key, responses\n"
        "are byte-identical to a direct backend, and each backend's\n"
        "CRC frame log is continuously replicated so a killed\n"
        "backend's completed units resume on the survivors. --ship\n"
        "sync holds each check response until its frames are\n"
        "replicated (lossless failover); async (default) ships on a\n"
        "--pull-interval-ms timer.\n"
        "\n"
        "exit codes:\n"
        "  0  success; for check: externally deterministic\n"
        "  1  nondeterminism detected (check/verify verdict)\n"
        "  2  usage or configuration error\n"
        "  3  internal error\n");
    return ExitUsage;
}

int
cmdList()
{
    std::printf("%-14s %-9s %-3s %-13s %s\n", "App", "Source", "FP",
                "Class", "Notes");
    for (const apps::AppInfo &app : apps::registry()) {
        std::printf("%-14s %-9s %-3s %-13s %s\n", app.name.c_str(),
                    app.source.c_str(), app.usesFp ? "Y" : "N",
                    apps::detClassName(app.expected).c_str(),
                    app.note.c_str());
    }
    return 0;
}

check::Scheme
parseScheme(const std::string &name)
{
    if (name == "hw")
        return check::Scheme::HwInc;
    if (name == "swinc")
        return check::Scheme::SwInc;
    if (name == "swtr")
        return check::Scheme::SwTr;
    ICHECK_FATAL("unknown scheme '", name, "' (hw | swinc | swtr)");
}

apps::InputScale
parseScale(const std::string &name)
{
    if (name == "dev")
        return apps::InputScale::Dev;
    if (name == "medium")
        return apps::InputScale::Medium;
    if (name == "large")
        return apps::InputScale::Large;
    ICHECK_FATAL("unknown input scale '", name,
                 "' (dev | medium | large)");
}

apps::BugSeed
parseBug(const std::string &name)
{
    if (name == "semantic")
        return apps::BugSeed::Semantic;
    if (name == "atomicity")
        return apps::BugSeed::AtomicityViolation;
    if (name == "order")
        return apps::BugSeed::OrderViolation;
    ICHECK_FATAL("unknown bug seed '", name,
                 "' (semantic | atomicity | order)");
}

/** Factory for the Table 2 bug-seeded variant of @p app. */
check::ProgramFactory
seededFactory(const std::string &app, apps::BugSeed bug)
{
    if (app == "waterNS")
        return [bug] {
            return std::make_unique<apps::WaterNS>(8, 48, 5, bug);
        };
    if (app == "waterSP")
        return [bug] {
            return std::make_unique<apps::WaterSP>(8, 48, 4, bug);
        };
    if (app == "radix")
        return [bug] { return std::make_unique<apps::Radix>(8, 512, bug); };
    ICHECK_FATAL("--bug is seeded into waterNS, waterSP, or radix; not '",
                 app, "'");
}

int
cmdCheck(const apps::AppInfo &app, Args &args)
{
    check::DriverConfig cfg;
    cfg.runs = args.count("--runs", 30, 2);
    cfg.scheme = parseScheme(
        args.value("--scheme").value_or("hw"));
    cfg.machine.fpRoundingEnabled = !args.flag("--no-rounding");
    cfg.baseSchedSeed = args.number("--seed", 1000, 0, kU64Max);
    if (!args.flag("--no-ignores"))
        cfg.ignores = app.ignores;
    const bool show_distributions = args.flag("--distributions");
    const bool json_report = args.flag("--json");
    const apps::InputScale scale =
        parseScale(args.value("--input").value_or("medium"));
    const int jobs = args.count("--jobs", 0, 0, kMaxJobs);
    const std::optional<std::string> jsonl_path = args.value("--jsonl");
    const std::optional<std::string> bug_name = args.value("--bug");
    const std::optional<std::string> race_log_path =
        args.value("--race-log");
    const std::optional<std::string> trace_path = args.value("--trace");
    if (args.leftovers())
        return usage();

    const check::ProgramFactory factory =
        bug_name ? seededFactory(app.name, parseBug(*bug_name))
                 : apps::scaledFactory(app.name, scale);

    std::ofstream jsonl_stream;
    if (jsonl_path.has_value()) {
        jsonl_stream.open(*jsonl_path, std::ios::app);
        if (!jsonl_stream)
            ICHECK_FATAL("cannot open --jsonl file '", *jsonl_path, "'");
    }
    runtime::ResultSink sink(jsonl_path ? &jsonl_stream : nullptr);
    runtime::CampaignOptions options;
    options.jobs = jobs;
    options.sink = &sink;
    const check::DriverReport report =
        runtime::runCampaign(cfg, factory, options);

    // The race log is a side artifact: it reruns the campaign's seeds
    // under the happens-before detector with source attribution armed,
    // and never changes the determinism verdict or exit code.
    if (race_log_path.has_value()) {
        std::ofstream race_stream(*race_log_path, std::ios::app);
        if (!race_stream)
            ICHECK_FATAL("cannot open --race-log file '", *race_log_path,
                         "'");
        const int races = race::exportRaceLog(
            factory, cfg.machine, cfg.runs, cfg.baseSchedSeed, app.name,
            race_stream);
        std::fprintf(stderr,
                     "icheck: %d attributed race(s) appended to %s\n",
                     races, race_log_path->c_str());
    }

    // --trace is the same kind of side artifact: re-run two
    // representative seeds with the Chrome trace builder attached and
    // write one file chrome://tracing / Perfetto loads directly.
    if (trace_path.has_value()) {
        const check::TraceExportResult traced =
            check::exportCampaignTrace(cfg, factory, report, *trace_path);
        std::fprintf(stderr,
                     "icheck: traced %d run(s), %d hash divergence(s), "
                     "written to %s\n",
                     traced.runsTraced, traced.divergences,
                     trace_path->c_str());
    }

    if (json_report) {
        // The canonical renderer is shared with the serve daemon: the
        // same request produces these exact bytes either way.
        std::printf("%s\n", check::renderReportJson(report).c_str());
        return report.deterministic() ? ExitOk : ExitNondeterminism;
    }

    std::printf("%s under %s (%d runs, rounding %s, ignores %s)\n",
                app.name.c_str(), report.scheme.c_str(), report.runs,
                cfg.machine.fpRoundingEnabled ? "on" : "off",
                cfg.ignores.empty() ? "off" : "on");
    std::printf("  verdict: %s\n",
                report.deterministic()
                    ? "externally DETERMINISTIC (within coverage)"
                    : "NONDETERMINISTIC");
    if (report.firstNdetRun)
        std::printf("  first nondeterministic run: %d\n",
                    report.firstNdetRun);
    std::printf("  checking points: %llu det, %llu ndet; end %s; "
                "output %s\n",
                static_cast<unsigned long long>(report.detPoints),
                static_cast<unsigned long long>(report.ndetPoints),
                report.detAtEnd ? "det" : "NDET",
                report.outputDeterministic ? "det" : "NDET");
    std::printf("  overhead: %.3f%% over native (%.0f native instrs "
                "per run)\n",
                (report.overheadFactor() - 1.0) * 100.0,
                report.avgNativeInstrs);
    if (show_distributions) {
        const auto groups =
            check::groupDistributions(report.distributions);
        int index = 1;
        for (const auto &[dist, count] : groups) {
            std::printf("  D%-2d: %6llu checkpoints x [%s]\n", index++,
                        static_cast<unsigned long long>(count),
                        dist.render().c_str());
        }
    }
    return report.deterministic() ? 0 : 1;
}

int
cmdCharacterize(const apps::AppInfo &app, Args &args)
{
    apps::CharacterizeConfig cfg;
    cfg.runs = args.count("--runs", 30, 2);
    cfg.jobs = args.count("--jobs", 0, 0, kMaxJobs);
    if (args.leftovers())
        return usage();
    const apps::Table1Row row = apps::characterizeApp(app, cfg);
    std::printf("%s (%s): expected class %s\n", app.name.c_str(),
                app.source.c_str(),
                apps::detClassName(app.expected).c_str());
    const std::string first_ndet =
        row.firstNdetRun ? " (first ndet run " +
                               std::to_string(row.firstNdetRun) + ")"
                         : std::string{};
    std::printf("  bit-by-bit:          %s%s\n",
                row.detAsIs ? "Det" : "NDet", first_ndet.c_str());
    std::printf("  with FP rounding:    %s\n",
                row.detAfterFp ? "Det" : "NDet");
    if (row.detAfterIgnores.has_value())
        std::printf("  isolating structs:   %s\n",
                    *row.detAfterIgnores ? "Det" : "NDet");
    std::printf("  checking points:     %llu det / %llu ndet, end %s\n",
                static_cast<unsigned long long>(row.detPoints),
                static_cast<unsigned long long>(row.ndetPoints),
                row.detAtEnd ? "det" : "NDET");
    return 0;
}

/**
 * Parse the --prune spec: comma-separated tokens, at most one base mode
 * (none | hb | state) plus optionally `dpor` (composable with any base).
 * A bare "dpor" means "none,dpor".
 */
void
parsePrune(const std::string &spec, explore::ExploreConfig &cfg)
{
    bool base_set = false;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::string name = spec.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (name == "dpor") {
            cfg.dpor = true;
        } else {
            if (base_set)
                ICHECK_FATAL("--prune allows one base mode, got a second: '",
                             name, "'");
            if (name == "none")
                cfg.prune = explore::PruneMode::None;
            else if (name == "hb")
                cfg.prune = explore::PruneMode::HappensBefore;
            else if (name == "state")
                cfg.prune = explore::PruneMode::StateHash;
            else
                ICHECK_FATAL("unknown prune mode '", name,
                             "' (none | hb | state | dpor, comma-separated)");
            base_set = true;
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    // A bare "dpor" keeps the default base mode of none: DPOR's own
    // reduction is exact, so layering state pruning on top is opt-in.
    if (cfg.dpor && !base_set)
        cfg.prune = explore::PruneMode::None;
}

int
cmdExplore(const apps::AppInfo &app, Args &args)
{
    explore::ExploreConfig cfg;
    cfg.maxRuns = args.count("--runs", 200, 1);
    cfg.quantum = args.number("--quantum", 16, 1, kU64Max);
    cfg.maxDepth = args.number("--depth", 24, 0, kU64Max);
    parsePrune(args.value("--prune").value_or("state"), cfg);
    cfg.maxPreemptions =
        args.number("--preemptions", cfg.maxPreemptions, 0, kU64Max);
    cfg.checkpoints = !args.flag("--no-checkpoints");
    if (const auto trace_dir = args.value("--trace-dir")) {
        cfg.traceDir = *trace_dir;
        std::error_code ec;
        std::filesystem::create_directories(cfg.traceDir, ec);
        if (ec)
            ICHECK_FATAL("cannot create --trace-dir '", cfg.traceDir,
                         "': ", ec.message());
    }
    const int jobs = args.count("--jobs", 1, 0, kMaxJobs);
    const bool show_stats = args.flag("--stats");
    if (args.leftovers())
        return usage();

    sim::MachineConfig mc;
    mc.numCores = 2;
    const explore::ExploreResult result =
        runtime::exploreParallel(app.factory, mc, cfg, jobs);

    std::printf("%s: %d schedules explored (%s), %zu final state%s\n",
                app.name.c_str(), result.runsExecuted,
                result.exhausted ? "exhausted" : "budget reached",
                result.finalStates.size(),
                result.finalStates.size() == 1 ? "" : "s");
    std::printf("  branches pruned %llu, bounded out %llu\n",
                static_cast<unsigned long long>(result.branchesPruned),
                static_cast<unsigned long long>(
                    result.branchesBoundedOut));
    if (show_stats)
        std::printf("%s\n",
                    explore::renderStatsJson(result.stats).c_str());
    return 0;
}

int
cmdInfer(const apps::AppInfo &app, Args &args)
{
    const int runs = args.count("--runs", 8, 2);
    sim::MachineConfig mc;
    mc.numCores = 8;
    mc.fpRoundingEnabled = !args.flag("--no-rounding");
    if (args.leftovers())
        return usage();
    const check::InferenceResult result =
        check::inferIgnores(app.factory, mc, runs);
    if (result.empty()) {
        std::printf("%s: no nondeterministic structures found over %d "
                    "comparisons\n",
                    app.name.c_str(), result.comparisons);
        return 0;
    }
    std::printf("%s: nondeterministic structures (from %d "
                "comparisons):\n",
                app.name.c_str(), result.comparisons);
    for (const check::DiffSite &site : result.evidence) {
        std::printf("  %-30s %-12s offsets [%zu, %zu]  %llu bytes\n",
                    site.owner.c_str(), site.type.c_str(), site.offsetLo,
                    site.offsetHi,
                    static_cast<unsigned long long>(site.bytes));
    }
    std::printf("proposed ignore spec:\n");
    for (const std::string &site : result.spec.sites)
        std::printf("  site   %s\n", site.c_str());
    for (const std::string &name : result.spec.globals)
        std::printf("  global %s\n", name.c_str());
    return 0;
}

int
cmdStats(const apps::AppInfo &app, Args &args)
{
    const std::uint64_t seed = args.number("--seed", 1000, 0, kU64Max);
    const apps::InputScale scale =
        parseScale(args.value("--input").value_or("medium"));
    if (args.leftovers())
        return usage();
    sim::MachineConfig cfg;
    cfg.numCores = 8;
    cfg.schedSeed = seed;
    sim::Machine machine(cfg);
    machine.setInstrumentation(true);
    auto program = apps::scaledFactory(app.name, scale)();
    machine.run(*program);
    std::printf("%s", machine.renderStats().c_str());
    return 0;
}

/**
 * Release gate: re-derive every workload's determinism class and compare
 * against the registry's expectation (i.e., against Table 1).
 */
int
cmdVerify(Args &args)
{
    apps::CharacterizeConfig cfg;
    cfg.runs = args.count("--runs", 12, 2);
    cfg.jobs = args.count("--jobs", 0, 0, kMaxJobs);
    if (args.leftovers())
        return usage();
    int failures = 0;
    for (const apps::AppInfo &app : apps::registry()) {
        const apps::Table1Row row = apps::characterizeApp(app, cfg);
        apps::DetClass measured;
        if (row.detAsIs) {
            measured = apps::DetClass::BitByBit;
        } else if (row.detAfterFp) {
            measured = apps::DetClass::FpRounding;
        } else if (row.detAfterIgnores.value_or(false)) {
            measured = apps::DetClass::SmallStruct;
        } else {
            measured = apps::DetClass::NonDet;
        }
        // streamcluster ships with the real bug: bitwise-nondet at
        // internal barriers yet classified bit-by-bit (Table 1's star).
        const bool streamcluster_star =
            app.name == "streamcluster" &&
            app.expected == apps::DetClass::BitByBit &&
            row.bitwise.detAtEnd && row.bitwise.outputDeterministic;
        const bool ok =
            measured == app.expected || streamcluster_star;
        std::printf("%-14s expected %-13s measured %-13s %s\n",
                    app.name.c_str(),
                    apps::detClassName(app.expected).c_str(),
                    apps::detClassName(measured).c_str(),
                    ok ? "OK" : "MISMATCH");
        failures += ok ? 0 : 1;
    }
    if (failures == 0)
        std::printf("all %zu workloads match Table 1\n",
                    apps::registry().size());
    return failures == 0 ? 0 : 1;
}

int
cmdLocalize(const apps::AppInfo &app, Args &args)
{
    const std::uint64_t checkpoint =
        args.number("--checkpoint", 0, 0, kU64Max);
    const std::uint64_t seed_a = args.number("--seed-a", 1000, 0, kU64Max);
    const std::uint64_t seed_b = args.number("--seed-b", 1001, 0, kU64Max);
    if (args.leftovers())
        return usage();
    sim::MachineConfig mc;
    mc.numCores = 8;
    const check::LocalizeReport report = check::localizeNondeterminism(
        app.factory, mc, seed_a, seed_b, checkpoint);
    std::printf("%s: %llu differing bytes at checkpoint %llu "
                "(seeds %llu vs %llu)\n",
                app.name.c_str(),
                static_cast<unsigned long long>(report.totalDiffBytes),
                static_cast<unsigned long long>(checkpoint),
                static_cast<unsigned long long>(seed_a),
                static_cast<unsigned long long>(seed_b));
    for (const check::DiffSite &site : report.sites) {
        std::printf("  %-30s %-12s offsets [%zu, %zu]  %llu bytes\n",
                    site.owner.c_str(), site.type.c_str(), site.offsetLo,
                    site.offsetHi,
                    static_cast<unsigned long long>(site.bytes));
    }
    if (report.sites.empty())
        std::printf("  (states identical at this checkpoint)\n");
    return 0;
}

// icheck-lint: allow(C1): sig_atomic_t flag is the only state a signal
// handler may legally touch; it is read-only outside the handler.
volatile std::sig_atomic_t g_shutdown_requested = 0;

extern "C" void
handleShutdownSignal(int)
{
    g_shutdown_requested = 1;
}

int
cmdServe(Args &args)
{
    service::ServiceConfig cfg;
    cfg.jobs = args.count("--jobs", 0, 0, kMaxJobs);
    cfg.dispatchers = args.count("--dispatchers", 2, 1, kMaxDispatchers);
    cfg.queueDepth = args.number("--queue-depth", 64, 1, 65536);
    cfg.maxLineBytes =
        args.number("--max-line-bytes", 64 * 1024, 1, kU64Max);
    if (const auto store_path = args.value("--store"))
        cfg.storePath = *store_path;
    const std::optional<std::string> socket_path = args.value("--socket");
    if (args.leftovers())
        return usage();

    // SIGTERM/SIGINT begin a graceful drain: in-flight campaigns finish
    // (their units land in the store), then the daemon exits. SIGPIPE
    // is ignored so a client vanishing mid-response surfaces as EPIPE
    // on that connection instead of killing every other client's work.
    std::signal(SIGTERM, handleShutdownSignal);
    std::signal(SIGINT, handleShutdownSignal);
    std::signal(SIGPIPE, SIG_IGN);

    service::Service daemon(cfg);
    if (socket_path.has_value())
        return service::serveSocket(daemon, *socket_path,
                                    &g_shutdown_requested);
    return service::servePipe(daemon, std::cin, std::cout,
                              &g_shutdown_requested);
}

int
cmdRoute(Args &args)
{
    const std::optional<std::string> socket_path = args.value("--socket");
    if (!socket_path.has_value())
        ICHECK_FATAL("route requires --socket PATH to listen on");

    fleet::FleetTopology topology;
    if (const auto config_path = args.value("--config")) {
        std::ifstream in(*config_path);
        if (!in)
            ICHECK_FATAL("cannot open --config file '", *config_path,
                         "'");
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const fleet::ParsedFleetConfig parsed =
            fleet::parseFleetConfig(text);
        if (!parsed.ok())
            ICHECK_FATAL("--config ", *config_path, ": ", parsed.error);
        topology = *parsed.topology;
    } else {
        while (const auto backend = args.value("--backend")) {
            const std::size_t eq = backend->find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == backend->size())
                ICHECK_FATAL("--backend expects NAME=SOCKET, got '",
                             *backend, "'");
            topology.backends.push_back(fleet::BackendAddress{
                backend->substr(0, eq), backend->substr(eq + 1)});
        }
        if (topology.backends.empty())
            ICHECK_FATAL(
                "route needs --config FILE or at least one "
                "--backend NAME=SOCKET");
    }

    topology.vnodes = args.number("--vnodes", topology.vnodes, 1, 1024);
    if (const auto ship = args.value("--ship")) {
        if (*ship != "sync" && *ship != "async")
            ICHECK_FATAL("--ship must be sync or async, got '", *ship,
                         "'");
        topology.syncShip = *ship == "sync";
    }
    topology.pullIntervalMs =
        args.count("--pull-interval-ms", topology.pullIntervalMs, 1, 60000);
    if (args.leftovers())
        return usage();

    // Same graceful story as serve: SIGTERM/SIGINT stop accepting and
    // tear the fleet links down; an explicit client `drain` ships every
    // backend's log tail and drains the whole fleet first. SIGPIPE is
    // ignored: a SIGKILLed backend or a vanished client must surface
    // as EPIPE on that one link (the failover path), not kill the
    // router and every in-flight request with it.
    std::signal(SIGTERM, handleShutdownSignal);
    std::signal(SIGINT, handleShutdownSignal);
    std::signal(SIGPIPE, SIG_IGN);

    fleet::Router router(std::move(topology), *socket_path);
    if (!router.start())
        return ExitInternal;
    return router.serve(&g_shutdown_requested);
}

int
dispatch(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "list")
        return cmdList();
    if (command == "verify") {
        Args args(argc, argv, 2, "icheck");
        return cmdVerify(args);
    }
    if (command == "serve") {
        Args args(argc, argv, 2, "icheck");
        return cmdServe(args);
    }
    if (command == "route") {
        Args args(argc, argv, 2, "icheck");
        return cmdRoute(args);
    }
    using AppCommand = int (*)(const apps::AppInfo &, Args &);
    AppCommand run = nullptr;
    if (command == "check")
        run = cmdCheck;
    else if (command == "characterize")
        run = cmdCharacterize;
    else if (command == "explore")
        run = cmdExplore;
    else if (command == "localize")
        run = cmdLocalize;
    else if (command == "stats")
        run = cmdStats;
    else if (command == "infer")
        run = cmdInfer;
    if (run == nullptr || argc < 3)
        return usage();
    const apps::AppInfo *app = apps::tryFindApp(argv[2]);
    if (app == nullptr) {
        std::fprintf(stderr, "icheck: unknown app '%s' (see `icheck list`)\n",
                     argv[2]);
        return ExitUsage;
    }
    Args args(argc, argv, 3, "icheck");
    return run(*app, args);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return dispatch(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "icheck: internal error: %s\n",
                     error.what());
        return ExitInternal;
    }
}
