/**
 * @file
 * Traffic-and-correctness driver for the `icheck serve` daemon and the
 * `icheck route` fleet: replay a deterministic mix of check requests
 * across several apps and seeds, require every response to be ok, and
 * write one summary JSON whose unit counters come from the daemon's (or
 * router's) own `stats` response. loadgen reads no clock; perfbench's
 * `serve` workload times this path.
 *
 * Usage: loadgen [out.json] [--quick]
 *                [--requests N] [--clients C] [--runs N]
 *                [--apps a,b,c] [--seeds K] [--input dev|medium|large]
 *                [--jobs N] [--dispatchers N] [--store FILE]
 *                [--connect SOCKET | --spawn ICHECK_BIN]
 *                [--fleet N] [--ship sync|async] [--kill-one]
 *                [--verify]
 *
 * Three transports:
 *   (default)   in-process — drive a Service directly from C client
 *               threads;
 *   --connect   attach to a daemon or router already listening on a
 *               Unix socket;
 *   --spawn     fork `ICHECK_BIN serve --socket <tmp>`, run the traffic
 *               against it, drain it, and reap it.
 *
 * --fleet N (with --spawn) forks N serve backends behind one
 * `ICHECK_BIN route --ship sync|async` router instead. --kill-one
 * SIGKILLs the busiest backend halfway through the burst, so every
 * response must still arrive ok through the router's replica and
 * failover path.
 *
 * The mix cycles apps x seeds, so once every combination has run, later
 * requests repeat earlier work and the daemon answers them from its
 * store (the summary's unitsReused). --verify re-runs every distinct
 * request through the one-shot campaign path in-process and requires
 * the daemon's report bytes to be identical. --quick shrinks the mix
 * for smoke runs.
 *
 * --jobs and --dispatchers take serve's bounds, --runs is at least 2 as
 * for `icheck check`, --clients (one thread each) is at most 256, and
 * --requests is at most 65536 (every response is held for --verify).
 *
 * The summary goes to out.json, or to stdout without one. Exit 0 only
 * if every response was ok, --verify matched, --kill-one failed over
 * with at least one reinstalled frame, and every spawned process exited
 * cleanly; 1 otherwise, 2 on a usage error, 3 if the traffic could not
 * start.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "apps/app_registry.hpp"
#include "apps/scales.hpp"
#include "check/report_json.hpp"
#include "runtime/parallel_driver.hpp"
#include "service/daemon.hpp"
#include "service/json.hpp"
#include "service/line_socket.hpp"
#include "support/cli_args.hpp"
#include "support/json_escape.hpp"

using namespace icheck;

namespace
{

/** Everything one run was asked for. */
struct Options
{
    std::string outPath;
    std::string appsCsv = "radix,fft,lu";
    std::string input = "dev";
    std::string connect;
    std::string spawnBin;
    std::string store;
    std::string ship = "async";
    int requests = 96;
    int clients = 4;
    int runs = 6;
    int seeds = 2;
    int jobs = 0;
    int dispatchers = 2;
    int fleet = 0;
    bool verify = false;
    bool killOne = false;
};

/** One request of the generated mix. */
struct MixEntry
{
    std::string line; ///< The JSONL request.
    std::string app;  ///< For the verify pass.
    std::uint64_t seed = 0;
};

/** A synchronous request/response channel to the daemon under test. */
using Roundtrip = std::function<std::string(const std::string &line)>;

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        if (end > start)
            parts.push_back(csv.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return parts;
}

/** Parse and check the command line; nullopt after naming the error. */
std::optional<Options>
parseOptions(int argc, char **argv)
{
    Args args(argc, argv, 1, "loadgen");
    Options opt;
    const bool quick = args.flag("--quick");
    opt.verify = args.flag("--verify");
    opt.killOne = args.flag("--kill-one");
    opt.requests = args.count("--requests", opt.requests, 1, 65536);
    opt.clients = args.count("--clients", opt.clients, 1, 256);
    opt.runs = args.count("--runs", opt.runs, 2);
    opt.seeds = args.count("--seeds", opt.seeds, 1);
    opt.jobs = args.count("--jobs", opt.jobs, 0, kMaxJobs);
    opt.dispatchers =
        args.count("--dispatchers", opt.dispatchers, 1, kMaxDispatchers);
    opt.fleet = args.count("--fleet", opt.fleet, 1, 64);
    opt.appsCsv = args.value("--apps").value_or(opt.appsCsv);
    opt.input = args.value("--input").value_or(opt.input);
    opt.ship = args.value("--ship").value_or(opt.ship);
    opt.connect = args.value("--connect").value_or("");
    opt.spawnBin = args.value("--spawn").value_or("");
    opt.store = args.value("--store").value_or("");
    opt.outPath = args.positional().value_or("");
    if (args.leftovers())
        return std::nullopt;
    if (quick) {
        opt.requests = std::min(opt.requests, 18);
        opt.clients = std::min(opt.clients, 2);
    }

    const char *error = nullptr;
    if (splitCsv(opt.appsCsv).empty())
        error = "--apps names no app";
    else if (opt.input != "dev" && opt.input != "medium" &&
             opt.input != "large")
        error = "--input must be dev, medium or large";
    else if (opt.ship != "sync" && opt.ship != "async")
        error = "--ship must be sync or async";
    else if (!opt.connect.empty() && !opt.spawnBin.empty())
        error = "--connect and --spawn are mutually exclusive";
    else if (opt.fleet > 0 && (opt.spawnBin.empty() || !opt.store.empty()))
        error = "--fleet needs --spawn ICHECK_BIN and takes no --store";
    else if (opt.killOne && opt.fleet < 2)
        error = "--kill-one needs --fleet of at least 2";
    if (error != nullptr) {
        std::fprintf(stderr, "loadgen: %s\n", error);
        return std::nullopt;
    }
    return opt;
}

/**
 * Build the request mix: requests cycle through apps x seeds, so entry
 * i >= apps*seeds repeats the work of entry i % (apps*seeds).
 */
std::vector<MixEntry>
buildMix(const std::vector<std::string> &apps, const Options &opt)
{
    std::vector<MixEntry> mix;
    const std::size_t combos =
        apps.size() * static_cast<std::size_t>(opt.seeds);
    for (int i = 0; i < opt.requests; ++i) {
        const std::size_t combo = static_cast<std::size_t>(i) % combos;
        MixEntry entry;
        entry.app = apps[combo % apps.size()];
        entry.seed = 1000 + combo / apps.size();
        entry.line = "{\"id\":\"lg-" + std::to_string(i) +
                     "\",\"op\":\"check\",\"app\":\"" +
                     jsonEscapeText(entry.app) +
                     "\",\"runs\":" + std::to_string(opt.runs) +
                     ",\"seed\":" + std::to_string(entry.seed) +
                     ",\"input\":\"" + opt.input + "\"}";
        mix.push_back(std::move(entry));
    }
    return mix;
}

/**
 * Send @p line on @p fd, then return the next response line from
 * @p reader (which reads @p fd); empty if the peer is gone.
 */
std::string
socketRoundtrip(int fd, service::LineReader &reader,
                const std::string &line)
{
    std::string response;
    if (!service::sendLine(fd, line) || !reader.next(response))
        return {};
    return response;
}

/** One-off request/response against a Unix socket daemon. */
std::string
oneShotRequest(const std::string &socket, const std::string &line)
{
    const int fd = service::connectUnix(socket);
    if (fd < 0)
        return {};
    service::LineReader reader(fd);
    std::string response = socketRoundtrip(fd, reader, line);
    ::close(fd);
    return response;
}

/** Fork-exec @p args (argv[0] is the binary); -1 on fork failure. */
pid_t
spawnProcess(const std::vector<std::string> &args)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    std::vector<std::string> copy = args;
    std::vector<char *> exec_argv;
    for (std::string &arg : copy)
        exec_argv.push_back(arg.data());
    exec_argv.push_back(nullptr);
    ::execv(copy[0].c_str(), exec_argv.data());
    std::fprintf(stderr, "cannot exec %s\n", copy[0].c_str());
    std::_Exit(3);
}

/** Poll-connect until @p path accepts (about five seconds). */
bool
awaitSocket(const std::string &path)
{
    for (int attempt = 0; attempt < 200; ++attempt) {
        const int fd = service::connectUnix(path);
        if (fd >= 0) {
            ::close(fd);
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
}

/** Unsigned counter @p key of JSON object @p object; 0 when absent. */
std::uint64_t
counter(const service::JsonValue *object, const char *key)
{
    const service::JsonValue *field =
        object != nullptr ? object->find(key) : nullptr;
    return field != nullptr ? field->asU64().value_or(0) : 0;
}

/**
 * The serve daemons (and, for --fleet, the router) this run forked.
 * Whatever is still running on destruction is SIGKILLed and reaped.
 */
class Spawned
{
  public:
    Spawned() = default;
    Spawned(const Spawned &) = delete;
    Spawned &operator=(const Spawned &) = delete;

    ~Spawned()
    {
        for (const pid_t pid : pids)
            ::kill(pid, SIGKILL);
        reap();
    }

    /** Fork the processes @p opt asks for and wait until each accepts. */
    bool
    start(const Options &opt)
    {
        const std::string prefix = "loadgen-" + std::to_string(::getpid());
        const std::string router_socket = prefix + "-router.sock";
        std::vector<std::string> route_args = {
            opt.spawnBin, "route", "--socket", router_socket, "--ship",
            opt.ship};
        for (int b = 0; b < std::max(opt.fleet, 1); ++b) {
            const std::string name = "b" + std::to_string(b);
            const std::string socket = prefix + "-" + name + ".sock";
            std::vector<std::string> serve_args = {
                opt.spawnBin, "serve", "--socket", socket, "--jobs",
                std::to_string(opt.jobs), "--dispatchers",
                std::to_string(opt.dispatchers)};
            if (!opt.store.empty()) {
                serve_args.push_back("--store");
                serve_args.push_back(opt.store);
            }
            if (!add(serve_args, socket))
                return false;
            route_args.push_back("--backend");
            route_args.push_back(name + "=" + socket);
        }
        for (const std::string &socket : sockets)
            if (!awaitSocket(socket))
                return false;
        return opt.fleet == 0 || (add(route_args, router_socket) &&
                                  awaitSocket(router_socket));
    }

    /** The socket clients talk to: the router's, or the one daemon's. */
    const std::string &
    front() const
    {
        return sockets.back();
    }

    /**
     * SIGKILL the fleet's busiest live backend (most checks completed,
     * per the router's stats): the backend most sure to hold completed,
     * replicated units, so failover has real work to resume.
     */
    void
    killBusiestBackend()
    {
        const auto stats = service::parseJson(oneShotRequest(
            front(), "{\"id\":\"lg-prekill\",\"op\":\"stats\"}"));
        const service::JsonValue *fleet =
            stats.has_value() ? stats->find("fleet") : nullptr;
        const service::JsonValue *per =
            fleet != nullptr ? fleet->find("perBackend") : nullptr;
        std::size_t victim = 0;
        std::uint64_t busiest = 0;
        // The router is the last pid; only backends are candidates.
        for (std::size_t i = 0; per != nullptr && i < per->items.size() &&
                                i + 1 < pids.size();
             ++i) {
            const service::JsonValue *alive = per->items[i].find("alive");
            const std::uint64_t checks =
                counter(per->items[i].find("stats"), "checksCompleted");
            if (alive != nullptr && alive->boolean && checks > busiest) {
                busiest = checks;
                victim = i;
            }
        }
        killed = pids[victim];
        ::kill(killed, SIGKILL);
    }

    /**
     * Drain through front() (a router ships every backend's log tail
     * first) and reap every process. False if one other than the
     * deliberately killed backend exited abnormally.
     */
    bool
    drain()
    {
        oneShotRequest(front(), "{\"id\":\"lg-drain\",\"op\":\"drain\"}");
        const bool clean = reap();
        if (!clean)
            std::fprintf(stderr, "a spawned process exited abnormally\n");
        return clean;
    }

  private:
    bool
    add(const std::vector<std::string> &args, const std::string &socket)
    {
        const pid_t pid = spawnProcess(args);
        if (pid < 0) {
            std::fprintf(stderr, "cannot fork %s\n", args[0].c_str());
            return false;
        }
        pids.push_back(pid);
        sockets.push_back(socket);
        return true;
    }

    bool
    reap()
    {
        bool clean = true;
        for (const pid_t pid : pids) {
            int status = 0;
            ::waitpid(pid, &status, 0);
            if (pid != killed &&
                (!WIFEXITED(status) || WEXITSTATUS(status) != 0))
                clean = false;
        }
        for (const std::string &socket : sockets)
            ::unlink(socket.c_str());
        pids.clear();
        sockets.clear();
        return clean;
    }

    std::vector<pid_t> pids;          ///< Backends, then the router.
    std::vector<std::string> sockets; ///< sockets[i] is pids[i]'s.
    pid_t killed = -1;
};

/**
 * Replay @p mix through @p channels from one worker thread per channel
 * and return the responses in mix order. @p on_half (if set) fires
 * exactly once, as the burst passes its halfway point — the kill-one
 * hook.
 */
std::vector<std::string>
runBurst(const std::vector<MixEntry> &mix,
         std::vector<Roundtrip> &channels,
         const std::function<void()> &on_half)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> half_fired{false};
    std::vector<std::string> responses(mix.size());
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < channels.size(); ++c) {
        workers.emplace_back([&, c] {
            while (true) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= mix.size())
                    return;
                if (on_half && i >= mix.size() / 2 &&
                    !half_fired.exchange(true))
                    on_half();
                responses[i] = channels[c](mix[i].line);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    return responses;
}

apps::InputScale
scaleOf(const std::string &input)
{
    if (input == "dev")
        return apps::InputScale::Dev;
    if (input == "large")
        return apps::InputScale::Large;
    return apps::InputScale::Medium;
}

/**
 * Run the campaign of @p entry through the one-shot path and return the
 * canonical report line — the bytes the daemon must have embedded.
 */
std::string
oneShotReport(const MixEntry &entry, int runs, const std::string &input)
{
    const apps::AppInfo *app = apps::tryFindApp(entry.app);
    if (app == nullptr)
        return {};
    check::DriverConfig cfg;
    cfg.runs = runs;
    cfg.baseSchedSeed = entry.seed;
    cfg.ignores = app->ignores;
    runtime::CampaignOptions options;
    options.jobs = 1;
    const check::DriverReport report = runtime::runCampaign(
        cfg, apps::scaledFactory(app->name, scaleOf(input)), options);
    return check::renderReportJson(report);
}

/** Extract the embedded "report":{...} object from an ok response. */
std::string
embeddedReport(const std::string &response)
{
    const std::string needle = "\"report\":";
    const std::size_t pos = response.find(needle);
    if (pos == std::string::npos || response.empty() ||
        response.back() != '}')
        return {};
    // The report is the final member, so it ends one byte before the
    // response's closing brace.
    return response.substr(pos + needle.size(),
                           response.size() - 1 - (pos + needle.size()));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::optional<Options> parsed = parseOptions(argc, argv);
    if (!parsed.has_value())
        return 2;
    const Options &opt = *parsed;
    const std::vector<std::string> app_names = splitCsv(opt.appsCsv);
    const std::vector<MixEntry> mix = buildMix(app_names, opt);

    // --- Set up the transport. ---------------------------------------
    std::unique_ptr<service::Service> local;
    Spawned spawned;
    std::string socket_path = opt.connect;
    const char *mode = "connect";
    if (!opt.spawnBin.empty()) {
        mode = opt.fleet > 0 ? "fleet" : "spawn";
        if (!spawned.start(opt)) {
            std::fprintf(stderr, "spawned daemons never came up\n");
            return 3;
        }
        socket_path = spawned.front();
    } else if (opt.connect.empty()) {
        mode = "in-process";
        service::ServiceConfig cfg;
        cfg.jobs = opt.jobs;
        cfg.dispatchers = opt.dispatchers;
        cfg.storePath = opt.store;
        local = std::make_unique<service::Service>(cfg);
    }

    // Per-client channels: in-process clients call the service
    // directly; socket clients each own one connection.
    std::vector<int> client_fds;
    std::vector<Roundtrip> channels;
    for (int c = 0; c < opt.clients; ++c) {
        if (local != nullptr) {
            channels.emplace_back([&local](const std::string &line) {
                return local->handleLine(line);
            });
            continue;
        }
        const int fd = service::connectUnix(socket_path);
        if (fd < 0) {
            std::fprintf(stderr, "cannot connect to %s\n",
                         socket_path.c_str());
            return 3;
        }
        client_fds.push_back(fd);
        auto reader = std::make_shared<service::LineReader>(fd);
        channels.emplace_back([fd, reader](const std::string &line) {
            return socketRoundtrip(fd, *reader, line);
        });
    }

    // --- Traffic, then the daemon's own counters. --------------------
    std::function<void()> on_half;
    if (opt.killOne)
        on_half = [&spawned] { spawned.killBusiestBackend(); };
    const std::vector<std::string> responses =
        runBurst(mix, channels, on_half);
    const auto failures = std::count_if(
        responses.begin(), responses.end(), [](const std::string &r) {
            return r.find("\"status\":\"ok\"") == std::string::npos;
        });
    if (failures != 0)
        std::fprintf(stderr, "%td of %zu requests did not return ok\n",
                     failures, mix.size());

    // A daemon answers {"stats":{...}}; a router answers
    // {"fleet":{"router":{...},"aggregate":{...}}}.
    const auto stats = service::parseJson(
        channels[0]("{\"id\":\"lg-stats\",\"op\":\"stats\"}"));
    const service::JsonValue *fleet =
        stats.has_value() ? stats->find("fleet") : nullptr;
    const service::JsonValue *units =
        fleet != nullptr ? fleet->find("aggregate")
        : stats.has_value() ? stats->find("stats")
                            : nullptr;
    const service::JsonValue *router =
        fleet != nullptr ? fleet->find("router") : nullptr;
    const std::uint64_t failovers = counter(router, "failovers");
    const std::uint64_t reinstalled = counter(router, "framesReinstalled");

    // --- Tear down the transport. ------------------------------------
    for (const int fd : client_fds)
        ::close(fd);
    const bool reaped_clean = opt.spawnBin.empty() || spawned.drain();

    // --- Verify: daemon bytes vs the one-shot path. ------------------
    // Entries [0, apps x seeds) are the first request of each distinct
    // combination; later entries repeat them.
    bool verified = true;
    if (opt.verify) {
        const std::size_t combos =
            app_names.size() * static_cast<std::size_t>(opt.seeds);
        const std::size_t distinct = std::min(mix.size(), combos);
        for (std::size_t i = 0; i < distinct; ++i) {
            const std::string expected =
                oneShotReport(mix[i], opt.runs, opt.input);
            const std::string got = embeddedReport(responses[i]);
            if (expected.empty() || got != expected) {
                std::fprintf(stderr,
                             "report mismatch for %s seed %llu\n"
                             "  one-shot: %s\n  daemon:   %s\n",
                             mix[i].app.c_str(),
                             static_cast<unsigned long long>(mix[i].seed),
                             expected.c_str(), got.c_str());
                verified = false;
            }
        }
    }

    const bool failed_over =
        !opt.killOne || (failovers >= 1 && reinstalled >= 1);
    if (!failed_over)
        std::fprintf(stderr,
                     "kill-one: expected a failover with reinstalled "
                     "frames (failovers=%llu reinstalled=%llu)\n",
                     static_cast<unsigned long long>(failovers),
                     static_cast<unsigned long long>(reinstalled));

    // --- Summary. ----------------------------------------------------
    std::FILE *out = opt.outPath.empty()
                         ? stdout
                         : std::fopen(opt.outPath.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", opt.outPath.c_str());
        return 1;
    }
    const std::string kill_one =
        opt.killOne ? "{\"failovers\": " + std::to_string(failovers) +
                          ", \"framesReinstalled\": " +
                          std::to_string(reinstalled) + "}"
                    : "null";
    std::fprintf(
        out,
        "{\n"
        "  \"mode\": \"%s\",\n"
        "  \"requests\": %d,\n"
        "  \"clients\": %d,\n"
        "  \"runsPerRequest\": %d,\n"
        "  \"apps\": \"%s\",\n"
        "  \"seedsPerApp\": %d,\n"
        "  \"input\": \"%s\",\n"
        "  \"allOk\": %s,\n"
        "  \"verified\": %s,\n"
        "  \"unitsExecuted\": %llu,\n"
        "  \"unitsReused\": %llu,\n"
        "  \"killOne\": %s\n"
        "}\n",
        mode, opt.requests, opt.clients, opt.runs,
        jsonEscapeText(opt.appsCsv).c_str(), opt.seeds, opt.input.c_str(),
        failures == 0 ? "true" : "false",
        opt.verify ? (verified ? "true" : "false") : "null",
        static_cast<unsigned long long>(counter(units, "unitsExecuted")),
        static_cast<unsigned long long>(counter(units, "unitsReused")),
        kill_one.c_str());
    if (out != stdout)
        std::fclose(out);
    return failures == 0 && verified && failed_over && reaped_clean ? 0 : 1;
}
