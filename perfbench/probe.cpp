/**
 * @file
 * perfbench_probe: the in-process half of the perfbench benchmark.
 *
 * Every subcommand calls InstantCheck's public functions, times those
 * calls from here, and prints one JSON object per line on stdout.
 * perfbench/run.py spawns it, parses the lines, and derives the metrics.
 *
 *   perfbench_probe ready    [--jobs N]
 *   perfbench_probe campaign --seed S --jobs N [--input large] [--runs 30]
 *                            [--apps a,b,..] [--seconds T] [--traced]
 *                            [--spans FILE]
 *   perfbench_probe explore  --seed S --jobs N [--scale full|small]
 *                            [--seconds T] [--spans FILE]
 *   perfbench_probe layers   --seed S
 *   perfbench_probe service  --requests FILE [--jobs N] [--spans FILE]
 *   perfbench_probe reports  --requests FILE [--jobs N]
 *
 * `campaign` and `explore` alternate a jobs-1 batch and a jobs-N batch
 * (see JobsOneBatch) until --seconds elapse, at least one pair. `--traced`
 * drives a campaign through executeCampaignRun / analyzeCampaign /
 * renderReportJson one call at a time instead of runtime::runCampaign,
 * on the same pool, so each call gets a span; reports must come out
 * byte-identical either way.
 *
 * Every subcommand ends with {"kind":"rss","peak_kb":N}: this process's
 * own peak resident set (getrusage RUSAGE_SELF).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "apps/app_registry.hpp"
#include "apps/apps.hpp"
#include "apps/scales.hpp"
#include "check/report_json.hpp"
#include "explore/explorer.hpp"
#include "fleet/router.hpp"
#include "hashing/crc64.hpp"
#include "runtime/parallel_driver.hpp"
#include "runtime/parallel_explore.hpp"
#include "runtime/thread_pool.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/record_codec.hpp"
#include "service/result_store.hpp"
#include "service/serve_loop.hpp"

using namespace icheck;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
usNow()
{
    return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
        .count();
}

std::string
hex64(std::uint64_t value)
{
    char text[17];
    std::snprintf(text, sizeof text, "%016" PRIx64, value);
    return text;
}

std::uint64_t
crcOf(const std::string &bytes)
{
    return hashing::Crc64::compute(bytes.data(), bytes.size());
}

/** Minimal flag access: --name value. */
struct Flags
{
    std::vector<std::string> tokens;

    std::string
    get(const std::string &name, const std::string &fallback) const
    {
        for (std::size_t i = 0; i + 1 < tokens.size(); ++i)
            if (tokens[i] == name)
                return tokens[i + 1];
        return fallback;
    }

    long long
    num(const std::string &name, long long fallback) const
    {
        const std::string v = get(name, "");
        return v.empty() ? fallback : std::atoll(v.c_str());
    }

    bool
    has(const std::string &name) const
    {
        return std::find(tokens.begin(), tokens.end(), name) != tokens.end();
    }
};

/**
 * In-memory span recorder. A span is one public call the probe makes:
 * name, start, end (µs since process start), parent span index, and the
 * campaign or request id it belongs to. Written out once, at exit.
 */
class SpanLog
{
  public:
    int
    open(const std::string &name, const std::string &id, int parent)
    {
        std::lock_guard<std::mutex> lock(mu);
        spans.push_back({name, id, parent, usNow(), 0.0});
        return static_cast<int>(spans.size()) - 1;
    }

    void
    close(int index)
    {
        const double end = usNow();
        std::lock_guard<std::mutex> lock(mu);
        spans[static_cast<std::size_t>(index)].end = end;
    }

    void
    write(const std::string &path) const
    {
        if (path.empty())
            return;
        std::ofstream out(path);
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char line[512];
            std::snprintf(line, sizeof line,
                          "{\"i\":%zu,\"name\":\"%s\",\"id\":\"%s\","
                          "\"parent\":%d,\"start\":%.3f,\"end\":%.3f}\n",
                          i, s.name.c_str(), s.id.c_str(), s.parent,
                          s.start, s.end);
            out << line;
        }
    }

  private:
    struct Span
    {
        std::string name;
        std::string id;
        int parent;
        double start;
        double end;
    };
    mutable std::mutex mu;
    std::vector<Span> spans;
};

SpanLog g_spans;

/** RAII span; a null log records nothing. */
class Scoped
{
  public:
    Scoped(SpanLog *log, const std::string &name, const std::string &id,
           int parent)
        : log(log), index(log ? log->open(name, id, parent) : -1)
    {}
    ~Scoped()
    {
        if (log)
            log->close(index);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;
    int id() const { return index; }

  private:
    SpanLog *log;
    int index;
};

apps::InputScale
scaleOf(const std::string &input)
{
    if (input == "dev")
        return apps::InputScale::Dev;
    if (input == "large")
        return apps::InputScale::Large;
    return apps::InputScale::Medium;
}

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string item = text.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** One pool per worker count, created at set-up and kept for the run. */
std::unique_ptr<runtime::ThreadPool>
makePool(int jobs)
{
    if (jobs <= 1)
        return nullptr;
    return std::make_unique<runtime::ThreadPool>(
        static_cast<unsigned>(jobs));
}

int
cmdReady(const Flags &flags)
{
    const auto start = Clock::now();
    const std::size_t app_count = apps::registry().size();
    const auto pool = makePool(runtime::resolveJobs(
        static_cast<int>(flags.num("--jobs", 0))));
    std::printf("{\"ready\":true,\"apps\":%zu,\"ms\":%.3f}\n",
                app_count, msSince(start));
    return 0;
}

// ------------------------------------------------------------- campaign

const check::Scheme kSchemes[] = {check::Scheme::HwInc,
                                  check::Scheme::SwInc,
                                  check::Scheme::SwTr};

/**
 * The campaign runtime::runCampaign would run, driven one public call at
 * a time so each gets a span: run 0 records the replay log on the caller,
 * runs 1..N-1 fan out in Replay mode over the same pool (or run on the
 * caller without one), then analyze and render.
 */
check::DriverReport
tracedCampaign(const check::DriverConfig &cfg,
               const check::ProgramFactory &factory,
               runtime::ThreadPool *pool, const std::string &id, int parent,
               double &run0_us)
{
    std::vector<check::RunRecord> records(
        static_cast<std::size_t>(cfg.runs));
    mem::ReplayLog log;
    std::string app;
    {
        const double t0 = usNow();
        Scoped span(&g_spans, "executeCampaignRun", id, parent);
        records[0] = check::executeCampaignRun(
            cfg, factory, 0, log, mem::DeterministicAllocator::Mode::Record,
            &app);
        run0_us = usNow() - t0;
    }
    const auto replay = [&](std::size_t k) {
        const int run = static_cast<int>(k) + 1;
        Scoped span(&g_spans, "executeCampaignRun", id, parent);
        records[static_cast<std::size_t>(run)] = check::executeCampaignRun(
            cfg, factory, run, log, mem::DeterministicAllocator::Mode::Replay);
    };
    const std::size_t remaining = static_cast<std::size_t>(cfg.runs - 1);
    if (pool != nullptr)
        pool->parallelFor(remaining, replay);
    else
        for (std::size_t k = 0; k < remaining; ++k)
            replay(k);
    Scoped span(&g_spans, "analyzeCampaign", id, parent);
    return check::analyzeCampaign(cfg, app, std::move(records));
}

/**
 * The jobs-1 shape of a batch: `threads` threads each take whole items
 * off a shared counter and run them at jobs 1, so the batch keeps every
 * core busy with single-worker items. (The jobs-N shape runs the items
 * one after another on all workers.) Loading the whole host in both
 * shapes keeps a noisy neighbour's effect on one core from dominating
 * the jobs-1 figure. Items start longest first, by their time in the
 * previous batch, so a batch does not end on one thread finishing a long
 * item alone.
 */
class JobsOneBatch
{
  public:
    JobsOneBatch(std::size_t count, int threads)
        : order(count), lastMs(count, 0.0), threads(threads)
    {
        std::iota(order.begin(), order.end(), std::size_t{0});
    }

    void
    run(const std::function<void(std::size_t)> &item)
    {
        std::atomic<std::size_t> next{0};
        const auto worker = [&] {
            for (std::size_t k = next++; k < order.size(); k = next++) {
                const auto t0 = Clock::now();
                item(order[k]);
                lastMs[order[k]] = msSince(t0);
            }
        };
        std::vector<std::thread> pool;
        for (int t = 1; t < threads; ++t)
            pool.emplace_back(worker);
        worker();
        for (std::thread &thread : pool)
            thread.join();
        std::stable_sort(order.begin(), order.end(),
                         [this](std::size_t a, std::size_t b) {
                             return lastMs[a] > lastMs[b];
                         });
    }

  private:
    std::vector<std::size_t> order;
    std::vector<double> lastMs;
    int threads;
};

int
cmdCampaign(const Flags &flags)
{
    const std::uint64_t seed =
        static_cast<std::uint64_t>(flags.num("--seed", 1));
    const int jobs_n = runtime::resolveJobs(
        static_cast<int>(flags.num("--jobs", 0)));
    const std::string input = flags.get("--input", "large");
    const int runs = static_cast<int>(flags.num("--runs", 30));
    const double seconds = static_cast<double>(flags.num("--seconds", 0));
    const bool traced = flags.has("--traced");
    std::vector<std::string> names = splitCsv(flags.get("--apps", ""));
    if (names.empty())
        for (const apps::AppInfo &app : apps::registry())
            names.push_back(app.name);
    std::vector<std::pair<std::string, check::Scheme>> items;
    for (const std::string &name : names)
        for (const check::Scheme scheme : kSchemes)
            items.emplace_back(name, scheme);

    const auto pool = makePool(jobs_n);
    JobsOneBatch batch(items.size(), jobs_n);
    const auto start = Clock::now();
    for (int pass = 0;; ++pass) {
        const auto pair_start = Clock::now();
        for (const int jobs : {1, jobs_n}) {
            const auto sweep_start = Clock::now();
            const auto item = [&](std::size_t i) {
                const auto &[name, scheme] = items[i];
                const apps::AppInfo &app = apps::findApp(name);
                const check::ProgramFactory factory =
                    apps::scaledFactory(app.name, scaleOf(input));
                check::DriverConfig cfg;
                cfg.runs = runs;
                cfg.scheme = scheme;
                cfg.baseSchedSeed = 1000 + 100 * seed;
                cfg.ignores = app.ignores;
                const std::string id = name + "/" +
                                       service::schemeToken(scheme) + "/j" +
                                       std::to_string(jobs) + "/p" +
                                       std::to_string(pass);
                double run0_us = 0.0;
                const auto t0 = Clock::now();
                std::string json;
                check::DriverReport report;
                runtime::ThreadPool *const run_pool =
                    jobs > 1 ? pool.get() : nullptr;
                if (traced) {
                    Scoped span(&g_spans, "campaign", id, -1);
                    report = tracedCampaign(cfg, factory, run_pool, id,
                                            span.id(), run0_us);
                    Scoped render(&g_spans, "renderReportJson", id,
                                  span.id());
                    json = check::renderReportJson(report);
                } else {
                    runtime::CampaignOptions options;
                    options.jobs = 1;
                    options.pool = run_pool;
                    report = runtime::runCampaign(cfg, factory, options);
                    json = check::renderReportJson(report);
                }
                const double ms = msSince(t0);
                std::uint64_t checkpoints = 0, hits = 0, misses = 0,
                              hashed = 0, native = 0;
                for (const check::RunRecord &r : report.records) {
                    checkpoints += r.result.checkpoints;
                    hits += r.result.cacheHits;
                    misses += r.result.cacheMisses;
                    hashed += r.result.storesHashed;
                    native += r.result.nativeInstrs;
                }
                std::printf(
                    "{\"kind\":\"campaign\",\"pass\":%d,\"jobs\":%d,"
                    "\"app\":\"%s\",\"scheme\":\"%s\",\"runs\":%d,"
                    "\"ms\":%.4f,\"run0_ms\":%.4f,\"det\":%s,"
                    "\"report_crc\":\"%s\",\"overhead_factor\":%.9f,"
                    "\"native_instrs\":%" PRIu64 ",\"checkpoints\":%" PRIu64
                    ",\"cache_hits\":%" PRIu64 ",\"cache_misses\":%" PRIu64
                    ",\"stores_hashed\":%" PRIu64 "}\n",
                    pass, jobs, name.c_str(),
                    service::schemeToken(scheme).c_str(), runs, ms,
                    run0_us / 1000.0,
                    report.deterministic() ? "true" : "false",
                    hex64(crcOf(json)).c_str(), report.overheadFactor(),
                    native, checkpoints, hits, misses, hashed);
            };
            if (jobs == 1)
                batch.run(item);
            else
                for (std::size_t i = 0; i < items.size(); ++i)
                    item(i);
            std::printf("{\"kind\":\"sweep\",\"pass\":%d,\"jobs\":%d,"
                        "\"ms\":%.4f}\n",
                        pass, jobs, msSince(sweep_start));
            std::fflush(stdout);
        }
        if (msSince(start) + msSince(pair_start) > seconds * 1000.0)
            break;
    }
    return 0;
}

// -------------------------------------------------------------- explore

struct Search
{
    std::string label;
    check::ProgramFactory factory;
};

/**
 * The Table 2 bug-seeded apps at exploration scale. `full` is sized so
 * each jobs-1 search lasts about a second; `small` is the micro_explore
 * scale (tens of milliseconds).
 */
std::vector<Search>
searches(bool full)
{
    using namespace icheck::apps;
    const std::uint32_t steps = full ? 2 : 1;
    const std::uint32_t keys = full ? 1024 : 8;
    return {
        {"radix", [keys] {
             return std::make_unique<Radix>(4, keys,
                                            BugSeed::OrderViolation);
         }},
        {"waterNS", [steps] {
             return std::make_unique<WaterNS>(4, 4, steps,
                                              BugSeed::Semantic);
         }},
        {"waterSP", [steps] {
             return std::make_unique<WaterSP>(
                 4, 4, steps, BugSeed::AtomicityViolation);
         }},
    };
}

int
cmdExplore(const Flags &flags)
{
    const std::uint64_t seed =
        static_cast<std::uint64_t>(flags.num("--seed", 1));
    const int jobs_n = runtime::resolveJobs(
        static_cast<int>(flags.num("--jobs", 0)));
    const bool full = flags.get("--scale", "full") == "full";
    const double seconds = static_cast<double>(flags.num("--seconds", 0));
    const bool traced = !flags.get("--spans", "").empty();

    sim::MachineConfig mc;
    mc.numCores = 2;
    mc.inputSeed = 42 + seed;
    explore::ExploreConfig cfg;
    cfg.prune = explore::PruneMode::StateHash;
    cfg.dpor = true;
    cfg.quantum = 1u << 20; // run-to-block: decisions at sync points
    cfg.maxRuns = 300000;

    // At jobs 1 every worker thread searches the whole list (the same
    // inputs, so every copy must find the same states); at jobs N the
    // list is searched once by the parallel frontier.
    const std::vector<Search> list = searches(full);
    JobsOneBatch batch(static_cast<std::size_t>(jobs_n) * list.size(),
                       jobs_n);
    const auto start = Clock::now();
    for (int pass = 0;; ++pass) {
        const auto pair_start = Clock::now();
        for (const int jobs : {1, jobs_n}) {
            const auto sweep_start = Clock::now();
            const auto item = [&](std::size_t i) {
                const Search &search = list[i % list.size()];
                const std::string id = search.label + "/j" +
                                       std::to_string(jobs) + "/p" +
                                       std::to_string(pass) + "/c" +
                                       std::to_string(i / list.size());
                const auto t0 = Clock::now();
                explore::ExploreResult result;
                {
                    Scoped span(traced ? &g_spans : nullptr, "explore", id,
                                -1);
                    result = jobs == 1
                                 ? explore::explore(search.factory, mc, cfg)
                                 : runtime::exploreParallel(search.factory,
                                                            mc, cfg, jobs);
                }
                const double ms = msSince(t0);
                std::uint64_t states_crc = 0;
                for (const HashWord state : result.finalStates)
                    states_crc = hashing::Crc64::feedWordLe(
                        states_crc, static_cast<std::uint64_t>(state));
                const explore::ExploreStats &s = result.stats;
                std::printf(
                    "{\"kind\":\"search\",\"pass\":%d,\"jobs\":%d,"
                    "\"app\":\"%s\",\"ms\":%.4f,\"exhausted\":%s,"
                    "\"nodes\":%d,\"states\":%zu,\"states_crc\":\"%s\","
                    "\"checkpoint_hits\":%" PRIu64
                    ",\"checkpoint_misses\":%" PRIu64
                    ",\"checkpoint_bytes\":%" PRIu64
                    ",\"pages_cow_cloned\":%" PRIu64
                    ",\"decisions_restored\":%" PRIu64
                    ",\"decisions_executed\":%" PRIu64
                    ",\"sig_inserts\":%" PRIu64 ",\"sig_unique\":%" PRIu64
                    ",\"dpor_races\":%" PRIu64 ",\"backtracks\":%" PRIu64
                    "}\n",
                    pass, jobs, search.label.c_str(), ms,
                    result.exhausted ? "true" : "false",
                    result.runsExecuted, result.finalStates.size(),
                    hex64(states_crc).c_str(), s.checkpointHits,
                    s.checkpointMisses, s.checkpointBytes, s.pagesCowCloned,
                    s.decisionsRestored, s.decisionsExecuted, s.sigInserts,
                    s.sigUnique, s.dporRaces, s.backtracksInserted);
            };
            if (jobs == 1)
                batch.run(item);
            else
                for (std::size_t i = 0; i < list.size(); ++i)
                    item(i);
            std::printf("{\"kind\":\"sweep\",\"pass\":%d,\"jobs\":%d,"
                        "\"ms\":%.4f}\n",
                        pass, jobs, msSince(sweep_start));
            std::fflush(stdout);
        }
        if (msSince(start) + msSince(pair_start) > seconds * 1000.0)
            break;
    }
    return 0;
}

// --------------------------------------------------------------- layers

template <typename F>
double
timedMs(F &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return msSince(t0);
}

/**
 * The layer stack's request: a kStackRuns-run campaign (the smallest the
 * protocol accepts) of kStackApp at medium input under SW-Inc, whose
 * listener costs enough per run that its delta stands clear of
 * run-to-run noise.
 */
const std::string kStackApp = "ocean";
constexpr check::Scheme kStackScheme = check::Scheme::SwInc;
constexpr int kStackRuns = 2;
constexpr int kStackReps = 201;
constexpr int kRepeats = 5;

/**
 * Median of kRepeats timings of fn: for the steps that take a few tens of
 * microseconds (analyze, render, a warm request), where one timing is
 * mostly noise.
 */
template <typename F>
double
medianMs(F &&fn)
{
    std::vector<double> ms;
    for (int k = 0; k < kRepeats; ++k)
        ms.push_back(timedMs(fn));
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

/** A blocking JSONL client of a daemon or router Unix socket. */
class LineSocket
{
  public:
    explicit LineSocket(const std::string &path)
        : fd(::socket(AF_UNIX, SOCK_STREAM, 0))
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd < 0 || path.size() >= sizeof addr.sun_path) {
            if (fd >= 0)
                ::close(fd);
            throw std::runtime_error("cannot open a socket for '" + path +
                                     "'");
        }
        std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd);
            throw std::runtime_error("cannot connect to '" + path +
                                     "': " + std::strerror(errno));
        }
    }
    ~LineSocket() { ::close(fd); }
    LineSocket(const LineSocket &) = delete;
    LineSocket &operator=(const LineSocket &) = delete;

    /** Send one request line and return the response line. */
    std::string
    call(const std::string &line)
    {
        const std::string out = line + "\n";
        for (std::size_t sent = 0; sent < out.size();) {
            const ssize_t n = ::send(fd, out.data() + sent,
                                     out.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("socket send failed");
            sent += static_cast<std::size_t>(n);
        }
        std::size_t eol;
        while ((eol = buf.find('\n')) == std::string::npos) {
            char chunk[1 << 16];
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                throw std::runtime_error("socket closed before a response");
            buf.append(chunk, static_cast<std::size_t>(n));
        }
        std::string response = buf.substr(0, eol);
        buf.erase(0, eol + 1);
        return response;
    }

  private:
    int fd;
    std::string buf;
};

bool
isOk(const std::string &response)
{
    return response.find("\"status\":\"ok\"") != std::string::npos;
}

/** Connect to @p path, retrying while its server is still starting. */
void
waitConnectable(const std::string &path)
{
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (true) {
        try {
            LineSocket probe(path);
            return;
        } catch (const std::runtime_error &) {
            if (Clock::now() > deadline)
                throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/**
 * A fleet hosted in this process through the public serve-loop and
 * router API: one Service daemon, or with `routed` two daemons fronted
 * by a fleet::Router on <name>-router.sock, shipping sync or async. Each
 * daemon has 2 pool workers and a store, as the serve workload's
 * `icheck serve --jobs 2`, on <name>-bN.sock. The layer stack sends its
 * requests here rather than to `icheck` processes so that the steps it
 * times in this process and the end-to-end request run in one binary
 * and heap: the same campaign can run several percent faster in one
 * process than in another.
 */
class HostedFleet
{
  public:
    HostedFleet(const std::string &name, bool routed, bool sync_ship)
    {
        fleet::FleetTopology topology;
        topology.syncShip = sync_ship;
        for (int b = 0; b < (routed ? 2 : 1); ++b) {
            const std::string base = name + "-b" + std::to_string(b);
            service::ServiceConfig cfg;
            cfg.jobs = 2;
            cfg.storePath = base + ".icr";
            std::remove(cfg.storePath.c_str());
            services.push_back(std::make_unique<service::Service>(cfg));
            service::Service *svc = services.back().get();
            const std::string socket = base + ".sock";
            backendThreads.emplace_back([this, svc, socket] {
                service::serveSocket(*svc, socket, &stopBackends);
            });
            waitConnectable(socket);
            topology.backends.push_back({"b" + std::to_string(b), socket});
        }
        front = topology.backends.front().socket;
        if (routed) {
            front = name + "-router.sock";
            hostedRouter =
                std::make_unique<fleet::Router>(std::move(topology), front);
            if (!hostedRouter->start())
                throw std::runtime_error("router " + name + " did not start");
            routerThread =
                std::thread([this] { hostedRouter->serve(&stopRouter); });
            waitConnectable(front);
        }
    }

    /** The router first, then the backends it was connected to. */
    ~HostedFleet()
    {
        stopRouter = 1;
        if (routerThread.joinable())
            routerThread.join();
        if (hostedRouter)
            hostedRouter->stop();
        stopBackends = 1;
        for (std::thread &thread : backendThreads)
            thread.join();
    }
    HostedFleet(const HostedFleet &) = delete;
    HostedFleet &operator=(const HostedFleet &) = delete;

    std::string front;

  private:
    volatile std::sig_atomic_t stopRouter = 0;
    volatile std::sig_atomic_t stopBackends = 0;
    std::vector<std::unique_ptr<service::Service>> services;
    std::vector<std::thread> backendThreads;
    std::unique_ptr<fleet::Router> hostedRouter;
    std::thread routerThread;
};

/** Run this process, and every thread it starts, on its first CPU. */
void
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof one, &one);
            return;
        }
}

/**
 * The layer stack, kStackReps reps. Rep k uses scheduler seeds
 * base + kStackRuns * k onward in every step, so two steps differ only by
 * the layers between them. In process: native Machine (runNative with
 * hashing off), +MHM (armed, no listener), +scheme listener
 * (executeCampaignRun, per scheme), analyzeCampaign and renderReportJson,
 * encoding and appending the campaign's unit and replay-log frames
 * (ResultStore::put), and Service::handleLine on the campaign cold, then
 * warm (new ids: every unit comes from the store). Over the sockets of
 * HostedFleets: the same cold-then-warm requests to a direct daemon, a
 * router shipping async and a router shipping sync. Also times
 * ResultStore put/get per frame. Files go in the working directory.
 */
int
cmdLayers(const Flags &flags)
{
    const std::uint64_t base =
        static_cast<std::uint64_t>(flags.num("--seed", 1000));
    const std::string store_path = "layers.icr";
    const apps::AppInfo &app = apps::findApp(kStackApp);
    const check::ProgramFactory factory =
        apps::scaledFactory(app.name, apps::InputScale::Medium);

    // Every step, in this thread or a fleet's, runs on one CPU: on a
    // shared host one core's speed drifts apart from another's.
    pinToOneCpu();
    std::signal(SIGPIPE, SIG_IGN);
    const std::string fleet_names[] = {"direct", "async", "sync"};
    HostedFleet direct("direct", false, false);
    HostedFleet async_ship("async", true, false);
    HostedFleet sync_ship("sync", true, true);
    std::vector<std::unique_ptr<LineSocket>> fleets;
    for (const HostedFleet *fleet : {&direct, &async_ship, &sync_ship})
        fleets.push_back(std::make_unique<LineSocket>(fleet->front));
    service::ServiceConfig scfg;
    scfg.jobs = 2; // as the backends
    service::Service svc(scfg);

    for (int rep = 0; rep < kStackReps; ++rep) {
        const std::uint64_t seed =
            base + static_cast<std::uint64_t>(kStackRuns * rep);
        check::DriverConfig base_cfg;
        base_cfg.runs = kStackRuns;
        base_cfg.baseSchedSeed = seed;
        base_cfg.ignores = app.ignores;

        std::vector<check::RunRecord> stack_records;
        mem::ReplayLog stack_log;
        // The stack's scheme runs first, cold like a request's campaign.
        const check::Scheme order[] = {kStackScheme, check::Scheme::HwInc,
                                       check::Scheme::SwTr};
        for (const check::Scheme scheme : order) {
            check::DriverConfig cfg = base_cfg;
            cfg.scheme = scheme;
            mem::ReplayLog log;
            std::string app_name;
            std::vector<check::RunRecord> records(kStackRuns);
            double run_ms = 0.0;
            for (int run = 0; run < kStackRuns; ++run)
                run_ms += timedMs([&] {
                    records[static_cast<std::size_t>(run)] =
                        check::executeCampaignRun(
                            cfg, factory, run, log,
                            run == 0
                                ? mem::DeterministicAllocator::Mode::Record
                                : mem::DeterministicAllocator::Mode::Replay,
                            &app_name);
                });
            check::DriverReport report;
            const double analyze_ms = medianMs([&] {
                report = check::analyzeCampaign(cfg, app_name, records);
            });
            std::string json;
            const double render_ms =
                medianMs([&] { json = check::renderReportJson(report); });
            std::printf("{\"kind\":\"scheme\",\"rep\":%d,\"scheme\":\"%s\","
                        "\"run_ms\":%.4f,\"analyze_ms\":%.4f,"
                        "\"render_ms\":%.4f,\"overhead_factor\":%.9f}\n",
                        rep, service::schemeToken(scheme).c_str(), run_ms,
                        analyze_ms, render_ms, report.overheadFactor());
            if (scheme == kStackScheme) {
                stack_records = std::move(records);
                stack_log = std::move(log);
            }
        }

        check::DriverConfig native_cfg = base_cfg;
        native_cfg.machine.hashingArmed = false;
        sim::RunResult native{}, armed{};
        double native_ms = 0.0, armed_ms = 0.0;
        for (int run = 0; run < kStackRuns; ++run) {
            const std::uint64_t run_seed =
                seed + static_cast<std::uint64_t>(run);
            sim::RunResult n{}, a{};
            native_ms += timedMs([&] {
                n = check::DeterminismDriver(native_cfg)
                        .runNative(factory, run_seed);
            });
            armed_ms += timedMs([&] {
                a = check::DeterminismDriver(base_cfg).runNative(factory,
                                                            run_seed);
            });
            native.nativeInstrs += n.nativeInstrs;
            native.checkpoints += n.checkpoints;
            native.cacheHits += n.cacheHits;
            native.cacheMisses += n.cacheMisses;
            armed.storesHashed += a.storesHashed;
        }
        std::printf("{\"kind\":\"machine\",\"rep\":%d,\"runs\":%d,"
                    "\"native_ms\":%.4f,\"armed_ms\":%.4f,"
                    "\"native_instrs\":%" PRIu64
                    ",\"checkpoints\":%" PRIu64 ",\"cache_hits\":%" PRIu64
                    ",\"cache_misses\":%" PRIu64 ",\"stores_hashed\":%" PRIu64
                    "}\n",
                    rep, kStackRuns, native_ms, armed_ms,
                    static_cast<std::uint64_t>(native.nativeInstrs),
                    native.checkpoints, native.cacheHits, native.cacheMisses,
                    armed.storesHashed);

        // Persisting the campaign as the service does (a frame per unit
        // plus the replay log, encoded and appended), then put/get per
        // frame under many keys.
        std::remove(store_path.c_str());
        bool ok = true;
        double persist_ms = 0.0, put_us = 0.0, get_us = 0.0;
        std::vector<std::string> frames;
        {
            service::ResultStore store(store_path);
            const std::string prefix = "stack/" + std::to_string(rep) + "/";
            persist_ms = timedMs([&] {
                for (const check::RunRecord &record : stack_records)
                    frames.push_back(service::encodeRunRecord(record));
                frames.push_back(service::encodeReplayLog(stack_log));
                for (std::size_t i = 0; i < frames.size(); ++i)
                    store.put(prefix + std::to_string(i), frames[i]);
            });
            constexpr int kFrames = 200;
            const auto key = [&prefix](int i) {
                return prefix + "unit/" + std::to_string(i);
            };
            std::size_t want = 0;
            put_us = timedMs([&] {
                         for (int i = 0; i < kFrames; ++i) {
                             const std::string &payload =
                                 frames[static_cast<std::size_t>(i) %
                                        kStackRuns];
                             want += payload.size();
                             store.put(key(i), payload);
                         }
                     }) *
                     1000.0 / kFrames;
            std::size_t got = 0;
            get_us = timedMs([&] {
                         for (int i = 0; i < kFrames; ++i)
                             got += store.get(key(i)).value_or("").size();
                     }) *
                     1000.0 / kFrames;
            ok &= got == want;
        }
        std::remove(store_path.c_str());

        const std::string suffix = std::to_string(rep);
        const auto line = [&](const std::string &id) {
            return "{\"id\":\"" + id + "\",\"op\":\"check\",\"app\":\"" +
                   kStackApp + "\",\"runs\":" + std::to_string(kStackRuns) +
                   ",\"scheme\":\"" + service::schemeToken(kStackScheme) +
                   "\",\"seed\":" + std::to_string(seed) +
                   ",\"input\":\"medium\"}";
        };
        const auto warmMs = [&](const std::string &id, auto &&send) {
            int k = 0;
            return medianMs([&] {
                ok &= isOk(send(line(id + "warm-" + suffix + "-" +
                                     std::to_string(k++))));
            });
        };
        ok &= isOk(svc.handleLine(line("stack-cold-" + suffix)));
        const double handle_warm_ms = warmMs(
            "stack-", [&](const std::string &l) { return svc.handleLine(l); });
        std::printf("{\"kind\":\"service\",\"rep\":%d,\"scheme\":\"%s\","
                    "\"persist_ms\":%.4f,\"handle_warm_ms\":%.4f,"
                    "\"store_put_us\":%.4f,\"store_get_us\":%.4f,"
                    "\"ok\":%s}\n",
                    rep, service::schemeToken(kStackScheme).c_str(),
                    persist_ms, handle_warm_ms, put_us, get_us,
                    ok ? "true" : "false");

        // The fleets' turn rotates by rep, so neither drift nor another
        // fleet's timed shipping falls on one fleet more than another.
        for (std::size_t turn = 0; turn < fleets.size(); ++turn) {
            const std::size_t f =
                (turn + static_cast<std::size_t>(rep)) % fleets.size();
            const auto send = [&](const std::string &l) {
                return fleets[f]->call(l);
            };
            const std::string id = "stack-" + fleet_names[f] + "-";
            ok = true;
            const double cold_ms = timedMs(
                [&] { ok &= isOk(send(line(id + "cold-" + suffix))); });
            const double warm_ms = warmMs(id, send);
            std::printf("{\"kind\":\"fleet\",\"rep\":%d,\"fleet\":\"%s\","
                        "\"cold_ms\":%.4f,\"warm_ms\":%.4f,\"ok\":%s}\n",
                        rep, fleet_names[f].c_str(), cold_ms, warm_ms,
                        ok ? "true" : "false");
        }
        std::fflush(stdout);
    }
    return 0;
}

// ------------------------------------------------------ service / reports

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** Every request line through one in-process Service, one at a time. */
int
cmdService(const Flags &flags)
{
    const std::vector<std::string> lines =
        readLines(flags.get("--requests", ""));
    service::ServiceConfig cfg;
    cfg.jobs = static_cast<int>(flags.num("--jobs", 0));
    const bool traced = !flags.get("--spans", "").empty();
    service::Service svc(cfg);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const service::ParsedLine parsed =
            service::parseRequestLine(lines[i]);
        const std::string id = parsed.ok() ? parsed.request->id : "";
        std::string response;
        const auto t0 = Clock::now();
        {
            Scoped span(traced ? &g_spans : nullptr, "handleLine", id, -1);
            response = svc.handleLine(lines[i]);
        }
        const double ms = msSince(t0);
        std::printf("{\"kind\":\"handle\",\"i\":%zu,\"ms\":%.4f,\"ok\":%s,"
                    "\"response_crc\":\"%s\"}\n",
                    i, ms, isOk(response) ? "true" : "false",
                    hex64(crcOf(response)).c_str());
    }
    return 0;
}

/**
 * The canonical report of each distinct check request, computed with
 * runtime::runCampaign + renderReportJson (what `icheck check --json`
 * prints), as "<line index>\t<report>" lines.
 */
int
cmdReports(const Flags &flags)
{
    const std::vector<std::string> lines =
        readLines(flags.get("--requests", ""));
    const int jobs = runtime::resolveJobs(
        static_cast<int>(flags.num("--jobs", 0)));
    const auto pool = makePool(jobs);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const service::ParsedLine parsed =
            service::parseRequestLine(lines[i]);
        if (!parsed.ok()) {
            std::printf("%zu\t\n", i);
            continue;
        }
        const service::CheckRequest &req = parsed.request->check;
        const apps::AppInfo *app = apps::tryFindApp(req.app);
        if (app == nullptr) {
            std::printf("%zu\t\n", i);
            continue;
        }
        check::DriverConfig cfg;
        cfg.runs = req.runs;
        cfg.scheme = req.scheme;
        cfg.baseSchedSeed = req.seed;
        cfg.machine.fpRoundingEnabled = req.rounding;
        if (req.cores > 0)
            cfg.machine.numCores = static_cast<CoreId>(req.cores);
        if (req.ignores)
            cfg.ignores = app->ignores;
        runtime::CampaignOptions options;
        options.jobs = 1;
        options.pool = pool.get();
        const check::DriverReport report = runtime::runCampaign(
            cfg, apps::scaledFactory(app->name, scaleOf(req.input)),
            options);
        std::printf("%zu\t%s\n", i, check::renderReportJson(report).c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_probe ready|campaign|explore|"
                             "layers|service|reports [flags]\n");
        return 2;
    }
    Flags flags;
    for (int i = 2; i < argc; ++i)
        flags.tokens.emplace_back(argv[i]);
    const std::string command = argv[1];
    int rc = 2;
    try {
        if (command == "ready")
            rc = cmdReady(flags);
        else if (command == "campaign")
            rc = cmdCampaign(flags);
        else if (command == "explore")
            rc = cmdExplore(flags);
        else if (command == "layers")
            rc = cmdLayers(flags);
        else if (command == "service")
            rc = cmdService(flags);
        else if (command == "reports")
            rc = cmdReports(flags);
        else
            std::fprintf(stderr, "perfbench_probe: unknown command '%s'\n",
                         command.c_str());
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench_probe: %s\n", error.what());
        return 3;
    }
    g_spans.write(flags.get("--spans", ""));
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::printf("{\"kind\":\"rss\",\"peak_kb\":%ld}\n", usage.ru_maxrss);
    return rc;
}
