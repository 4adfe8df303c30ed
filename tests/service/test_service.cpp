/**
 * @file
 * End-to-end contract of the campaign service: daemon responses embed
 * report bytes identical to one-shot `icheck check --json` for any
 * worker/dispatcher count; request ids are idempotent; identical work
 * under different ids deduplicates through the shared seen-state set; a
 * restarted daemon resumes from its store without re-running completed
 * units; the serve loop applies explicit backpressure and drains
 * gracefully.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_registry.hpp"
#include "apps/scales.hpp"
#include "check/report_json.hpp"
#include "runtime/parallel_driver.hpp"
#include "service/daemon.hpp"
#include "service/executor.hpp"
#include "service/json.hpp"
#include "service/record_codec.hpp"
#include "service/serve_loop.hpp"

namespace icheck::service
{
namespace
{

/** The canonical report line for @p app/@p runs/@p seed at dev scale. */
std::string
oneShotReport(const std::string &app_name, int runs, std::uint64_t seed)
{
    const apps::AppInfo &app = apps::findApp(app_name);
    check::DriverConfig cfg;
    cfg.runs = runs;
    cfg.baseSchedSeed = seed;
    cfg.ignores = app.ignores;
    runtime::CampaignOptions options;
    options.jobs = 1;
    const check::DriverReport report = runtime::runCampaign(
        cfg, apps::scaledFactory(app_name, apps::InputScale::Dev),
        options);
    return check::renderReportJson(report);
}

std::string
checkLine(const std::string &id, const std::string &app, int runs,
          std::uint64_t seed)
{
    return "{\"id\":\"" + id + "\",\"op\":\"check\",\"app\":\"" + app +
           "\",\"runs\":" + std::to_string(runs) +
           ",\"seed\":" + std::to_string(seed) + ",\"input\":\"dev\"}";
}

/** Extract the embedded "report":{...} object (the final member). */
std::string
embeddedReport(const std::string &response)
{
    const std::string needle = "\"report\":";
    const std::size_t pos = response.find(needle);
    if (pos == std::string::npos || response.empty() ||
        response.back() != '}')
        return {};
    return response.substr(pos + needle.size(),
                           response.size() - 1 - (pos + needle.size()));
}

/** A service whose store file lives in the temp dir for one test. */
std::string
tempStorePath(const char *tag)
{
    const auto path = std::filesystem::temp_directory_path() /
                      (std::string("icheck_service_") + tag + ".icr");
    std::filesystem::remove(path);
    return path.string();
}

TEST(Service, ReportBytesMatchOneShotAtEveryWorkerCount)
{
    const std::string expected = oneShotReport("radix", 6, 1000);
    for (const int jobs : {1, 2, 4}) {
        ServiceConfig cfg;
        cfg.jobs = jobs;
        Service service(cfg);
        const std::string response = service.handleLine(
            checkLine("r", "radix", 6, 1000));
        EXPECT_EQ(embeddedReport(response), expected)
            << "jobs=" << jobs;
        EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
        EXPECT_NE(response.find("\"verdict\":\"deterministic\""),
                  std::string::npos);
    }
}

TEST(Service, NondeterministicAppGetsNondeterministicVerdict)
{
    ServiceConfig cfg;
    cfg.jobs = 1;
    Service service(cfg);
    // ocean without FP rounding is bitwise nondeterministic.
    const std::string response = service.handleLine(
        "{\"id\":\"n\",\"op\":\"check\",\"app\":\"ocean\",\"runs\":4,"
        "\"input\":\"dev\",\"rounding\":false,\"ignores\":false}");
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(response.find("\"verdict\":\"nondeterministic\""),
              std::string::npos)
        << response;
}

TEST(Service, RequestIdsAreIdempotent)
{
    ServiceConfig cfg;
    cfg.jobs = 1;
    Service service(cfg);
    const std::string line = checkLine("same-id", "radix", 4, 1000);
    const std::string first = service.handleLine(line);
    const std::string second = service.handleLine(line);
    EXPECT_EQ(first, second); // Byte-identical replay.
    const ServiceSnapshot snap = service.snapshot();
    EXPECT_EQ(snap.responsesCached, 1u);

    // The same id with different work is a client error, not a replay.
    const std::string conflict = service.handleLine(
        checkLine("same-id", "radix", 4, 2000));
    EXPECT_NE(conflict.find("\"status\":\"error\""), std::string::npos);
    EXPECT_NE(conflict.find("already used"), std::string::npos);
}

TEST(Service, IdenticalWorkUnderDifferentIdsDeduplicates)
{
    ServiceConfig cfg;
    cfg.jobs = 1;
    Service service(cfg);
    const std::string first =
        service.handleLine(checkLine("id-a", "radix", 4, 1000));
    const std::string second =
        service.handleLine(checkLine("id-b", "radix", 4, 1000));
    EXPECT_EQ(embeddedReport(first), embeddedReport(second));
    EXPECT_NE(second.find("\"unitsReused\":4"), std::string::npos)
        << second;
    EXPECT_NE(second.find("\"logReused\":true"), std::string::npos);
    const ServiceSnapshot snap = service.snapshot();
    EXPECT_EQ(snap.unitsExecuted, 4u);
    EXPECT_EQ(snap.unitsReused, 4u);
    EXPECT_DOUBLE_EQ(snap.dedupHitRate(), 0.5);
}

TEST(Service, CampaignsShareUnitsAcrossRunCounts)
{
    // A longer campaign over the same canonical config reuses every
    // unit of the shorter one and still matches the one-shot bytes.
    ServiceConfig cfg;
    cfg.jobs = 2;
    Service service(cfg);
    service.handleLine(checkLine("short", "radix", 4, 1000));
    const std::string longer =
        service.handleLine(checkLine("long", "radix", 8, 1000));
    EXPECT_NE(longer.find("\"unitsReused\":4"), std::string::npos)
        << longer;
    EXPECT_NE(longer.find("\"unitsExecuted\":4"), std::string::npos);
    EXPECT_EQ(embeddedReport(longer), oneShotReport("radix", 8, 1000));
}

TEST(Service, ExtendOverStoredEmptyLogExecutesOnlyNewRuns)
{
    // fft never calls malloc, so its stored log is empty but complete:
    // extending 8 runs to 16 executes runs 8..15 and never re-records
    // run 0. Every executed run puts its unit, so the store's put
    // counters (a re-put unit counts as a duplicate) give the runs that
    // actually executed; the response and stats must report the same.
    ServiceConfig cfg;
    cfg.jobs = 2;
    Service service(cfg);
    service.handleLine(checkLine("head", "fft", 8, 1000));
    const ServiceSnapshot before = service.snapshot();

    const std::string extended =
        service.handleLine(checkLine("extend", "fft", 16, 1000));
    const ServiceSnapshot after = service.snapshot();
    EXPECT_NE(extended.find("\"unitsExecuted\":8,"), std::string::npos)
        << extended;
    EXPECT_NE(extended.find("\"unitsReused\":8,"), std::string::npos);
    EXPECT_NE(extended.find("\"logReused\":true"), std::string::npos);
    EXPECT_EQ(embeddedReport(extended), oneShotReport("fft", 16, 1000));

    // Units 8..15 plus the response; no unit put twice.
    EXPECT_EQ(after.store.puts - before.store.puts, 9u);
    EXPECT_EQ(after.store.putDuplicates, before.store.putDuplicates);
    EXPECT_EQ(after.unitsExecuted - before.unitsExecuted, 8u);
}

TEST(Service, RestartResumesFromStoreWithoutReExecuting)
{
    const std::string store_path = tempStorePath("resume");
    const std::string expected = oneShotReport("fft", 5, 1234);
    {
        ServiceConfig cfg;
        cfg.jobs = 1;
        cfg.storePath = store_path;
        Service before(cfg);
        const std::string response =
            before.handleLine(checkLine("first", "fft", 5, 1234));
        EXPECT_EQ(embeddedReport(response), expected);
    }
    {
        // New process, same store: the id replays from disk, and new
        // ids over the same work run zero units.
        ServiceConfig cfg;
        cfg.jobs = 1;
        cfg.storePath = store_path;
        Service after(cfg);
        const std::string replay =
            after.handleLine(checkLine("first", "fft", 5, 1234));
        EXPECT_EQ(embeddedReport(replay), expected);
        EXPECT_EQ(after.snapshot().responsesCached, 1u);

        const std::string fresh_id =
            after.handleLine(checkLine("second", "fft", 5, 1234));
        EXPECT_EQ(embeddedReport(fresh_id), expected);
        EXPECT_NE(fresh_id.find("\"unitsExecuted\":0"),
                  std::string::npos)
            << fresh_id;
        EXPECT_NE(fresh_id.find("\"unitsReused\":5"), std::string::npos);
    }
    std::filesystem::remove(store_path);
}

TEST(Service, PartialStoreResumesOnlyMissingUnits)
{
    // Simulate a daemon killed mid-campaign: the store holds the log
    // and a prefix of the units. The executor must execute exactly the
    // missing runs and still produce the canonical bytes.
    ResultStore store;
    CampaignExecutor seed_executor(store, nullptr);
    Request request;
    request.id = "seed";
    request.op = RequestOp::Check;
    request.check.app = "radix";
    request.check.runs = 6;
    request.check.input = "dev";
    const ExecutionOutcome full = seed_executor.execute(request);
    ASSERT_TRUE(full.ok);

    // Rebuild a second store holding only units 0..2 plus the log.
    const std::string canonical = canonicalKey(request.check);
    ResultStore partial;
    for (int run = 0; run < 3; ++run)
        partial.put(unitKey(canonical, run),
                    store.get(unitKey(canonical, run)).value());
    partial.put(logKey(canonical), store.get(logKey(canonical)).value());

    CampaignExecutor resumed(partial, nullptr);
    request.id = "resumed";
    const ExecutionOutcome outcome = resumed.execute(request);
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.unitsReused, 3);
    EXPECT_EQ(outcome.unitsExecuted, 3);
    EXPECT_TRUE(outcome.logReused);
    EXPECT_EQ(embeddedReport(outcome.response),
              embeddedReport(full.response));
}

TEST(Service, CachedRunZeroWithoutLogMustReRecord)
{
    // Units without the replay log: run 0 must re-execute in record
    // mode (replay runs need the log), so it cannot count as reused.
    ResultStore store;
    CampaignExecutor seed_executor(store, nullptr);
    Request request;
    request.id = "seed";
    request.op = RequestOp::Check;
    request.check.app = "radix";
    request.check.runs = 4;
    request.check.input = "dev";
    const ExecutionOutcome full = seed_executor.execute(request);
    ASSERT_TRUE(full.ok);

    const std::string canonical = canonicalKey(request.check);
    ResultStore no_log;
    no_log.put(unitKey(canonical, 0),
               store.get(unitKey(canonical, 0)).value());
    no_log.put(unitKey(canonical, 1),
               store.get(unitKey(canonical, 1)).value());

    CampaignExecutor resumed(no_log, nullptr);
    request.id = "resumed";
    const ExecutionOutcome outcome = resumed.execute(request);
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.unitsReused, 1); // Only run 1 survives.
    EXPECT_EQ(outcome.unitsExecuted, 3);
    EXPECT_FALSE(outcome.logReused);
    EXPECT_EQ(embeddedReport(outcome.response),
              embeddedReport(full.response));
}

TEST(Service, UnknownAppIsARequestErrorNotACrash)
{
    Service service(ServiceConfig{});
    const std::string response =
        service.handleLine(checkLine("x", "no-such-app", 4, 1));
    EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos);
    EXPECT_NE(response.find("unknown app"), std::string::npos);
    EXPECT_EQ(service.snapshot().checkErrors, 1u);
}

TEST(Service, MalformedLinesCountAsProtocolErrors)
{
    Service service(ServiceConfig{});
    const std::string response = service.handleLine("not json at all");
    EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos);
    EXPECT_EQ(service.snapshot().protocolErrors, 1u);
}

TEST(Service, PingStatsAndDrain)
{
    ServiceConfig cfg;
    cfg.jobs = 1;
    Service service(cfg);
    EXPECT_EQ(service.handleLine("{\"id\":\"p\",\"op\":\"ping\"}"),
              "{\"id\":\"p\",\"status\":\"ok\",\"pong\":true}");

    service.handleLine(checkLine("c", "radix", 4, 1000));
    const std::string stats_response =
        service.handleLine("{\"id\":\"s\",\"op\":\"stats\"}");
    const auto parsed = parseJson(stats_response);
    ASSERT_TRUE(parsed.has_value()) << stats_response;
    const JsonValue *stats = parsed->find("stats");
    ASSERT_NE(stats, nullptr);
    for (const char *key :
         {"requestsCompleted", "checksCompleted", "protocolErrors",
          "checkErrors", "busyRejected", "drainRejected",
          "responsesCached", "unitsExecuted", "unitsReused",
          "dedupHitRate", "queueDepth", "inFlight", "uptimeSeconds",
          "requestsPerSec", "storeKeys", "storeFramesLoaded",
          "storeBytesDropped"})
        EXPECT_NE(stats->find(key), nullptr) << key;
    EXPECT_EQ(*stats->find("checksCompleted")->asU64(), 1u);

    EXPECT_FALSE(service.drainRequested());
    const std::string drain_response =
        service.handleLine("{\"id\":\"d\",\"op\":\"drain\"}");
    EXPECT_NE(drain_response.find("\"draining\":true"),
              std::string::npos);
    EXPECT_TRUE(service.drainRequested());
}

TEST(ServeLoop, AppliesBackpressureWhenTheQueueIsFull)
{
    Service service(ServiceConfig{});
    ServeLoop loop(service, /*queue_depth=*/1, /*dispatchers=*/1);

    // Occupy the single dispatcher: its respond callback blocks until
    // released, so the next submit queues and the one after bounces.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> entered;
    loop.submit("{\"id\":\"blocker\",\"op\":\"ping\"}",
                [&entered, released](const std::string &) {
                    entered.set_value();
                    released.wait();
                });
    entered.get_future().wait();

    std::string queued_response;
    std::mutex mu;
    std::condition_variable cv;
    bool queued_done = false;
    loop.submit("{\"id\":\"queued\",\"op\":\"ping\"}",
                [&](const std::string &response) {
                    std::lock_guard<std::mutex> lock(mu);
                    queued_response = response;
                    queued_done = true;
                    cv.notify_all();
                });

    std::string bounced;
    loop.submit("{\"id\":\"bounced\",\"op\":\"ping\"}",
                [&bounced](const std::string &response) {
                    bounced = response; // Called inline.
                });
    EXPECT_NE(bounced.find("\"status\":\"busy\""), std::string::npos)
        << bounced;
    EXPECT_NE(bounced.find("\"id\":\"bounced\""), std::string::npos);
    EXPECT_EQ(service.snapshot().busyRejected, 1u);

    release.set_value();
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return queued_done; });
    }
    EXPECT_NE(queued_response.find("\"pong\":true"), std::string::npos);
    loop.shutdown();
}

TEST(ServeLoop, RejectsLateLinesWhileDraining)
{
    Service service(ServiceConfig{});
    ServeLoop loop(service, 8, 1);
    loop.beginDrain();
    std::string response;
    loop.submit("{\"id\":\"late\",\"op\":\"ping\"}",
                [&response](const std::string &r) { response = r; });
    EXPECT_NE(response.find("\"status\":\"draining\""),
              std::string::npos);
    EXPECT_NE(response.find("\"id\":\"late\""), std::string::npos);
    EXPECT_EQ(service.snapshot().drainRejected, 1u);
    loop.shutdown();
}

TEST(ServePipe, AnswersEveryLineAndDrainsAtEof)
{
    ServiceConfig cfg;
    cfg.jobs = 1;
    Service service(cfg);
    std::istringstream in(
        "{\"id\":\"p\",\"op\":\"ping\"}\n"
        "\n" // Blank lines are skipped, not errors.
        "garbage\n" +
        checkLine("c", "radix", 4, 1000) + "\n");
    std::ostringstream out;
    EXPECT_EQ(servePipe(service, in, out), 0);

    std::vector<std::string> lines;
    std::istringstream reader(out.str());
    for (std::string line; std::getline(reader, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u) << out.str();
    // Dispatch is concurrent, so order isn't guaranteed; match by id.
    int pongs = 0;
    int errors = 0;
    int oks = 0;
    for (const std::string &line : lines) {
        if (line.find("\"pong\":true") != std::string::npos)
            ++pongs;
        else if (line.find("\"status\":\"error\"") != std::string::npos)
            ++errors;
        else if (line.find("\"verdict\":") != std::string::npos)
            ++oks;
    }
    EXPECT_EQ(pongs, 1);
    EXPECT_EQ(errors, 1);
    EXPECT_EQ(oks, 1);
}

TEST(ServePipe, DrainRequestStopsIntake)
{
    ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.dispatchers = 1; // FIFO, so the drain lands before the check.
    Service service(cfg);
    std::istringstream in("{\"id\":\"d\",\"op\":\"drain\"}\n" +
                          checkLine("after", "radix", 4, 1000) + "\n");
    std::ostringstream out;
    EXPECT_EQ(servePipe(service, in, out), 0);
    EXPECT_NE(out.str().find("\"draining\":true"), std::string::npos);
    // The line after the drain was never executed as a campaign
    // (either intake stopped before reading it, or it was refused).
    EXPECT_EQ(service.snapshot().checksCompleted, 0u);
}

} // namespace
} // namespace icheck::service
