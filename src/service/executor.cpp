#include "service/executor.hpp"

#include <exception>
#include <optional>
#include <vector>

#include "apps/app_registry.hpp"
#include "apps/scales.hpp"
#include "check/report_json.hpp"
#include "runtime/parallel_driver.hpp"
#include "service/record_codec.hpp"
#include "support/json_escape.hpp"

namespace icheck::service
{

namespace
{

apps::InputScale
scaleOf(const std::string &input)
{
    if (input == "dev")
        return apps::InputScale::Dev;
    if (input == "large")
        return apps::InputScale::Large;
    return apps::InputScale::Medium;
}

ExecutionOutcome
errorOutcome(const std::string &id, const std::string &message)
{
    ExecutionOutcome outcome;
    outcome.response = renderErrorResponse(id, message);
    return outcome;
}

std::string
renderOkResponse(const std::string &id, const check::DriverReport &report,
                 int units_executed, int units_reused, bool log_reused)
{
    std::string body = "{\"id\":\"" + jsonEscapeText(id) +
                       "\",\"status\":\"ok\",\"verdict\":\"";
    body += report.deterministic() ? "deterministic" : "nondeterministic";
    body += "\",\"unitsExecuted\":" + std::to_string(units_executed);
    body += ",\"unitsReused\":" + std::to_string(units_reused);
    body += ",\"logReused\":";
    body += log_reused ? "true" : "false";
    body += ",\"report\":";
    body += check::renderReportJson(report);
    body += "}";
    return body;
}

} // namespace

ExecutionOutcome
CampaignExecutor::execute(const Request &request)
{
    const CheckRequest &check_request = request.check;
    const std::string canonical = canonicalKey(check_request);

    // Idempotent replay: a request id that already ran returns its
    // stored response bytes verbatim — unless the id is being reused
    // for different work, which is a client error.
    if (const auto stored = store.get(responseKey(request.id))) {
        const std::size_t sep = stored->find('\n');
        if (sep == std::string::npos ||
            stored->substr(0, sep) != canonical)
            return errorOutcome(request.id,
                                "id '" + request.id +
                                    "' was already used for a different "
                                    "request");
        ExecutionOutcome outcome;
        outcome.response = stored->substr(sep + 1);
        outcome.ok = true;
        outcome.cachedResponse = true;
        outcome.unitsReused = check_request.runs;
        return outcome;
    }

    const apps::AppInfo *app = apps::tryFindApp(check_request.app);
    if (app == nullptr)
        return errorOutcome(request.id,
                            "unknown app '" + check_request.app + "'");

    check::DriverConfig cfg;
    cfg.runs = check_request.runs;
    cfg.scheme = check_request.scheme;
    cfg.baseSchedSeed = check_request.seed;
    cfg.machine.fpRoundingEnabled = check_request.rounding;
    if (check_request.cores > 0)
        cfg.machine.numCores =
            static_cast<CoreId>(check_request.cores);
    if (check_request.ignores)
        cfg.ignores = app->ignores;

    // Shard the campaign into per-run units and pull every unit the
    // seen-state set already holds.
    std::vector<std::optional<check::RunRecord>> cached(
        static_cast<std::size_t>(cfg.runs));
    std::vector<const check::RunRecord *> precomputed(
        static_cast<std::size_t>(cfg.runs), nullptr);
    int units_reused = 0;
    for (int run = 0; run < cfg.runs; ++run) {
        const auto payload = store.get(unitKey(canonical, run));
        if (!payload.has_value())
            continue;
        auto record = decodeRunRecord(*payload);
        if (!record.has_value())
            continue; // Version skew: recompute this unit.
        const auto index = static_cast<std::size_t>(run);
        cached[index] = std::move(*record);
        precomputed[index] = &*cached[index];
        ++units_reused;
    }

    mem::ReplayLog replay_log;
    bool log_reused = false;
    if (const auto log_payload = store.get(logKey(canonical))) {
        mem::ReplayLog decoded;
        if (decodeReplayLog(*log_payload, decoded)) {
            replay_log = std::move(decoded);
            log_reused = true;
        }
    }

    // A decoded log is sealed, so runs replay it even when it is empty.
    // Without one (absent, or undecodable after a version skew), replay
    // runs can't execute, so a cached run 0 must re-record whenever any
    // later unit is missing (it stops counting as reused).
    const bool any_missing = units_reused < cfg.runs;
    if (!log_reused && any_missing && precomputed[0] != nullptr) {
        precomputed[0] = nullptr;
        cached[0].reset();
        --units_reused;
    }

    runtime::CampaignOptions options;
    options.pool = pool;
    options.jobs = pool != nullptr ? 0 : 1;
    options.precomputed = &precomputed;
    options.replayLog = &replay_log;
    options.appName = app->name;
    options.onRunComplete = [&](int run, const check::RunRecord &record) {
        store.put(unitKey(canonical, run), encodeRunRecord(record));
        // Run 0 owns the replay log and has sealed it by now; persist it
        // alongside so a resumed campaign can skip the record run.
        if (run == 0 && !log_reused)
            store.put(logKey(canonical), encodeReplayLog(replay_log));
    };

    check::DriverReport report;
    try {
        report = runtime::runCampaign(
            cfg, apps::scaledFactory(app->name, scaleOf(check_request.input)),
            options);
    } catch (const std::exception &error) {
        return errorOutcome(request.id,
                            std::string("campaign failed: ") +
                                error.what());
    }

    ExecutionOutcome outcome;
    outcome.ok = true;
    outcome.deterministic = report.deterministic();
    outcome.unitsReused = units_reused;
    outcome.unitsExecuted = cfg.runs - units_reused;
    outcome.logReused = log_reused;
    outcome.response =
        renderOkResponse(request.id, report, outcome.unitsExecuted,
                         outcome.unitsReused, log_reused);
    store.put(responseKey(request.id), canonical + '\n' + outcome.response);
    return outcome;
}

} // namespace icheck::service
