#ifndef ICHECK_SERVICE_EXECUTOR_HPP
#define ICHECK_SERVICE_EXECUTOR_HPP

/**
 * @file
 * Campaign execution on behalf of the daemon.
 *
 * A check request shards into per-run work units (run i of the campaign
 * = one unit, keyed by the request's canonical config + i). Before
 * executing anything the executor consults the result store: units a
 * previous request — or a previous daemon process — already computed
 * are decoded and fed to the runtime as precomputed records, the
 * campaign's replay log is restored the same way (a stored log is
 * sealed, so even an empty one spares the record run), and only the
 * missing units execute, on the dispatcher thread and the shared
 * work-stealing pool. Each freshly executed unit persists the moment it
 * completes, so killing the daemon mid-campaign loses at most in-flight
 * runs.
 *
 * The merged verdict goes through check::analyzeCampaign over
 * seed-ordered records and is rendered with check::renderReportJson —
 * the exact functions behind one-shot `icheck check --json` — which is
 * what makes service reports byte-identical to the CLI's for any
 * jobs/shard count.
 */

#include <cstdint>
#include <string>

#include "runtime/thread_pool.hpp"
#include "service/protocol.hpp"
#include "service/result_store.hpp"

namespace icheck::service
{

/** What executing (or short-circuiting) one check request produced. */
struct ExecutionOutcome
{
    /** Complete response line (without trailing newline). */
    std::string response;

    bool ok = false;              ///< status:"ok" (vs "error").
    bool cachedResponse = false;  ///< Replayed via the idempotent id.
    bool deterministic = false;

    int unitsExecuted = 0; ///< Runs simulated by this request.
    int unitsReused = 0;   ///< Runs served from the store/seen-set.
    bool logReused = false;
};

class CampaignExecutor
{
  public:
    /**
     * @param store Shared unit/response store (seen-state set).
     * @param pool  Shared worker pool, whose workers help the calling
     *              thread; null means execute inline.
     */
    CampaignExecutor(ResultStore &store, runtime::ThreadPool *pool)
        : store(store), pool(pool)
    {}

    /** Execute @p request (op must be Check). */
    ExecutionOutcome execute(const Request &request);

  private:
    ResultStore &store;
    runtime::ThreadPool *pool;
};

} // namespace icheck::service

#endif // ICHECK_SERVICE_EXECUTOR_HPP
