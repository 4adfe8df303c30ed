#ifndef ICHECK_SERVICE_DAEMON_HPP
#define ICHECK_SERVICE_DAEMON_HPP

/**
 * @file
 * The long-running campaign-checking service behind `icheck serve`.
 *
 * A Service owns the shared execution substrate — one work-stealing
 * pool, one result store (persistent if --store was given), one
 * executor — and turns request lines into response lines. Transport
 * (stdin pipe, Unix socket), queueing, and backpressure live in
 * serve_loop.*; the Service itself is synchronous and safe to call from
 * multiple dispatcher threads, which is also what makes it directly
 * testable without any I/O.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "runtime/thread_pool.hpp"
#include "service/executor.hpp"
#include "service/result_store.hpp"

namespace icheck::service
{

/** Daemon configuration (CLI flags map 1:1 onto these). */
struct ServiceConfig
{
    /**
     * Pool workers shared by all campaigns; 0 = hardware concurrency.
     * Each dispatcher runs its own campaign's runs beside them.
     */
    int jobs = 0;

    /** Concurrent request dispatchers (campaigns in flight). */
    int dispatchers = 2;

    /** Bound on queued requests before busy replies (backpressure). */
    std::size_t queueDepth = 64;

    /** Bound on one request line's size. */
    std::size_t maxLineBytes = 64 * 1024;

    /** Result store file; empty = in-memory only (no resume). */
    std::string storePath;
};

/** Point-in-time counters for the stats response. */
struct ServiceSnapshot
{
    std::uint64_t requestsCompleted = 0;
    std::uint64_t checksCompleted = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t checkErrors = 0;
    std::uint64_t busyRejected = 0;
    std::uint64_t drainRejected = 0;
    std::uint64_t responsesCached = 0;
    std::uint64_t unitsExecuted = 0;
    std::uint64_t unitsReused = 0;
    std::size_t queueDepth = 0;
    std::size_t inFlight = 0;
    double uptimeSeconds = 0.0;
    double requestsPerSec = 0.0;
    std::size_t storeKeys = 0;
    std::uint64_t storeBytes = 0;      ///< Append-only log length.
    std::uint64_t framesInstalled = 0; ///< Frames ingested via install.
    StoreStats store; ///< store.puts = frames appended since start.

    /** Units served from the seen-set / all units touched; 0..1. */
    double dedupHitRate() const;
};

class Service
{
  public:
    /** Throws StoreError if cfg.storePath exists but is unusable. */
    explicit Service(ServiceConfig cfg);

    /**
     * Handle one request line and return the response line (no
     * trailing newline). Thread-safe; called by dispatchers and tests.
     */
    std::string handleLine(const std::string &line);

    /** True once an op:"drain" request was accepted. */
    bool
    drainRequested() const
    {
        return drainFlag.load(std::memory_order_acquire);
    }

    /** Counted when the serve loop rejects a line with "busy". */
    void noteBusyRejected();

    /** Counted when a line arrives after drain began. */
    void noteDrainRejected();

    /**
     * Install the serve loop's live queue probe (returns {queued,
     * in-flight}) so stats responses can report transport depth. The
     * loop must uninstall it (pass {}) before it dies: the Service
     * outlives any one transport session.
     */
    void setQueueProbe(std::function<std::pair<std::size_t,
                                               std::size_t>()> probe);

    ServiceSnapshot snapshot() const;
    ResultStore &resultStore() { return *store; }
    const ServiceConfig &config() const { return cfg; }

  private:
    std::string handleCheck(const Request &request);
    std::string handlePull(const Request &request);
    std::string handleInstall(const Request &request);
    std::string renderStatsResponse(const std::string &id) const;

    ServiceConfig cfg;
    std::unique_ptr<ResultStore> store;
    std::unique_ptr<runtime::ThreadPool> pool;
    std::unique_ptr<CampaignExecutor> executor;

    std::atomic<bool> drainFlag{false};

    std::atomic<std::uint64_t> requestsCompleted{0};
    std::atomic<std::uint64_t> checksCompleted{0};
    std::atomic<std::uint64_t> protocolErrors{0};
    std::atomic<std::uint64_t> checkErrors{0};
    std::atomic<std::uint64_t> busyRejected{0};
    std::atomic<std::uint64_t> drainRejected{0};
    std::atomic<std::uint64_t> responsesCached{0};
    std::atomic<std::uint64_t> unitsExecuted{0};
    std::atomic<std::uint64_t> unitsReused{0};
    std::atomic<std::uint64_t> framesInstalled{0};

    mutable std::mutex probeMu;
    std::function<std::pair<std::size_t, std::size_t>()> queueProbe;
    std::chrono::steady_clock::time_point startTime;
};

} // namespace icheck::service

#endif // ICHECK_SERVICE_DAEMON_HPP
