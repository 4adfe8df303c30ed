#ifndef ICHECK_SERVICE_SERVE_LOOP_HPP
#define ICHECK_SERVICE_SERVE_LOOP_HPP

/**
 * @file
 * Transports and queueing for the campaign daemon.
 *
 * ServeLoop is the bounded in-flight queue between transports and the
 * Service: readers submit raw lines with a per-line responder, a small
 * dispatcher team drains the queue, and when the bound is hit the
 * submitting reader gets an immediate "busy" reply — explicit
 * backpressure instead of unbounded buffering. Two transports feed it:
 *
 *   servePipe   — JSONL over stdin/stdout (also what tests drive);
 *   serveSocket — JSONL over a Unix-domain stream socket, through the
 *                 shared line transport (service/line_socket.hpp).
 *
 * Both drain gracefully: an op:"drain" request or SIGTERM/SIGINT stops
 * intake, lets queued and in-flight campaigns finish (their units and
 * responses land in the store), answers any late lines with
 * status:"draining", and only then returns.
 */

#include <condition_variable>
#include <cstddef>
#include <csignal>
#include <deque>
#include <functional>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/daemon.hpp"

namespace icheck::service
{

/** Bounded request queue + dispatcher team in front of one Service. */
class ServeLoop
{
  public:
    using Respond = std::function<void(const std::string &response)>;

    ServeLoop(Service &service, std::size_t queue_depth,
              int dispatchers);

    /** Drains and joins (idempotent with an explicit shutdown()). */
    ~ServeLoop();

    /**
     * Enqueue @p line. On a full queue the responder is called inline
     * with a "busy" reply; after drain began, with "draining".
     */
    void submit(std::string line, Respond respond);

    /** Stop accepting; queued work keeps executing. */
    void beginDrain();

    /** Block until the queue is empty and no dispatcher is mid-request. */
    void awaitIdle();

    /** Drain, wait for idle, join dispatchers. */
    void shutdown();

    /** {queued lines, requests executing right now}. */
    std::pair<std::size_t, std::size_t> depths() const;

  private:
    struct Job
    {
        std::string line;
        Respond respond;
    };

    void dispatcherLoop();

    Service &service;
    const std::size_t queueDepth;

    mutable std::mutex mu;
    std::condition_variable workReady;
    std::condition_variable idle;
    std::deque<Job> queue;
    std::size_t inFlight = 0;
    bool draining = false;
    bool stopped = false;

    std::vector<std::thread> dispatchers;
};

/**
 * Serve JSONL over @p in / @p out until EOF, drain, or @p shutdown_flag
 * (a signal-handler flag; may be null). Returns a process exit code.
 */
int servePipe(Service &service, std::istream &in, std::ostream &out,
              const volatile std::sig_atomic_t *shutdown_flag = nullptr);

/**
 * Serve JSONL over a Unix-domain stream socket bound at @p socket_path
 * (an existing file at that path is replaced). Accepts until drain or
 * @p shutdown_flag, then drains and removes the socket file.
 */
int serveSocket(Service &service, const std::string &socket_path,
                const volatile std::sig_atomic_t *shutdown_flag = nullptr);

} // namespace icheck::service

#endif // ICHECK_SERVICE_SERVE_LOOP_HPP
