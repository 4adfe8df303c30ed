#include "service/serve_loop.hpp"

#include "service/line_socket.hpp"
#include "service/protocol.hpp"
#include "support/exit_codes.hpp"

namespace icheck::service
{

ServeLoop::ServeLoop(Service &service, std::size_t queue_depth,
                     int dispatchers_wanted)
    : service(service), queueDepth(queue_depth == 0 ? 1 : queue_depth)
{
    service.setQueueProbe([this] { return depths(); });
    const int team = dispatchers_wanted < 1 ? 1 : dispatchers_wanted;
    dispatchers.reserve(static_cast<std::size_t>(team));
    for (int i = 0; i < team; ++i)
        dispatchers.emplace_back([this] { dispatcherLoop(); });
}

ServeLoop::~ServeLoop()
{
    shutdown();
    // The Service outlives this transport session; a stats request on a
    // later session must not probe a dead loop.
    service.setQueueProbe({});
}

void
ServeLoop::submit(std::string line, Respond respond)
{
    // The rejection paths answer inline on the reader thread: the whole
    // point of the bound is that a full daemon says so *now* instead of
    // buffering without limit.
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!draining && queue.size() < queueDepth) {
            queue.push_back(Job{std::move(line), std::move(respond)});
            workReady.notify_one();
            return;
        }
    }
    const ParsedLine parsed = parseRequestLine(line);
    const std::string id = parsed.ok() ? parsed.request->id : parsed.id;
    bool was_draining;
    {
        std::lock_guard<std::mutex> lock(mu);
        was_draining = draining;
    }
    if (was_draining) {
        service.noteDrainRejected();
        respond(renderDrainingResponse(id));
    } else {
        service.noteBusyRejected();
        respond(renderBusyResponse(id, queueDepth));
    }
}

void
ServeLoop::beginDrain()
{
    std::lock_guard<std::mutex> lock(mu);
    draining = true;
    workReady.notify_all();
}

void
ServeLoop::awaitIdle()
{
    std::unique_lock<std::mutex> lock(mu);
    idle.wait(lock, [this] { return queue.empty() && inFlight == 0; });
}

void
ServeLoop::shutdown()
{
    beginDrain();
    awaitIdle();
    {
        std::lock_guard<std::mutex> lock(mu);
        if (stopped)
            return;
        stopped = true;
        workReady.notify_all();
    }
    for (std::thread &dispatcher : dispatchers)
        dispatcher.join();
}

std::pair<std::size_t, std::size_t>
ServeLoop::depths() const
{
    std::lock_guard<std::mutex> lock(mu);
    return {queue.size(), inFlight};
}

void
ServeLoop::dispatcherLoop()
{
    while (true) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu);
            workReady.wait(lock, [this] {
                return !queue.empty() || draining || stopped;
            });
            if (queue.empty()) {
                if (stopped || draining)
                    return;
                continue;
            }
            job = std::move(queue.front());
            queue.pop_front();
            ++inFlight;
        }
        const std::string response = service.handleLine(job.line);
        job.respond(response);
        {
            std::lock_guard<std::mutex> lock(mu);
            --inFlight;
            if (queue.empty() && inFlight == 0)
                idle.notify_all();
        }
    }
}

int
servePipe(Service &service, std::istream &in, std::ostream &out,
          const volatile std::sig_atomic_t *shutdown_flag)
{
    ServeLoop loop(service, service.config().queueDepth,
                   service.config().dispatchers);
    std::mutex out_mu;
    const ServeLoop::Respond respond = [&out, &out_mu](
                                           const std::string &response) {
        std::lock_guard<std::mutex> lock(out_mu);
        out << response << '\n';
        out.flush();
    };

    std::string line;
    while (!(shutdown_flag != nullptr && *shutdown_flag != 0) &&
           !service.drainRequested() && std::getline(in, line)) {
        if (line.empty())
            continue;
        loop.submit(std::move(line), respond);
        line.clear();
    }
    loop.shutdown();
    return ExitOk;
}

int
serveSocket(Service &service, const std::string &socket_path,
            const volatile std::sig_atomic_t *shutdown_flag)
{
    ServeLoop loop(service, service.config().queueDepth,
                   service.config().dispatchers);
    const int code = serveLines(
        socket_path, "serve", service.config().maxLineBytes,
        [&loop](std::string line, const Respond &respond) {
            loop.submit(std::move(line), respond);
        },
        [&service, shutdown_flag] {
            return (shutdown_flag != nullptr && *shutdown_flag != 0) ||
                   service.drainRequested();
        },
        // Graceful drain: stop intake and let queued campaigns finish
        // (the store keeps every completed unit) and answer before the
        // clients are hung up.
        [&loop] {
            loop.beginDrain();
            loop.awaitIdle();
        });
    loop.shutdown();
    return code;
}

} // namespace icheck::service
