#include "service/line_socket.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/protocol.hpp"
#include "support/exit_codes.hpp"
#include "support/logging.hpp"

namespace icheck::service
{

namespace
{

/** How often the accept loop polls @p stop. */
constexpr int pollIntervalMs = 200;

/** Fill @p addr for @p path; false when it does not fit `sun_path`. */
bool
unixAddress(const std::string &path, sockaddr_un &addr)
{
    if (path.size() >= sizeof addr.sun_path)
        return false;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

/**
 * accept() errors that leave the listener sound: the fd table or
 * kernel memory is full (freed when clients hang up), or a queued
 * client left before it was accepted.
 */
bool
acceptCanRecover(int error)
{
    return error == EMFILE || error == ENFILE || error == ENOBUFS ||
           error == ENOMEM || error == ECONNABORTED;
}

/**
 * One accepted client. Shared-owned: responses can be written from
 * other threads after the reader exits (queued daemon jobs, router
 * waiters), so each Respond holds a shared_ptr and the fd stays open
 * until the last one is dropped.
 */
struct Connection : public std::enable_shared_from_this<Connection>
{
    explicit Connection(int client_fd) : fd(client_fd) {}
    ~Connection() { ::close(fd); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    const int fd;
    std::mutex writeMu;            ///< One sendLine at a time on fd.
    std::atomic<bool> done{false}; ///< Reader exited; safe to reap.
    std::thread reader;
};

void
readConnection(Connection &connection, std::size_t max_line,
               const LineHandler &on_line)
{
    const Respond respond = [self = connection.shared_from_this()](
                                const std::string &response) {
        std::lock_guard<std::mutex> lock(self->writeMu);
        sendLine(self->fd, response);
    };
    LineReader reader(connection.fd, max_line);
    std::string line;
    while (reader.next(line))
        on_line(std::move(line), respond);
    if (reader.end() == LineReader::End::Oversize)
        respond(renderErrorResponse(
            {}, "oversized request line; closing connection"));
}

/** Join and drop the connections whose reader has exited. */
void
reapFinished(std::vector<std::shared_ptr<Connection>> &connections)
{
    for (auto it = connections.begin(); it != connections.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
            (*it)->reader.join();
            it = connections.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace

int
listenUnix(const std::string &path, const char *who, int &listener)
{
    sockaddr_un addr{};
    if (!unixAddress(path, addr)) {
        warn(who, ": socket path too long: ", path);
        return ExitUsage;
    }
    listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        warn(who, ": socket() failed: ", std::strerror(errno));
        return ExitInternal;
    }
    ::unlink(path.c_str());
    if (::bind(listener, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listener, 64) != 0) {
        warn(who, ": cannot bind/listen on '", path,
             "': ", std::strerror(errno));
        ::close(listener);
        listener = -1;
        return ExitInternal;
    }
    return ExitOk;
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (!unixAddress(path, addr)) {
        errno = ENAMETOOLONG;
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const int error = errno;
        ::close(fd);
        errno = error;
        return -1;
    }
    return fd;
}

bool
sendLine(int fd, const std::string &line)
{
    std::string framed;
    framed.reserve(line.size() + 1);
    framed += line;
    framed += '\n';
    std::size_t written = 0;
    while (written < framed.size()) {
        // MSG_NOSIGNAL: a peer that went away mid-write must surface as
        // EPIPE here, not as a SIGPIPE that kills the whole process.
        const ssize_t n = ::send(fd, framed.data() + written,
                                 framed.size() - written, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

LineReader::LineReader(int fd, std::size_t max_line)
    : fd(fd), maxLine(max_line)
{
}

bool
LineReader::next(std::string &line)
{
    while (ended == End::Open) {
        const std::size_t newline = buffer.find('\n', scanned);
        if (newline != std::string::npos) {
            line.assign(buffer, start, newline - start);
            start = newline + 1;
            scanned = start;
            if (!line.empty())
                return true;
            continue;
        }
        if (maxLine != 0 && buffer.size() - start > maxLine) {
            ended = End::Oversize;
            break;
        }
        // All buffered bytes are scanned; keep only the partial line.
        buffer.erase(0, start);
        start = 0;
        scanned = buffer.size();
        char chunk[16 * 1024];
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            ended = n == 0 ? End::Eof : End::Error;
        else
            buffer.append(chunk, static_cast<std::size_t>(n));
    }
    return false;
}

int
serveLines(const std::string &path, const char *who, std::size_t max_line,
           const LineHandler &on_line, const std::function<bool()> &stop,
           const std::function<void()> &before_hangup)
{
    int listener = -1;
    const int listened = listenUnix(path, who, listener);
    if (listened != ExitOk)
        return listened;
    inform(who, ": listening on unix socket ", path);

    std::vector<std::shared_ptr<Connection>> connections;
    bool accept_failing = false;
    while (!stop()) {
        // Reap as we go: a long-lived server must not accumulate one
        // dead thread + socket per client that came and went.
        reapFinished(connections);
        pollfd pfd{listener, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, pollIntervalMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn(who, ": poll failed: ", std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (!acceptCanRecover(errno)) {
                warn(who, ": accept failed: ", std::strerror(errno));
                break;
            }
            // The client stays queued and the listener readable, so
            // wait a poll interval (reaping may free fds) rather than
            // spin; warn once per run of failures.
            if (!accept_failing)
                warn(who, ": accept failed: ", std::strerror(errno),
                     "; still serving");
            accept_failing = true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(pollIntervalMs));
            continue;
        }
        accept_failing = false;
        auto connection = std::make_shared<Connection>(fd);
        Connection *raw = connection.get();
        connection->reader = std::thread([raw, max_line, &on_line] {
            readConnection(*raw, max_line, on_line);
            raw->done.store(true, std::memory_order_release);
        });
        connections.push_back(std::move(connection));
    }

    ::close(listener);
    if (before_hangup)
        before_hangup();
    for (const auto &connection : connections)
        ::shutdown(connection->fd, SHUT_RDWR);
    for (const auto &connection : connections)
        connection->reader.join();
    // Each fd closes once its last outstanding Respond is dropped.
    connections.clear();
    ::unlink(path.c_str());
    return ExitOk;
}

} // namespace icheck::service
