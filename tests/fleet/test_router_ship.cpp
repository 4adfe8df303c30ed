/**
 * @file
 * Router behavior against a scripted fake backend: the sync-ship
 * hold/witness protocol (a pull already in flight when a response is
 * held predates its frames and must not flush it), the death paths a
 * SIGKILLed backend exercises (writes surface as EPIPE, never a
 * process-fatal SIGPIPE), and fd hygiene when start() fails partway.
 * The fake backend owns the wire verbatim, so each interleaving is
 * forced rather than raced.
 */

#include <chrono>
#include <future>
#include <string>

#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "fleet/fleet_config.hpp"
#include "fleet/router.hpp"
#include "service/line_socket.hpp"
#include "support/exit_codes.hpp"

namespace fleet = icheck::fleet;
namespace service = icheck::service;

namespace
{

/**
 * A hand-driven `icheck serve` stand-in: listens on a Unix socket,
 * accepts the router's single connection, and lets the test read and
 * write protocol lines in an exact order.
 */
class FakeBackend
{
  public:
    explicit FakeBackend(std::string socket_path)
        : path(std::move(socket_path))
    {
    }

    ~FakeBackend()
    {
        closeConn();
        if (listener >= 0)
            ::close(listener);
        ::unlink(path.c_str());
    }

    bool
    listen()
    {
        return service::listenUnix(path, "fake backend", listener) ==
               icheck::ExitOk;
    }

    bool
    acceptOne()
    {
        conn = ::accept(listener, nullptr, nullptr);
        return conn >= 0;
    }

    /** Next '\n'-terminated line, or "" after @p timeout_ms idle. */
    std::string
    readLine(int timeout_ms = 5000)
    {
        while (true) {
            const std::size_t newline = buffer.find('\n');
            if (newline != std::string::npos) {
                std::string line = buffer.substr(0, newline);
                buffer.erase(0, newline + 1);
                return line;
            }
            pollfd pfd{conn, POLLIN, 0};
            if (::poll(&pfd, 1, timeout_ms) <= 0)
                return {};
            char chunk[4096];
            const ssize_t n = ::read(conn, chunk, sizeof chunk);
            if (n <= 0)
                return {};
            buffer.append(chunk, static_cast<std::size_t>(n));
        }
    }

    bool
    sendLine(const std::string &line)
    {
        return service::sendLine(conn, line);
    }

    void
    closeConn()
    {
        if (conn >= 0)
            ::close(conn);
        conn = -1;
    }

  private:
    std::string path;
    int listener = -1;
    int conn = -1;
    std::string buffer;
};

std::string
socketPath(const char *tag)
{
    return "/tmp/icheck_rs_" + std::to_string(::getpid()) + "_" + tag +
           ".sock";
}

fleet::FleetTopology
oneBackendTopology(const std::string &socket, bool sync_ship)
{
    fleet::FleetTopology topology;
    topology.backends.push_back(fleet::BackendAddress{"b0", socket});
    topology.syncShip = sync_ship;
    return topology;
}

std::size_t
countOpenFds()
{
    std::size_t count = 0;
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr)
        return 0;
    while (::readdir(dir) != nullptr)
        ++count;
    ::closedir(dir);
    return count;
}

constexpr const char *checkLine =
    "{\"id\":\"c1\",\"op\":\"check\",\"app\":\"radix\",\"runs\":4}";

std::string
pullEofResponse(std::uint64_t next)
{
    return "{\"id\":\"__fleet:pull\",\"status\":\"ok\",\"next\":" +
           std::to_string(next) + ",\"eof\":true,\"frames\":\"\"}";
}

} // namespace

TEST(RouterShip, StaleMidflightPullCannotFlushASyncShipHold)
{
    const std::string path = socketPath("stale");
    FakeBackend backend(path);
    ASSERT_TRUE(backend.listen());

    fleet::Router router(oneBackendTopology(path, /*sync_ship=*/true),
                         "/nonexistent/router.sock");
    ASSERT_TRUE(router.start());
    ASSERT_TRUE(backend.acceptOne());

    // The shipper's first pull goes out before any check exists — from
    // the backend's point of view, before any frames were appended.
    const std::string stale_pull = backend.readLine();
    ASSERT_NE(stale_pull.find("\"op\":\"pull\""), std::string::npos);

    std::promise<std::string> answered;
    std::future<std::string> response = answered.get_future();
    router.handleClientLine(checkLine,
                            [&answered](const std::string &line) {
                                answered.set_value(line);
                            });
    const std::string forwarded = backend.readLine();
    ASSERT_NE(forwarded.find("\"op\":\"check\""), std::string::npos);

    // Answer the check first (the hold registers while the stale pull
    // is still in flight), then let the stale pull report eof. The
    // router's reader consumes both lines in this order.
    const std::string check_response =
        "{\"id\":\"c1\",\"status\":\"ok\",\"fake\":true}";
    ASSERT_TRUE(backend.sendLine(check_response));
    ASSERT_TRUE(backend.sendLine(pullEofResponse(0)));

    // The stale pull was sent before the check's frames existed, so its
    // eof proves nothing about them: the hold must survive it and a
    // fresh witness pull must go out instead.
    const std::string witness_pull = backend.readLine();
    ASSERT_NE(witness_pull.find("\"op\":\"pull\""), std::string::npos);
    EXPECT_EQ(response.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout)
        << "sync-ship hold flushed on a pull that predates its frames";

    // Only the witness pull's eof releases the response, verbatim.
    ASSERT_TRUE(backend.sendLine(pullEofResponse(0)));
    ASSERT_EQ(response.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_EQ(response.get(), check_response);
}

TEST(RouterShip, DeadBackendAnswersWithAnErrorNotASignal)
{
    const std::string path = socketPath("dead");
    FakeBackend backend(path);
    ASSERT_TRUE(backend.listen());

    fleet::Router router(oneBackendTopology(path, /*sync_ship=*/false),
                         "/nonexistent/router.sock");
    ASSERT_TRUE(router.start());
    ASSERT_TRUE(backend.acceptOne());
    // Simulate a SIGKILLed backend. The forwarding write then fails
    // with EPIPE — before MSG_NOSIGNAL it raised SIGPIPE and killed
    // the whole process (this test binary included).
    backend.closeConn();

    std::promise<std::string> answered;
    std::future<std::string> response = answered.get_future();
    router.handleClientLine(checkLine,
                            [&answered](const std::string &line) {
                                answered.set_value(line);
                            });
    // Whichever of the dispatcher or the reader's failover observes the
    // death first must answer — an error, never a hang or a crash.
    ASSERT_EQ(response.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_NE(response.get().find("\"status\":\"error\""),
              std::string::npos);
}

TEST(RouterShip, FailedStartClosesTheBackendsThatDidConnect)
{
    const std::string path = socketPath("leak");
    FakeBackend backend(path);
    ASSERT_TRUE(backend.listen());

    fleet::FleetTopology topology =
        oneBackendTopology(path, /*sync_ship=*/false);
    topology.backends.push_back(
        fleet::BackendAddress{"b1", "/nonexistent/b1.sock"});

    const std::size_t fds_before = countOpenFds();
    fleet::Router router(std::move(topology),
                         "/nonexistent/router.sock");
    EXPECT_FALSE(router.start());
    // b0's connected socket must not outlive the failed start: stop()
    // never runs on this path (started stays false).
    EXPECT_EQ(countOpenFds(), fds_before);
}
