/**
 * @file
 * The shared Unix-socket line transport (service/line_socket.hpp)
 * against an in-process echo server on a temp socket: line framing
 * across writes, the oversize cap, a client that hangs up before its
 * answer, an orderly stop, the sun_path limit, and a long line through
 * LineReader. This binary does not ignore SIGPIPE, so a send without
 * MSG_NOSIGNAL to a closed peer would kill it.
 */

#include <atomic>
#include <cerrno>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "service/line_socket.hpp"
#include "service/protocol.hpp"
#include "support/exit_codes.hpp"

namespace icheck::service
{
namespace
{

std::string
socketPath(const char *tag)
{
    return "/tmp/icheck_ls_" + std::to_string(::getpid()) + "_" + tag +
           ".sock";
}

/** Answers every line with "echo:" + line, so an empty line would show. */
void
echo(std::string line, const Respond &respond)
{
    respond("echo:" + line);
}

/** serveLines on a background thread until stop() or destruction. */
class Server
{
  public:
    Server(std::string socket_path, std::size_t max_line,
           LineHandler on_line = echo,
           std::function<void()> before_hangup = {})
        : path(std::move(socket_path))
    {
        thread = std::thread([this, max_line, on_line, before_hangup] {
            code = serveLines(
                path, "test", max_line, on_line,
                [this] { return stopping.load(); }, before_hangup);
            finished.set_value();
        });
    }

    ~Server()
    {
        stopping = true;
        thread.join();
    }

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Connect once the listener is up; -1 after about five seconds. */
    int
    connect() const
    {
        for (int attempt = 0; attempt < 200; ++attempt) {
            const int fd = connectUnix(path);
            if (fd >= 0) {
                // A read that would hang fails the test instead.
                const timeval timeout{5, 0};
                ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                             sizeof timeout);
                return fd;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
        return -1;
    }

    /** Ask serveLines to stop; true once it returned within 5 s. */
    bool
    stop()
    {
        stopping = true;
        return finishedFuture.wait_for(std::chrono::seconds(5)) ==
               std::future_status::ready;
    }

    int exitCode() const { return code; }

    const std::string path;

  private:
    std::atomic<bool> stopping{false};
    std::promise<void> finished;
    std::future<void> finishedFuture = finished.get_future();
    int code = -1;
    std::thread thread;
};

/** Write @p bytes as one send, without framing. */
bool
sendRaw(int fd, const std::string &bytes)
{
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
}

TEST(LineSocket, AnswersLinesInOrderAcrossWritesAndSkipsEmptyOnes)
{
    Server server(socketPath("order"), 0);
    const int fd = server.connect();
    ASSERT_GE(fd, 0);
    // Three lines and an empty one in a single write...
    ASSERT_TRUE(sendLine(fd, "one\ntwo\n\nthree"));
    // ...then one line split across writes the server reads apart.
    ASSERT_TRUE(sendRaw(fd, "fo"));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(sendRaw(fd, "ur\n\n"));

    LineReader reader(fd);
    std::string line;
    for (const char *want :
         {"echo:one", "echo:two", "echo:three", "echo:four"}) {
        ASSERT_TRUE(reader.next(line)) << "waiting for " << want;
        EXPECT_EQ(line, want);
    }
    ::close(fd);
}

TEST(LineSocket, OversizedPartialLineGetsOneErrorThenEof)
{
    std::atomic<int> handled{0};
    Server server(socketPath("oversize"), 1024,
                  [&handled](std::string, const Respond &) {
                      ++handled;
                  });
    const int fd = server.connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendRaw(fd, std::string(1500, 'x')));

    LineReader reader(fd);
    std::string line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, renderErrorResponse(
                        {}, "oversized request line; closing connection"));
    EXPECT_FALSE(reader.next(line));
    EXPECT_EQ(reader.end(), LineReader::End::Eof);
    EXPECT_EQ(handled.load(), 0);
    ::close(fd);
}

TEST(LineSocket, ClientGoneBeforeItsAnswerLeavesTheServerServing)
{
    std::promise<void> client_closed;
    std::shared_future<void> closed = client_closed.get_future().share();
    std::promise<void> answered;
    Server server(socketPath("gone"), 0,
                  [closed, &answered](const std::string &line,
                                      const Respond &respond) {
                      if (line == "slow") {
                          // Answer only after the asker hung up: the
                          // send hits a dead peer.
                          closed.wait();
                          respond("too late");
                          answered.set_value();
                      } else {
                          respond("echo:" + line);
                      }
                  });
    const int gone = server.connect();
    ASSERT_GE(gone, 0);
    ASSERT_TRUE(sendLine(gone, "slow"));
    ::close(gone);
    client_closed.set_value();
    ASSERT_EQ(answered.get_future().wait_for(std::chrono::seconds(5)),
              std::future_status::ready);

    const int fd = server.connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendLine(fd, "ping"));
    LineReader reader(fd);
    std::string line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "echo:ping");
    ::close(fd);
}

TEST(LineSocket, StopRunsBeforeHangupThenClosesEveryClient)
{
    std::mutex mu;
    Respond stashed;
    std::atomic<int> handled{0};
    Server server(
        socketPath("stop"), 0,
        [&](std::string line, const Respond &respond) {
            ++handled;
            if (line == "stash") {
                std::lock_guard<std::mutex> lock(mu);
                stashed = respond;
            }
            echo(std::move(line), respond);
        },
        [&] {
            std::lock_guard<std::mutex> lock(mu);
            if (stashed)
                stashed("bye");
        });

    // Two connected clients, each with a reader blocked in read().
    const int first = server.connect();
    const int second = server.connect();
    ASSERT_GE(first, 0);
    ASSERT_GE(second, 0);
    LineReader first_reader(first);
    LineReader second_reader(second);
    std::string line;
    ASSERT_TRUE(sendLine(first, "stash"));
    ASSERT_TRUE(first_reader.next(line));
    ASSERT_TRUE(sendLine(second, "hello"));
    ASSERT_TRUE(second_reader.next(line));

    // serveLines can only return after joining both readers.
    ASSERT_TRUE(server.stop()) << "serveLines did not return";
    EXPECT_EQ(server.exitCode(), ExitOk);
    EXPECT_NE(::access(server.path.c_str(), F_OK), 0)
        << "socket file left behind";
    ASSERT_TRUE(first_reader.next(line));
    EXPECT_EQ(line, "bye");
    EXPECT_FALSE(first_reader.next(line));
    EXPECT_EQ(first_reader.end(), LineReader::End::Eof);
    EXPECT_FALSE(second_reader.next(line));
    EXPECT_EQ(second_reader.end(), LineReader::End::Eof);

    // A Respond kept past the server's end fails quietly.
    {
        std::lock_guard<std::mutex> lock(mu);
        stashed("late");
        stashed = nullptr;
    }
    EXPECT_EQ(handled.load(), 2);
    ::close(first);
    ::close(second);
}

TEST(LineSocket, PathTooLongForSunPathIsAUsageError)
{
    const std::string path = "/tmp/" + std::string(200, 'p') + ".sock";
    bool stop_called = false;
    EXPECT_EQ(serveLines(
                  path, "test", 0, echo,
                  [&stop_called] { return stop_called = true; }, {}),
              ExitUsage);
    EXPECT_FALSE(stop_called);
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
    const int fd = connectUnix(path);
    const int error = errno;
    EXPECT_EQ(fd, -1);
    EXPECT_EQ(error, ENAMETOOLONG);
}

TEST(LineSocket, LongLineFedInSmallWritesComesBackIntact)
{
    Server server(socketPath("long"), 0);
    const int fd = server.connect();
    ASSERT_GE(fd, 0);
    std::string request;
    for (int i = 0; i < 100 * 1024; ++i)
        request.push_back(static_cast<char>('a' + i % 26));
    for (std::size_t at = 0; at < request.size(); at += 1024)
        ASSERT_TRUE(sendRaw(fd, request.substr(at, 1024)));
    ASSERT_TRUE(sendRaw(fd, "\n"));

    LineReader reader(fd);
    std::string line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line.size(), request.size() + 5);
    EXPECT_TRUE(line == "echo:" + request);
    ::close(fd);
}

} // namespace
} // namespace icheck::service
