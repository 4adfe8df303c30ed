#ifndef ICHECK_SERVICE_LINE_SOCKET_HPP
#define ICHECK_SERVICE_LINE_SOCKET_HPP

/**
 * @file
 * The one Unix-domain line transport.
 *
 * The daemon (`serveSocket`), the router's client and backend links,
 * and loadgen speak one wire format: newline-terminated lines (JSONL
 * requests and responses) over an `AF_UNIX` stream socket. They all
 * listen, connect, read and write through this module.
 *
 * A peer that vanished surfaces as a failed `sendLine`, never as a
 * SIGPIPE that kills the process. A server reader caps how long a
 * partial line may grow; past the cap the client gets one error line
 * and its connection closes, because resyncing inside an unbounded
 * line would mean buffering it.
 */

#include <cstddef>
#include <functional>
#include <string>

namespace icheck::service
{

/** Writes one line back to the connection a request came from. */
using Respond = std::function<void(const std::string &line)>;

/** Called with each request line, on its connection's reader thread. */
using LineHandler =
    std::function<void(std::string line, const Respond &respond)>;

/**
 * Bind and listen (backlog 64) on @p path, replacing a stale file
 * there. Returns ExitOk with the socket in @p listener; ExitUsage for a
 * path too long for `sun_path` (no file is touched); ExitInternal for
 * any other failure. Failures are logged as `<who>: ...`.
 */
int listenUnix(const std::string &path, const char *who, int &listener);

/** Connect to the socket at @p path: the fd, or -1 with errno set. */
int connectUnix(const std::string &path);

/**
 * Write @p line + '\n' to @p fd in full, retrying on EINTR. False when
 * the peer is gone. Callers serialize concurrent sends on one fd.
 */
bool sendLine(int fd, const std::string &line);

/**
 * Buffered reader of '\n'-terminated lines from a stream fd it does not
 * own. Each read scans only the bytes it appended.
 */
class LineReader
{
  public:
    /** Why next() returned false. */
    enum class End
    {
        Open,     ///< next() has not returned false yet.
        Eof,      ///< The peer closed; a trailing partial line is dropped.
        Error,    ///< read() failed.
        Oversize, ///< A partial line grew past the cap.
    };

    /** @p max_line caps a partial line's bytes; 0 means no cap. */
    explicit LineReader(int fd, std::size_t max_line = 0);

    /**
     * Store the next non-empty line (without its '\n') in @p line.
     * False once the stream ended; end() then says why.
     */
    bool next(std::string &line);

    End end() const { return ended; }

  private:
    int fd;
    std::size_t maxLine;
    std::string buffer;
    std::size_t start = 0;   ///< First byte not yet returned.
    std::size_t scanned = 0; ///< buffer[start, scanned) holds no '\n'.
    End ended = End::Open;
};

/**
 * Serve lines on a Unix socket at @p path until @p stop returns true
 * (polled every 200 ms). Each accepted connection gets a reader thread
 * that hands its lines to @p on_line; the Respond it passes stays
 * usable after the reader exits, so queued work can still answer. A
 * partial line past @p max_line bytes (0: no cap) is answered with an
 * error and closes the connection. Running out of fds or memory fails
 * one accept, not the server.
 *
 * On stop: close the listener, run @p before_hangup (if set) while
 * clients are still connected, shut every client down, join the
 * readers and remove the socket file. Returns listenUnix's code when
 * it fails, else ExitOk.
 */
int serveLines(const std::string &path, const char *who,
               std::size_t max_line, const LineHandler &on_line,
               const std::function<bool()> &stop,
               const std::function<void()> &before_hangup);

} // namespace icheck::service

#endif // ICHECK_SERVICE_LINE_SOCKET_HPP
