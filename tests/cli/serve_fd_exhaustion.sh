#!/usr/bin/env bash
# A daemon whose fd table fills up keeps serving. `icheck serve` runs
# under `ulimit -n 24` while 30 clients hold connections open, more
# than it can accept; once they hang up, a ping on a fresh connection
# must be answered within 5 s, and a drain must still end the daemon
# cleanly. The daemon's log must show the failed accept, so the run
# proves the limit was reached.
#
#   serve_fd_exhaustion.sh ICHECK_BIN
#
# python3 is in the base image (tools/fleetctl uses it too).

set -euo pipefail

icheck="$1"
dir="$(mktemp -d)"
pid=""
cleanup() {
    if [ -n "$pid" ]; then
        kill -9 "$pid" 2>/dev/null || true
    fi
    rm -rf "$dir"
}
trap cleanup EXIT

(ulimit -n 24 && exec "$icheck" serve --socket "$dir/d.sock") \
    2>"$dir/serve.log" &
pid=$!

python3 - "$dir/d.sock" <<'PY'
import socket, sys, time

path = sys.argv[1]

def connect(timeout=5.0):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    s.connect(path)
    return s

def request(line):
    s = connect()
    s.sendall(line.encode() + b"\n")
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = s.recv(4096)
        if not chunk:
            sys.exit("connection closed before a reply to " + line)
        reply += chunk
    s.close()
    return reply.decode().strip()

deadline = time.time() + 5
while True:
    try:
        connect().close()
        break
    except OSError:
        if time.time() > deadline:
            sys.exit("the daemon never listened")
        time.sleep(0.05)

try:
    held = [connect() for _ in range(30)]
except OSError as error:
    sys.exit("the daemon quit while clients connected: %s" % error)
time.sleep(1)  # the accept loop runs into the fd limit meanwhile
for s in held:
    s.close()

try:
    reply = request('{"id":"p1","op":"ping"}')
except OSError as error:
    sys.exit("no answer on a fresh connection: %s" % error)
print(reply)
if '"status":"ok"' not in reply:
    sys.exit("ping not ok")
request('{"id":"d1","op":"drain"}')
PY

status=0
wait "$pid" || status=$?
pid=""
cat "$dir/serve.log"
if [ "$status" -ne 0 ]; then
    echo "daemon exited with status $status after the drain" >&2
    exit 1
fi
if ! grep -q 'accept failed: Too many open files' "$dir/serve.log"; then
    echo "the daemon never ran out of fds; the test proves nothing" >&2
    exit 1
fi
if [ -e "$dir/d.sock" ]; then
    echo "socket file left behind" >&2
    exit 1
fi
