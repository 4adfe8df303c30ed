"""Spawn, probe and stop `icheck serve` backends and `icheck route` routers.

Every process runs with its working directory set to one scratch
directory inside the checkout, so socket paths stay short relative names
(Unix socket paths are limited to about 100 bytes).
"""

import json
import os
import socket
import subprocess
import time

BACKENDS = ("b0", "b1")
BACKEND_JOBS = 2  # pool workers per backend
FRONT = "router.sock"


class LineConn:
    """One JSONL connection to a daemon or router socket."""

    def __init__(self, workdir, sock_name, timeout=60.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        cwd = os.getcwd()
        try:
            os.chdir(workdir)
            self.sock.connect(sock_name)
        finally:
            os.chdir(cwd)
        self.buf = b""

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def recv(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("peer closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def call(self, obj):
        self.send(json.dumps(obj, separators=(",", ":")))
        return json.loads(self.recv())

    def close(self):
        self.sock.close()


def vm_hwm_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Fleet:
    """`icheck route --ship sync` fronting two `icheck serve` backends,
    with fresh stores.

    `start()` returns once the router answers `ping`; the time it took is
    the fleet's set-up time.
    """

    def __init__(self, icheck, workdir):
        self.icheck = os.path.abspath(icheck)
        self.workdir = workdir
        self.procs = {}

    def _spawn(self, name, args):
        log = open(os.path.join(self.workdir, name + ".log"), "wb")
        proc = subprocess.Popen([self.icheck] + args, cwd=self.workdir,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        log.close()
        self.procs[name] = proc

    def _wait_ping(self, sock_name, deadline):
        while True:
            for name, proc in self.procs.items():
                if proc.poll() is not None:
                    raise RuntimeError(f"{name} exited with {proc.returncode}")
            try:
                conn = LineConn(self.workdir, sock_name, timeout=5.0)
                try:
                    if conn.call({"id": "ping", "op": "ping"}).get("status") == "ok":
                        return
                finally:
                    conn.close()
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"{sock_name} did not answer ping")
            time.sleep(0.002)

    def start(self):
        os.makedirs(self.workdir, exist_ok=True)
        for name in list(os.listdir(self.workdir)):
            if name.endswith((".sock", ".icr", ".log")):
                os.unlink(os.path.join(self.workdir, name))
        t0 = time.perf_counter()
        deadline = time.monotonic() + 30.0
        for name in BACKENDS:
            self._spawn(name, ["serve", "--socket", name + ".sock",
                               "--store", name + ".icr",
                               "--jobs", str(BACKEND_JOBS)])
        for name in BACKENDS:
            self._wait_ping(name + ".sock", deadline)
        args = ["route", "--socket", FRONT, "--ship", "sync"]
        for name in BACKENDS:
            args += ["--backend", f"{name}={name}.sock"]
        self._spawn("router", args)
        self._wait_ping(FRONT, deadline)
        return time.perf_counter() - t0

    def connect(self):
        return LineConn(self.workdir, FRONT)

    def stats(self):
        conn = self.connect()
        try:
            return conn.call({"id": "stats", "op": "stats"})
        finally:
            conn.close()

    def peak_rss_mb(self):
        return sum(vm_hwm_mb(p.pid) for p in self.procs.values()
                   if p.poll() is None)

    def stop(self):
        """SIGTERM every process (router first) and wait for each."""
        order = ["router", *BACKENDS]
        for name in order:
            proc = self.procs.get(name)
            if proc is not None and proc.poll() is None:
                proc.terminate()
        for name in order:
            proc = self.procs.get(name)
            if proc is None:
                continue
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
