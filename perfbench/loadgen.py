"""The `serve` traffic: a seeded request mix and one event loop that sends it.

`make_mix` derives the cold/warm/extend mix from the seed. `drive` sends
a request list over a few connections from one thread, either open-loop
(request i is due at i/rate seconds, whether or not earlier ones are
done) or closed-loop (each connection keeps one request in flight).
Latency is timed from the due time, so a stall also charges the wait it
imposes on every request queued behind it; lateness is send minus due.
Responses are matched to requests by id.
"""

import json
import random
import selectors
import time
from dataclasses import dataclass

# The 17 registry workloads (`icheck list`).
MIX_APPS = ["blackscholes", "fft", "lu", "radix", "streamcluster",
            "swaptions", "volrend", "fluidanimate", "ocean", "waterNS",
            "waterSP", "cholesky", "pbzip2", "sphinx3", "barnes", "canneal",
            "radiosity"]
SCHEMES = ["hw", "swinc", "swtr"]
INPUT = "medium"
# Warm and extend requests name a campaign at least GAP positions back.
GAP = 32
TIMEOUT_S = 120.0
BACKLOG_POINTS = 8


@dataclass
class Req:
    index: int
    id: str
    kind: str      # cold | warm | extend
    campaign: str  # identity of the report: app/scheme/seed/runs
    line: str


@dataclass
class Outcome:
    index: int
    due: float
    sent: float
    done: float
    response: str

    @property
    def latency_ms(self):
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self):
        return (self.sent - self.due) * 1000.0


def check_line(rid, app, scheme, seed, runs):
    return json.dumps({"id": rid, "op": "check", "app": app, "runs": runs,
                       "scheme": scheme, "seed": seed, "input": INPUT},
                      separators=(",", ":"))


def make_mix(seed, count, tag="r"):
    """`count` requests: 50% cold, 30% warm, 20% extend, from `seed`.

    cold   a new app x scheme x seed campaign at 8 runs (all executed);
    warm   an earlier cold campaign under a new id (all units reused);
    extend an earlier cold campaign at 16 runs (8 reused, 8 executed).
    The mix is stratified so that seeds change which requests come when
    but hardly how much work the list holds: every block of ten past the
    first GAP requests holds 5 cold, 3 warm and 2 extend in a seeded
    order, and cold requests cycle through a seeded permutation of all
    app x scheme pairs. Warm and extend requests name a campaign at
    least GAP positions earlier, so with fewer than GAP requests in
    flight its units are already stored. Each cold campaign is extended
    at most once.
    """
    rng = random.Random(seed)
    pairs = [(a, s) for a in MIX_APPS for s in SCHEMES]
    kinds, cycle = [], []
    reqs, colds, extended = [], [], set()
    for i in range(count):
        if i < GAP:
            kind = "cold"
        else:
            if not kinds:
                kinds = ["cold"] * 5 + ["warm"] * 3 + ["extend"] * 2
                rng.shuffle(kinds)
            kind = kinds.pop()
        eligible = [c for c in colds if c[0] <= i - GAP]
        if kind == "extend":
            fresh = [c for c in eligible if c[0] not in extended]
            if fresh:
                eligible = fresh
            else:
                kind = "warm"
        if kind == "cold":
            if not cycle:
                cycle = pairs[:]
                rng.shuffle(cycle)
            app, scheme = cycle.pop()
            cseed = 100000 * seed + i
            colds.append((i, app, scheme, cseed))
            runs = 8
        else:
            base, app, scheme, cseed = rng.choice(eligible)
            runs = 8
            if kind == "extend":
                extended.add(base)
                runs = 16
        rid = f"{tag}{seed}-{i}"
        reqs.append(Req(i, rid, kind, f"{app}/{scheme}/{cseed}/{runs}",
                        check_line(rid, app, scheme, cseed, runs)))
    return reqs


def response_id(line):
    """The id of a response line without decoding its report."""
    start = line.find('"id":"')
    if start < 0:
        return ""
    start += 6
    return line[start:line.index('"', start)]


def drive(connect, reqs, clients, rate=None, spans=None):
    """Send `reqs` over `clients` connections; return one Outcome each.

    `connect()` returns an object with `sock`, `send(line)` and
    `recv()`-compatible buffering (fleet.LineConn). With `rate` the
    schedule is open-loop; without it, closed-loop. With a `spans` list,
    one send-to-reply span per request is appended to it as its reply
    arrives.
    """
    clock = time.perf_counter
    conns = [connect() for _ in range(clients)]
    sel = selectors.DefaultSelector()
    for k, conn in enumerate(conns):
        conn.sock.setblocking(False)
        sel.register(conn.sock, selectors.EVENT_READ, k)
    by_id = {r.id: r for r in reqs}
    due, sent, out = {}, {}, {}
    busy = [0] * clients
    t0 = clock()
    nxt = 0
    deadline = t0 + TIMEOUT_S
    try:
        while len(out) < len(reqs):
            now = clock()
            if now > deadline:
                raise TimeoutError(f"{len(reqs) - len(out)} requests "
                                   f"unanswered after {TIMEOUT_S:.0f} s")
            # Send everything that is due (open) or has a free slot (closed).
            while nxt < len(reqs):
                if rate is not None:
                    when = t0 + nxt / rate
                    if when > now:
                        break
                    k = nxt % clients
                else:
                    free = [k for k in range(clients) if busy[k] == 0]
                    if not free:
                        break
                    k, when = free[0], now
                req = reqs[nxt]
                due[req.id] = when
                conns[k].sock.setblocking(True)
                conns[k].send(req.line)
                conns[k].sock.setblocking(False)
                sent[req.id] = clock()
                busy[k] += 1
                nxt += 1
                now = clock()
            if rate is not None and nxt < len(reqs):
                wait = max(0.0, t0 + nxt / rate - clock())
            else:
                wait = max(0.0, deadline - clock())
            for key, _ in sel.select(timeout=min(wait, 1.0)):
                k = key.data
                conn = conns[k]
                try:
                    chunk = conn.sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("server closed a connection")
                conn.buf += chunk
                while b"\n" in conn.buf:
                    raw, conn.buf = conn.buf.split(b"\n", 1)
                    line = raw.decode()
                    rid = response_id(line)
                    if rid not in by_id or rid in out:
                        raise ValueError(f"unmatched response id {rid!r}")
                    busy[k] -= 1
                    done = clock()
                    out[rid] = Outcome(by_id[rid].index, due[rid], sent[rid],
                                       done, line)
                    if spans is not None:
                        spans.append({"name": "request." + by_id[rid].kind,
                                      "id": rid, "parent": -1,
                                      "start": sent[rid] * 1e6,
                                      "end": done * 1e6})
    finally:
        sel.close()
        for conn in conns:
            conn.close()
    return [out[r.id] for r in reqs]


def backlog_series(outcomes):
    """Requests sent but not answered, sampled at BACKLOG_POINTS due
    times."""
    if not outcomes:
        return []
    dues = sorted(o.due for o in outcomes)
    marks = [dues[min(len(dues) - 1,
                      (len(dues) * (p + 1)) // BACKLOG_POINTS - 1)]
             for p in range(BACKLOG_POINTS)]
    return [sum(1 for o in outcomes if o.sent <= m < o.done) for m in marks]
