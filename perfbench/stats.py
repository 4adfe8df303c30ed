"""The benchmark's own arithmetic: percentiles, span self time, backlog
growth and the goodput ladder. Pure functions, unit-tested in
test_perfbench.py."""

import statistics

TAIL_MIN_BEYOND = 10
BACKLOG_SLACK = 2


def median(values):
    return statistics.median(values)


def tail(values):
    """The highest percentile with at least TAIL_MIN_BEYOND samples above
    it.

    Returns (percentile, value, count): the value is the sample with
    exactly TAIL_MIN_BEYOND samples ranked above it, and the percentile
    is the share of samples at or below it. None when there are no more
    than TAIL_MIN_BEYOND samples.
    """
    n = len(values)
    if n < TAIL_MIN_BEYOND + 1:
        return None
    ordered = sorted(values)
    rank = n - 1 - TAIL_MIN_BEYOND
    return 100.0 * (rank + 1) / n, ordered[rank], n


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its own
    interval that its children cover. Overlapping (parallel) children
    count once. `spans` are dicts with i, parent, start, end; returns
    {i: self_time}."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["i"], [])]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s["i"]] = (s["end"] - s["start"]) - covered(clipped)
    return out


def backlog_grows(series):
    """True if requests in flight keep piling up over an open-loop run:
    the second half's mean exceeds twice the first half's plus
    BACKLOG_SLACK.
    A steady queue, however deep, does not count as growth."""
    if len(series) < 2:
        return False
    half = len(series) // 2
    first = statistics.mean(series[:half])
    second = statistics.mean(series[half:])
    return second > 2.0 * first + BACKLOG_SLACK


def goodput(rungs, limit_ms):
    """Highest offered rate whose rung met the latency limit.

    Each rung is a dict with rate, tail_ms (None if too few samples),
    failed (count) and backlog (series). A rung passes when nothing
    failed, its tail latency is within `limit_ms` and its backlog did
    not grow. Returns 0.0 when no rung passes.
    """
    best = 0.0
    for rung in rungs:
        ok = (rung["failed"] == 0 and rung["tail_ms"] is not None
              and rung["tail_ms"] <= limit_ms
              and not backlog_grows(rung["backlog"]))
        if ok:
            best = max(best, float(rung["rate"]))
    return best
