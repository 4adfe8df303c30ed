"""Tests for the benchmark's own arithmetic and traffic generator.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import socket
import sys
import tempfile
import threading
import time
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import loadgen  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from fleet import LineConn  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_thousand_samples_give_p99(self):
        values = list(range(1000, 0, -1))  # unsorted on purpose
        pct, value, count = stats.tail(values)
        self.assertEqual(count, 1000)
        self.assertEqual(value, 990)  # 10 samples (991..1000) beyond it
        self.assertAlmostEqual(pct, 99.0)

    def test_exactly_ten_beyond(self):
        values = [5.0] * 3 + list(range(100, 110)) + [7.0]
        pct, value, count = stats.tail(values)
        ordered = sorted(values)
        self.assertEqual(sum(v > value for v in ordered), 10)
        self.assertEqual(count, 14)
        self.assertAlmostEqual(pct, 100.0 * 4 / 14)

    def test_eleven_samples_is_the_minimum(self):
        self.assertEqual(stats.tail(list(range(11)))[1], 0)
        self.assertIsNone(stats.tail(list(range(10))))


class SelfTime(unittest.TestCase):
    def span(self, i, parent, start, end):
        return {"i": i, "parent": parent, "start": start, "end": end}

    def test_overlapping_children_count_once(self):
        spans = [self.span(0, -1, 0, 100),
                 self.span(1, 0, 10, 40),
                 self.span(2, 0, 30, 60),     # overlaps child 1
                 self.span(3, 0, 80, 120)]    # runs past the parent
        selfs = stats.self_times(spans)
        # Children cover [10, 60] and [80, 100]: 70 of the parent's 100.
        self.assertAlmostEqual(selfs[0], 30)
        self.assertAlmostEqual(selfs[3], 40)

    def test_grandchildren_charge_only_their_parent(self):
        spans = [self.span(0, -1, 0, 100),
                 self.span(1, 0, 10, 50),
                 self.span(2, 1, 20, 30)]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(selfs[0], 60)
        self.assertAlmostEqual(selfs[1], 30)
        self.assertAlmostEqual(selfs[2], 10)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([self.span(0, -1, 5, 9)]), {0: 4})


class Goodput(unittest.TestCase):
    def rung(self, rate, tail_ms=10.0, failed=0, backlog=(1, 0, 2, 1)):
        return {"rate": rate, "tail_ms": tail_ms, "failed": failed,
                "backlog": list(backlog)}

    def test_backlog_growth(self):
        self.assertFalse(stats.backlog_grows([3, 2, 4, 3, 2, 3, 4, 3]))
        self.assertFalse(stats.backlog_grows([20, 22, 19, 21, 20, 22, 21, 20]))
        self.assertTrue(stats.backlog_grows([2, 5, 9, 14, 18, 23, 27, 31]))
        self.assertFalse(stats.backlog_grows([0, 0, 1, 2]))  # within slack

    def test_highest_passing_rung(self):
        rungs = [self.rung(100), self.rung(200),
                 self.rung(300, tail_ms=80.0), self.rung(400, failed=3)]
        self.assertEqual(stats.goodput(rungs, limit_ms=50.0), 200.0)

    def test_each_condition_fails_a_rung(self):
        limit = 50.0
        self.assertEqual(stats.goodput([self.rung(100, tail_ms=None)], limit),
                         0.0)
        self.assertEqual(stats.goodput([self.rung(100, failed=1)], limit), 0.0)
        self.assertEqual(stats.goodput(
            [self.rung(100, backlog=(1, 3, 8, 20))], limit), 0.0)
        self.assertEqual(stats.goodput([self.rung(100, tail_ms=50.0)], limit),
                         100.0)

    def test_a_failed_middle_rung_does_not_cap_the_answer(self):
        rungs = [self.rung(100), self.rung(200, backlog=(1, 3, 8, 20)),
                 self.rung(300)]
        self.assertEqual(stats.goodput(rungs, limit_ms=50.0), 300.0)


class SlowResponder:
    """A Unix-socket server that answers one request at a time, each
    after `delay` seconds: a scripted backend that cannot keep up."""

    def __init__(self, directory, delay):
        self.directory = directory
        self.delay = delay
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(os.path.join(directory, "slow.sock"))
        self.listener.listen(8)
        self.lock = threading.Lock()  # one request in service at a time
        self.threads = []
        self.accepter = threading.Thread(target=self.accept, daemon=True)
        self.accepter.start()

    def accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self.serve, args=(conn,),
                                      daemon=True)
            thread.start()
            self.threads.append(thread)

    def serve(self, conn):
        buf = b""
        with conn:
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    return
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    rid = json.loads(line)["id"]
                    with self.lock:
                        time.sleep(self.delay)
                        conn.sendall(json.dumps(
                            {"id": rid, "status": "ok"},
                            separators=(",", ":")).encode() + b"\n")

    def connect(self):
        return LineConn(self.directory, "slow.sock")

    def close(self):
        self.listener.close()


class DueTimeLatency(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.server = SlowResponder(self.tmp.name, delay=0.020)
        self.reqs = [loadgen.Req(i, f"q{i}", "cold", "", json.dumps(
            {"id": f"q{i}", "op": "ping"})) for i in range(40)]

    def tearDown(self):
        self.server.close()
        self.tmp.cleanup()

    def test_open_loop_charges_queueing_from_due_time(self):
        # Due every 10 ms, served one at a time every 20 ms: the last of
        # 40 answers comes about 800 ms in, 400 ms after the last request
        # was due, while the generator itself stays on schedule.
        outs = loadgen.drive(self.server.connect, self.reqs, clients=2,
                             rate=100.0)
        lat = [o.latency_ms for o in outs]
        self.assertLess(lat[0], 60.0)
        self.assertGreater(max(lat), 350.0)
        self.assertLess(max(o.late_ms for o in outs), 50.0)
        for k, out in enumerate(outs):
            self.assertAlmostEqual(out.due - outs[0].due, k / 100.0,
                                   places=6)
        self.assertTrue(stats.backlog_grows(loadgen.backlog_series(outs)))

    def test_closed_loop_latency_is_service_time(self):
        reqs = self.reqs[:10]
        outs = loadgen.drive(self.server.connect, reqs, clients=1)
        for out in outs:
            self.assertGreater(out.latency_ms, 18.0)
            self.assertLess(out.latency_ms, 45.0)
            self.assertLess(out.late_ms, 5.0)
        self.assertEqual([o.index for o in outs], list(range(10)))


class RequestMix(unittest.TestCase):
    def test_same_seed_same_list(self):
        a = [r.line for r in loadgen.make_mix(5, 300)]
        self.assertEqual(a, [r.line for r in loadgen.make_mix(5, 300)])
        self.assertNotEqual(a, [r.line for r in loadgen.make_mix(6, 300)])

    def test_composition_and_references(self):
        gap = loadgen.GAP
        reqs = loadgen.make_mix(3, 832)
        self.assertTrue(all(r.kind == "cold" for r in reqs[:gap]))
        for block in range(gap, 832, 10):
            kinds = [r.kind for r in reqs[block:block + 10]]
            self.assertEqual(kinds.count("cold"), 5)
            self.assertEqual(kinds.count("warm") + kinds.count("extend"), 5)
        first = {}
        extended = set()
        for r in reqs:
            app_scheme_seed = r.campaign.rsplit("/", 1)[0]
            if r.kind == "cold":
                self.assertNotIn(app_scheme_seed, first)
                first[app_scheme_seed] = r.index
            else:
                self.assertLessEqual(first[app_scheme_seed], r.index - gap)
            if r.kind == "extend":
                self.assertNotIn(app_scheme_seed, extended)
                extended.add(app_scheme_seed)
                self.assertTrue(r.campaign.endswith("/16"))


class ResponseCheck(unittest.TestCase):
    def test_embedded_report_must_match(self):
        req = loadgen.Req(0, "r", "cold", "c", "")
        report = '{"app":"x","runs":8}'
        good = loadgen.Outcome(0, 0, 0, 0,
                               '{"id":"r","status":"ok","report":' + report +
                               "}")
        bad = loadgen.Outcome(0, 0, 0, 0,
                              '{"id":"r","status":"error","message":"m"}')
        self.assertEqual(workloads.check_responses([req], [good],
                                                   {"c": report}), 0)
        self.assertEqual(workloads.check_responses([req], [good],
                                                   {"c": report + " "}), 1)
        self.assertEqual(workloads.check_responses([req], [bad],
                                                   {"c": report}), 1)


if __name__ == "__main__":
    unittest.main()
