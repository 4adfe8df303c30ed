"""The three workloads, untraced: each returns its end-to-end metrics.

campaign  cold runtime::runCampaign over 17 apps x {hw, swinc, swtr} at
          `large` input and 30 runs, as a batch at jobs 1 and at nproc.
explore   exhaustive `--prune state,dpor` searches of the three Table 2
          bug-seeded apps on 2 simulated cores, at jobs 1 and at nproc.
serve     the seeded cold/warm/extend request mix at `medium` input
          through `icheck route` fronting two `icheck serve` backends
          (`--ship sync`), from one client and from nproc clients.

Every workload reports the same end-to-end metrics (`E2E`): set-up
time, peak RSS, the share of operations that passed their checks, and
the wall time of the workload's batch at concurrency 1 and at nproc.
"""

import json
import os
import resource
import subprocess
import time

import loadgen
import stats
from fleet import Fleet

# Determinism verdict per app for `large` input with rounding and
# ignores on: Table 1's classes (barnes, canneal and radiosity are
# NonDet; the FP-precision and small-struct apps pass once rounded or
# isolated) plus streamcluster, whose documented PARSEC bug makes it
# nondeterministic at this input (`icheck check streamcluster --input
# large` exits 1).
NONDET_APPS = {"barnes", "canneal", "radiosity", "streamcluster"}

SERVE_REQUESTS = 800


class Ctx:
    """What every workload needs: binaries, scratch dir, seed, budget."""

    def __init__(self, probe, icheck, workdir, seed, seconds, nproc):
        self.probe = probe
        self.icheck = icheck
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.nproc = nproc


def run_probe(ctx, *args, cwd=None):
    """Run the probe to completion; return its JSON lines."""
    out = subprocess.run([ctx.probe] + [str(a) for a in args],
                         check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=170,
                         cwd=cwd)
    return [json.loads(line) for line in out.stdout.splitlines()
            if line.startswith("{")]


def of_kind(rows, kind):
    return [r for r in rows if r.get("kind") == kind]


def probe_peak_rss_mb(rows):
    """The probe's own peak RSS, from the line it prints at exit."""
    return max(r["peak_kb"] for r in of_kind(rows, "rss")) / 1024.0


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


SETUP_SAMPLES = 11  # set-ups timed before the workload, and again after


def probe_setups(ctx):
    """Spawn-to-exit times of `probe ready`: process start, app registry
    and worker pool."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        run_probe(ctx, "ready", "--jobs", ctx.nproc)
        samples.append(time.perf_counter() - t0)
    return samples


def e2e(setup_s, rss_mb, attempted, failed, j1, jn):
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "j1_s": (stats.median(j1), "s"),
        "jN_s": (stats.median(jn), "s"),
    }


# -------------------------------------------------------------- campaign

def campaign_rows(ctx, seconds, *extra):
    return run_probe(ctx, "campaign", "--seed", ctx.seed, "--jobs",
                     ctx.nproc, "--seconds", seconds, *extra)


EXACT_CAMPAIGN = ("report_crc", "native_instrs", "checkpoints", "cache_hits",
                  "cache_misses", "stores_hashed", "overhead_factor")


def check_campaigns(rows):
    """Failed campaign rows: a report that differs between jobs 1 and
    jobs N or between passes, an exact count that does not repeat, a
    verdict off the pinned table, or schemes that disagree."""
    first = {}
    failed = 0
    for r in rows:
        key = (r["app"], r["scheme"])
        ref = first.setdefault(key, r)
        bad = any(r[k] != ref[k] for k in EXACT_CAMPAIGN)
        bad |= r["det"] != (r["app"] not in NONDET_APPS)
        failed += bad
    return failed


def campaign(ctx):
    setups = probe_setups(ctx)
    out = campaign_rows(ctx, ctx.seconds)
    rows, sweeps = of_kind(out, "campaign"), of_kind(out, "sweep")
    setups += probe_setups(ctx)
    failed = check_campaigns(rows)
    j1 = [s["ms"] / 1000.0 for s in sweeps if s["jobs"] == 1]
    jn = [s["ms"] / 1000.0 for s in sweeps if s["jobs"] != 1]
    runs = sum(r["runs"] for r in rows if r["jobs"] == 1)
    log(f"campaign: {len(rows)} campaigns, {runs / sum(j1):.1f} runs/s "
        f"at jobs 1, {runs / sum(jn):.1f} runs/s at jobs {ctx.nproc}")
    return len(rows), failed, e2e(stats.median(setups),
                                  probe_peak_rss_mb(out), len(rows), failed,
                                  j1, jn)


# --------------------------------------------------------------- explore

EXACT_SEARCH = ("states", "states_crc")


def check_searches(rows):
    """Failed searches: not exhausted, a seeded bug that yields a single
    final state, a final-state set that differs between jobs 1 and jobs N
    or between passes, or a jobs-1 node count that does not repeat."""
    first, first_j1 = {}, {}
    failed = 0
    for r in rows:
        ref = first.setdefault(r["app"], r)
        bad = not r["exhausted"] or r["states"] < 2
        bad |= any(r[k] != ref[k] for k in EXACT_SEARCH)
        if r["jobs"] == 1:
            bad |= r["nodes"] != first_j1.setdefault(r["app"], r)["nodes"]
        failed += bad
    return failed


def explore_rows(ctx, seconds, *extra):
    return run_probe(ctx, "explore", "--seed", ctx.seed, "--jobs", ctx.nproc,
                     "--seconds", seconds, *extra)


def explore(ctx):
    setups = probe_setups(ctx)
    out = explore_rows(ctx, ctx.seconds)
    rows, sweeps = of_kind(out, "search"), of_kind(out, "sweep")
    setups += probe_setups(ctx)
    failed = check_searches(rows)
    j1 = [s["ms"] / 1000.0 for s in sweeps if s["jobs"] == 1]
    jn = [s["ms"] / 1000.0 for s in sweeps if s["jobs"] != 1]
    log(f"explore: {len(rows)} searches, coverage {stats.median(j1):.2f} s "
        f"at jobs 1, {stats.median(jn):.2f} s at jobs {ctx.nproc}")
    return len(rows), failed, e2e(stats.median(setups),
                                  probe_peak_rss_mb(out), len(rows), failed,
                                  j1, jn)


# ----------------------------------------------------------------- serve

def expected_reports(ctx, reqs):
    """Canonical report bytes per distinct campaign, computed in-process
    with runCampaign + renderReportJson (what `icheck check --json`
    prints)."""
    distinct = {}
    for r in reqs:
        distinct.setdefault(r.campaign, r)
    path = os.path.join(ctx.workdir, "distinct.jsonl")
    with open(path, "w") as out:
        for r in distinct.values():
            out.write(r.line + "\n")
    proc = subprocess.run([ctx.probe, "reports", "--requests", path,
                           "--jobs", str(ctx.nproc)], check=True,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    reports = {}
    keys = list(distinct)
    for line in proc.stdout.splitlines():
        if line.startswith("{"):  # the probe's closing rss line
            continue
        index, _, report = line.partition("\t")
        reports[keys[int(index)]] = report
    return reports


def embedded_report(response):
    """The report object a check response embeds as its last member."""
    pos = response.find('"report":')
    if pos < 0 or not response.endswith("}"):
        return None
    return response[pos + len('"report":'):-1]


def check_responses(reqs, outcomes, reports):
    """Failed requests: not ok, or a report that differs from the
    in-process one."""
    failed = 0
    for req, out in zip(reqs, outcomes):
        ok = '"status":"ok"' in out.response
        ok &= embedded_report(out.response) == reports.get(req.campaign)
        failed += not ok
    return failed


def new_fleet(ctx):
    """Router (`--ship sync`) plus two backends, with fresh stores."""
    return Fleet(ctx.icheck, os.path.join(ctx.workdir, "fleet"))


def serve_pass(ctx, reqs, clients, rate=None, spans=None):
    """One closed- or open-loop pass on a fresh fleet; with a `spans`
    list, one span per request is recorded into it.
    Returns (setup_s, wall_s, outcomes, stats_response, fleet_rss_mb)."""
    with new_fleet(ctx) as fleet:
        setup = fleet.start()
        t0 = time.perf_counter()
        outcomes = loadgen.drive(fleet.connect, reqs, clients, rate=rate,
                                 spans=spans)
        wall = time.perf_counter() - t0
        snapshot = fleet.stats()
        rss = fleet.peak_rss_mb()
    return setup, wall, outcomes, snapshot, rss


def fleet_setups(ctx):
    """Start-to-ping times of empty fleets (each stopped right away)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        with new_fleet(ctx) as fleet:
            samples.append(fleet.start())
    return samples


def serve(ctx):
    reqs = loadgen.make_mix(ctx.seed, SERVE_REQUESTS)
    setups, j1, jn, passes = fleet_setups(ctx), [], [], []
    rss = 0.0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for clients, walls in ((1, j1), (ctx.nproc, jn)):
            setup, wall, outcomes, _, fleet_rss = serve_pass(ctx, reqs,
                                                             clients)
            setups.append(setup)
            walls.append(wall)
            passes.append(outcomes)
            rss = max(rss, fleet_rss)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pair_start) > ctx.seconds:
            break
    setups += fleet_setups(ctx)
    reports = expected_reports(ctx, reqs)
    attempted = len(reqs) * len(passes)
    failed = sum(check_responses(reqs, p, reports) for p in passes)
    log(f"serve: {len(passes)} passes of {len(reqs)} requests, "
        f"{len(reqs) / stats.median(jn):.0f} req/s with {ctx.nproc} clients; "
        f"walls j1 {[round(w, 2) for w in j1]}, jN {[round(w, 2) for w in jn]}")
    return attempted, failed, e2e(stats.median(setups),
                                  self_peak_rss_mb() + rss, attempted,
                                  failed, j1, jn)


def log(message):
    print(message, flush=True)


WORKLOADS = {"campaign": campaign, "explore": explore, "serve": serve}
