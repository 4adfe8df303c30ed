"""The traced run (`--trace 1`): per-layer metrics and the layer stack.

Every workload's traced run reports every per-layer metric. The layers
its own batch crosses are measured on that batch (full scale, with the
benchmark's spans around each public call); the other layers are
measured on a small fixed census of the same kind, so that each metric
is defined on every workload and compares like with like between
commits. The layer stack (see Trace.stack) is measured on every workload.

Spans (name, start, end, parent, campaign or request id) are kept in
memory and written to <build dir>/trace-<workload>-<seed>.jsonl at exit.
"""

import json
import os

import loadgen
import stats
import workloads

SCHEMES = ("hw", "swinc", "swtr")
STACK_CLOSURE = 0.10  # the layer stack must sum to end to end within this

# Open-loop reference rate and goodput ladder (requests/s) for the serve
# mix on two 2-worker backends. On a 4-core Xeon host the fleet
# completed about 290 req/s of this mix from 4 closed-loop clients, and
# cold 8-run requests had a 98th-percentile latency near 33 ms at
# 100 req/s and 86 ms at 300 req/s.
REF_RATE = 150
LADDER = (100, 150, 200, 250, 300, 350)
LADDER_SECONDS = 2.5
CENSUS_LADDER = (100, 200, 300)
CENSUS_LADDER_SECONDS = 1.0
COLD_LIMIT_MS = 50.0

CENSUS_CAMPAIGN = ("--apps", "ocean,radix,barnes", "--input", "medium",
                   "--runs", "8")


def read_spans(path):
    spans = []
    if os.path.exists(path):
        with open(path) as f:
            spans = [json.loads(line) for line in f]
    return spans


def ms_spans(spans, name):
    return [(s["end"] - s["start"]) / 1000.0 for s in spans
            if s["name"] == name]


class Trace:
    def __init__(self, ctx):
        self.ctx = ctx
        self.spans = []
        self.metrics = {}
        self.attempted = 0
        self.failed = 0

    def put(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def add_spans(self, spans, source):
        """Keep `spans` (numbered within their source) for the trace."""
        for i, span in enumerate(spans):
            span.setdefault("i", i)
            span["source"] = source
        self.spans += spans

    def span_file(self, tag):
        return os.path.join(self.ctx.workdir, f"spans-{tag}.jsonl")

    # ---------------------------------------------------------- campaign

    def campaign(self, full):
        of_kind = workloads.of_kind
        args = () if full else CENSUS_CAMPAIGN
        out = workloads.campaign_rows(self.ctx, 0, *args)
        rows, sweeps = of_kind(out, "campaign"), of_kind(out, "sweep")
        path = self.span_file("campaign")
        out = workloads.campaign_rows(self.ctx, 0, *args, "--traced",
                                      "--spans", path)
        trows, tsweeps = of_kind(out, "campaign"), of_kind(out, "sweep")
        spans = read_spans(path)
        self.add_spans(spans, "campaign")
        self.count(len(rows) + len(trows),
                   workloads.check_campaigns(rows + trows))
        # Speed-up of run-level parallelism: single-worker campaign time
        # over the jobs-N batch's wall time, per worker.
        serial = sum(r["ms"] for r in rows if r["jobs"] == 1)
        un = sum(s["ms"] for s in sweeps if s["jobs"] != 1)
        self.put("runtime.pool_efficiency", serial / un / self.ctx.nproc,
                 "ratio")
        jn = [r for r in trows if r["jobs"] != 1]
        self.put("runtime.run0_share",
                 sum(r["run0_ms"] for r in jn) / sum(r["ms"] for r in jn),
                 "ratio")
        self.put("check.analyze_ms",
                 stats.median(ms_spans(spans, "analyzeCampaign")), "ms")
        self.put("check.render_ms",
                 stats.median(ms_spans(spans, "renderReportJson")), "ms")
        selfs = stats.self_times(spans)
        self.put("trace.campaign_self_ms",
                 stats.median([selfs[s["i"]] / 1000.0 for s in spans
                               if s["name"] == "campaign"]), "ms")
        if full:
            # Traced campaigns are driven one public call at a time (on
            # the same pool), so this includes that change of driver.
            u = sum(s["ms"] for s in sweeps)
            t = sum(s["ms"] for s in tsweeps)
            self.put("trace.overhead_frac", t / u - 1.0, "ratio")

    # ----------------------------------------------------------- explore

    def explore(self, full):
        of_kind = workloads.of_kind
        scale = ("--scale", "full" if full else "small")
        out = workloads.explore_rows(self.ctx, 0, *scale)
        rows, sweeps = of_kind(out, "search"), of_kind(out, "sweep")
        path = self.span_file("explore")
        out = workloads.explore_rows(self.ctx, 0, *scale, "--spans", path)
        trows, tsweeps = of_kind(out, "search"), of_kind(out, "sweep")
        self.add_spans(read_spans(path), "explore")
        self.count(len(rows) + len(trows),
                   workloads.check_searches(rows + trows))
        # Counts come from one copy of the list (every jobs-1 copy must
        # match, see check_searches); time per node from all of them.
        j1 = [r for r in rows if r["jobs"] == 1]
        one = list({r["app"]: r for r in reversed(j1)}.values())
        jn = list({r["app"]: r for r in reversed(rows)
                   if r["jobs"] != 1}.values())

        def total(key, group=one):
            return sum(r[key] for r in group)

        nodes1, nodesn = total("nodes"), total("nodes", jn)
        self.put("explore.nodes.j1", nodes1, "count")
        self.put("explore.nodes.jN", nodesn, "count")
        self.put("explore.parallel_extra_nodes", nodesn / nodes1, "ratio")
        self.put("explore.ms_per_node.j1",
                 total("ms", j1) / total("nodes", j1), "ms")
        hits = total("checkpoint_hits")
        self.put("explore.checkpoint_hit_ratio",
                 hits / (hits + total("checkpoint_misses")), "ratio")
        restored = total("decisions_restored")
        self.put("explore.restored_share",
                 restored / (restored + total("decisions_executed")), "ratio")
        self.put("explore.sig_dedup_ratio",
                 1.0 - total("sig_unique") / total("sig_inserts"), "ratio")
        self.put("explore.dpor_races", total("dpor_races"), "count")
        self.put("explore.backtracks", total("backtracks"), "count")
        self.put("explore.checkpoint_bytes", total("checkpoint_bytes"),
                 "bytes")
        self.put("mem.cow_pages_cloned", total("pages_cow_cloned"), "count")
        if full:
            u = sum(s["ms"] for s in sweeps)
            t = sum(s["ms"] for s in tsweeps)
            self.put("trace.overhead_frac", t / u - 1.0, "ratio")

    # ------------------------------------------------------------- serve

    def serve(self, full):
        ctx = self.ctx
        count = 2 * workloads.SERVE_REQUESTS if full else 300
        reqs = loadgen.make_mix(ctx.seed, count)

        # Open loop at the reference rate: latency from due time.
        spans = []
        _, _, outs, snap, _ = workloads.serve_pass(ctx, reqs, ctx.nproc,
                                                   rate=REF_RATE, spans=spans)
        self.add_spans(spans, "loadgen")
        reports = workloads.expected_reports(ctx, reqs)
        self.count(len(reqs), workloads.check_responses(reqs, outs, reports))
        cold = [o.latency_ms for r, o in zip(reqs, outs) if r.kind == "cold"]
        warm = [o.latency_ms for r, o in zip(reqs, outs) if r.kind != "cold"]
        for name, values in (("cold", cold), ("warm", warm)):
            self.put(f"serve.{name}_p50_ms", stats.median(values), "ms")
            self.put(f"serve.{name}_tail_ms", stats.tail(values)[1], "ms")
        self.put("loadgen.late_tail_ms",
                 stats.tail([o.late_ms for o in outs])[1], "ms")
        fleet = snap["fleet"]
        self.put("service.dedup_hit_rate",
                 fleet["aggregate"]["dedupHitRate"], "ratio")
        self.put("service.units_executed",
                 fleet["aggregate"]["unitsExecuted"], "count")
        per = [b["stats"] for b in fleet["perBackend"]]
        busy = sum(b["busyRejected"] for b in per)
        self.put("service.accepted_frac", 1.0 - busy / len(reqs), "ratio")
        checks = [b["checksCompleted"] for b in per]
        self.put("fleet.balance", max(checks) / (sum(checks) / len(checks)),
                 "ratio")
        self.put("fleet.frames_replicated",
                 fleet["router"]["framesReplicated"], "count")

        # Goodput ladder: fresh fleet per rung.
        rungs = []
        ladder = LADDER if full else CENSUS_LADDER
        seconds = LADDER_SECONDS if full else CENSUS_LADDER_SECONDS
        for rate in ladder:
            rung_reqs = loadgen.make_mix(ctx.seed, int(rate * seconds),
                                         tag=f"g{rate}-")
            _, _, routs, _, _ = workloads.serve_pass(ctx, rung_reqs,
                                                     ctx.nproc, rate=rate)
            rcold = [o.latency_ms for r, o in zip(rung_reqs, routs)
                     if r.kind == "cold"]
            found = stats.tail(rcold)
            rungs.append({"rate": rate,
                          "tail_ms": found[1] if found else None,
                          "failed": sum('"status":"ok"' not in o.response
                                        for o in routs),
                          "backlog": loadgen.backlog_series(routs)})
            workloads.log(f"ladder {rate}/s: cold tail "
                          f"{rungs[-1]['tail_ms']} ms, backlog "
                          f"{rungs[-1]['backlog']}")
        self.put("serve.goodput_rps", stats.goodput(rungs, COLD_LIMIT_MS),
                 "1/s")

        # The same list through one in-process Service.
        path = os.path.join(ctx.workdir, "mix.jsonl")
        with open(path, "w") as f:
            f.writelines(r.line + "\n" for r in reqs)
        spans_path = self.span_file("service")
        rows = workloads.of_kind(workloads.run_probe(
            ctx, "service", "--requests", path, "--jobs", ctx.nproc,
            "--spans", spans_path), "handle")
        self.add_spans(read_spans(spans_path), "service")
        self.count(len(rows), sum(not r["ok"] for r in rows))
        self.put("service.handle_cold_ms",
                 stats.median([r["ms"] for q, r in zip(reqs, rows)
                               if q.kind == "cold"]), "ms")
        self.put("service.handle_warm_ms",
                 stats.median([r["ms"] for q, r in zip(reqs, rows)
                               if q.kind != "cold"]), "ms")

        if full:
            # The same closed-loop pass without and with span recording.
            closed = reqs[:workloads.SERVE_REQUESTS]
            _, untraced, _, _, _ = workloads.serve_pass(ctx, closed,
                                                        ctx.nproc)
            spans = []
            _, traced, _, _, _ = workloads.serve_pass(ctx, closed, ctx.nproc,
                                                      spans=spans)
            self.add_spans(spans, "loadgen-closed")
            self.put("trace.overhead_frac", traced / untraced - 1.0, "ratio")

    # ------------------------------------------------------- layer stack

    def stack(self):
        """The layer stack of one small campaign (the probe's `layers`):
        native Machine -> +MHM -> +scheme listener -> +analyze/render ->
        +persisting its frames -> +service envelope -> +daemon transport
        -> +router hop -> +sync ship hold.

        The execution steps are paired per rep on the campaign's runs.
        The envelope, transport and router hop are measured on warm
        requests (every unit from the store, so nothing executes): the
        in-process Service, a direct daemon, a router shipping async. The
        ship hold is sync minus async on the cold request, which ships
        every frame. Each step is the median of its per-rep deltas. Their
        sum is checked against the cold request through the sync router:
        no single measurement gives both, so a layer left out or counted
        twice shows as a gap. A negative step, or a gap over
        STACK_CLOSURE, fails the check. The probe hosts the daemons and
        routers itself, all on one CPU (see HostedFleet in probe.cpp)."""
        ctx = self.ctx
        rows = workloads.run_probe(ctx, "layers", "--seed",
                                   1000 + 1000 * ctx.seed, cwd=ctx.workdir)

        of_kind = workloads.of_kind
        machine = of_kind(rows, "machine")
        scheme = {s: [r for r in of_kind(rows, "scheme") if r["scheme"] == s]
                  for s in SCHEMES}
        service = of_kind(rows, "service")
        fleet = {name: [r for r in of_kind(rows, "fleet")
                        if r["fleet"] == name]
                 for name in ("direct", "async", "sync")}
        oks = [r["ok"] for r in service + of_kind(rows, "fleet")]
        self.count(len(oks), oks.count(False))

        def med(pairs, fn):
            """Median over reps of fn(row, ...) on rows paired by rep."""
            return stats.median([fn(*rep) for rep in zip(*pairs)])

        runs = machine[0]["runs"]
        top = scheme[service[0]["scheme"]]
        native = med([machine], lambda m: m["native_ms"])
        armed = med([machine], lambda m: m["armed_ms"] - m["native_ms"])
        first = machine[0]
        self.put("sim.native_ms_per_run", native / runs, "ms")
        self.put("sim.ns_per_instr", native * 1e6 / first["native_instrs"],
                 "ns")
        self.put("sim.native_instrs", first["native_instrs"], "count")
        self.put("sim.checkpoints", first["checkpoints"], "count")
        accesses = first["cache_hits"] + first["cache_misses"]
        self.put("cache.hit_ratio", first["cache_hits"] / accesses, "ratio")
        self.put("cache.accesses", accesses, "count")
        self.put("mhm.armed_delta_ms_per_run", armed / runs, "ms")
        self.put("mhm.stores_hashed", first["stores_hashed"], "count")
        for s in SCHEMES:
            self.put(f"check.listener_delta_ms_per_run.{s}",
                     med([machine, scheme[s]],
                         lambda m, r: r["run_ms"] - m["armed_ms"]) / runs,
                     "ms")
            self.put(f"check.overhead_ratio.{s}",
                     scheme[s][0]["overhead_factor"], "ratio")
        steps = {
            "stack.native_ms": native,
            "stack.mhm_ms": armed,
            "stack.listener_ms": med([machine, top],
                                     lambda m, r: r["run_ms"] - m["armed_ms"]),
            "stack.analyze_render_ms": med(
                [top], lambda r: r["analyze_ms"] + r["render_ms"]),
            "stack.store_ms": med([service], lambda v: v["persist_ms"]),
            "service.envelope_ms": med(
                [service, top], lambda v, r: v["handle_warm_ms"] -
                r["analyze_ms"] - r["render_ms"]),
            "service.transport_ms": med(
                [fleet["direct"], service],
                lambda d, v: d["warm_ms"] - v["handle_warm_ms"]),
            "fleet.router_hop_ms": med(
                [fleet["async"], fleet["direct"]],
                lambda a, d: a["warm_ms"] - d["warm_ms"]),
            "fleet.ship_hold_ms": med(
                [fleet["sync"], fleet["async"]],
                lambda y, a: y["cold_ms"] - a["cold_ms"]),
        }
        for name, value in steps.items():
            self.put(name, value, "ms")
        self.put("service.store_put_us",
                 med([service], lambda v: v["store_put_us"]), "us")
        self.put("service.store_get_us",
                 med([service], lambda v: v["store_get_us"]), "us")
        total = sum(steps.values())
        e2e = med([fleet["sync"]], lambda y: y["cold_ms"])
        self.put("stack.sum_ms", total, "ms")
        self.put("stack.e2e_ms", e2e, "ms")
        closes = (min(steps.values()) > 0.0
                  and abs(total / e2e - 1.0) <= STACK_CLOSURE)
        self.count(1, not closes)
        workloads.log("layer stack (ms): " + ", ".join(
            f"{k}={v:.3f}" for k, v in steps.items()) +
            f"; sum {total:.3f} vs cold routed request {e2e:.3f}" +
            ("" if closes else " -- DOES NOT CLOSE"))

    def write(self, workload):
        path = os.path.join(os.path.dirname(self.ctx.workdir),
                            f"trace-{workload}-{self.ctx.seed}.jsonl")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def traced(ctx, workload):
    trace = Trace(ctx)
    trace.stack()
    trace.campaign(workload == "campaign")
    trace.explore(workload == "explore")
    trace.serve(workload == "serve")
    trace.write(workload)
    return trace.attempted, trace.failed, trace.metrics
