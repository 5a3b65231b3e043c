"""The three benchmark workloads.

Each ``run_<workload>(ctx)`` sets up, measures for ``ctx.seconds``,
checks every output, and fills ``ctx.metrics`` (end-to-end metrics
untraced, per-layer metrics traced).  Inputs come only from
``ctx.seed``: the submission order of the Table 6 corpus, the
synthetic corpora's base seeds, and the service's request mix.
"""

from __future__ import annotations

import http.client
import importlib
import json
import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from perfbench import layers
from perfbench.checks import (
    Gate,
    Goldens,
    check_report_dict,
    digest,
    speedup_error,
    text_digest,
)
from perfbench.harness import (
    Patches,
    Tracer,
    geomean,
    median,
    percentile,
    reap_children,
    run_open_loop,
)

#: set-ups per run; ``setup_s`` reports their median.  A fleet set-up
#: (pool start and priming, or corpus generation) takes well under a
#: second and varies by a fifth from one to the next, so it is repeated
#: more often than a daemon set-up, which primes 26 analyses in about
#: 4.5 s and varies by a few percent
SETUP_REPS = 5
SERVICE_SETUP_REPS = 3
#: analysis latency percentiles reported end to end: p85 has eleven
#: samples above it in three Table 6 passes (78 analyses) or one 30 s
#: service window (78 sweeps)
LATENCY_QUANTILES = (50, 85)
#: table6-cold measures at least this many passes (78 analyses)
MIN_TABLE6_PASSES = 3
#: synth-cold spreads a run over this many corpora generated from the
#: seed: one corpus's analysis rate differs from another seed's by
#: several percent (15.4 vs 16.4 analyses/s for base seeds 1 and 2)
SYNTH_CORPORA = 4
#: service-sweep: offered load in arrivals/s, evenly spaced and
#: alternating sweep, warm; at 30 s that is 78 sweeps (every Table 6
#: workload at every CPU count of SWEEP_CPUS) and 78 warm arrivals.
#: The daemon computes for about a fifth of the window at this rate, so a
#: slower host lengthens the queue less than it would at a higher one
SERVICE_RATE = 5.2
#: sweep requests re-run in-process for the cross-path digest check
CROSS_CHECKS = 2
#: sweeps vary selection-side Hydra fields only (the profile artifact
#: is reused).  Every workload is swept once at each CPU count, and the
#: Table 2 overheads move by at most one cycle around their defaults:
#: wider draws change which loops are selected, and with them the work
#: a window holds, from one seed to the next
SWEEP_CPUS = (2, 4, 8)
SWEEP_FIELDS = {
    "startup_overhead": (24, 26),
    "shutdown_overhead": (24, 26),
    "eoi_overhead": (4, 6),
    "violation_restart_overhead": (4, 6),
    "store_load_comm_overhead": (9, 11),
}
DAEMON_START_TIMEOUT = 60.0


class Context:
    """One benchmark run's arguments, gate and results."""

    def __init__(self, root: str, workload: str, seed: int,
                 seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.gate = Gate()
        self.attempted = 0
        self.metrics: Dict[str, float] = {}
        self.import_s = self.setup_s = self.generate_s = 0.0
        self.tracer = Tracer()
        self.scratch = os.path.join(root, ".bench_tmp",
                                    "%s-%d" % (workload, os.getpid()))
        os.makedirs(self.scratch, exist_ok=True)

    def path(self, *parts: str) -> str:
        return os.path.join(self.scratch, *parts)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.scratch))
        except OSError:
            pass  # another run's scratch is still there


#: the program's packages a user's process imports before analysing
IMPORTED = ("repro.jrpm", "repro.service.server", "repro.synth")


def _program_env(root: str) -> Dict[str, str]:
    """This process's environment with the program's sources first on
    the module path, for the interpreters the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _timed_import(root: str) -> float:
    """Median over SETUP_REPS fresh interpreters of the time to import
    the program; then the imports in this process."""
    code = ("import time; started = time.perf_counter(); import %s; "
            "print(time.perf_counter() - started)" % ", ".join(IMPORTED))
    times = [float(subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=_program_env(root),
        capture_output=True, text=True, check=True).stdout)
        for _ in range(SETUP_REPS)]
    for name in IMPORTED:
        importlib.import_module(name)
    return median(times)


def timed_analysis(workload, config, simulate_tls, cache, **jrpm_kwargs):
    """Fleet task: the executor's default unit of work (one pipeline
    run into a FleetRow), plus the analysis's own duration.
    Module-level so pool workers import it by reference."""
    from repro.jrpm import FleetRow, Jrpm
    started = time.perf_counter()
    report = Jrpm(source=workload.source(), name=workload.name,
                  config=config, cache=cache, **jrpm_kwargs
                  ).run(simulate_tls=simulate_tls)
    row = FleetRow(workload, report)
    row.analysis_s = time.perf_counter() - started
    return row


# -- fleet workloads ----------------------------------------------------------

class FleetPass:
    """One pass's rows with their canonical reports and digests."""

    def __init__(self, rows, wall_s: float, outputs: List[Optional[tuple]]):
        self.rows = rows
        self.wall_s = wall_s
        self.outputs = outputs


def _fleet_pass(executor, workloads, cache_dir: Optional[str],
                boundary: bool, tracer: Optional[Tracer] = None
                ) -> FleetPass:
    """Run the corpus once and serialize every report canonically,
    as ``jrpm fleet --json`` does.  ``boundary`` adds the pickle round
    trip a pool worker's report makes, for passes run in-process."""
    from repro.jrpm import ArtifactCache, report
    if cache_dir is not None:
        executor.cache = ArtifactCache(directory=cache_dir)
    tracer = tracer or Tracer()
    started = time.perf_counter()
    with tracer.span("harness.pass"):
        result = executor.run(workloads)
        outputs: List[Optional[tuple]] = []
        for row in result.rows:
            if not row.ok:
                outputs.append(None)
                continue
            if boundary:
                layers.pickle_round_trip(tracer, row.report)
            as_dict = report.report_to_dict(row.report)
            text = report.dumps_canonical(as_dict)
            outputs.append((as_dict, text_digest(text)))
    wall = time.perf_counter() - started
    if cache_dir is not None:
        tracer.count("cache.blob_bytes", sum(
            entry.stat().st_size for entry in os.scandir(cache_dir)))
    return FleetPass(result.rows, wall, outputs)


def _check_pass(ctx: Context, label: str, fleet: FleetPass, goldens: Goldens,
                digests: Dict[str, str], labels: bool) -> None:
    from repro.synth.oracle import check_label
    gate = ctx.gate
    ctx.attempted += len(fleet.rows)
    for row, output in zip(fleet.rows, fleet.outputs):
        op = "%s:%s" % (label, row.name)
        if output is None:
            gate.fail(op, "analysis failed: %s" % getattr(row, "error", "?"))
            continue
        as_dict, dig = output
        goldens.check_run(gate, op, row.workload, row.report.sequential)
        check_report_dict(gate, op, as_dict)
        first = digests.setdefault(row.name, dig)
        gate.check(first == dig, op, "report digest differs across paths")
        if labels:
            label_row = check_label(row.workload, row.report)
            gate.check(label_row.satisfied, op, label_row.detail)


def _quality(dicts: List[Dict]) -> Dict[str, float]:
    return {
        "sim_speedup_gm": geomean([d["actual_speedup"] for d in dicts]),
        "est_error_mean": sum(speedup_error(d) for d in dicts) / len(dicts),
    }


def _run_fleet(ctx: Context, corpora: List[List], jobs: int,
               use_cache: bool, min_passes: int, labels: bool) -> None:
    """The shared body of table6-cold and synth-cold: pass ``i`` runs
    ``corpora[i % len(corpora)]``; every corpus runs at least once."""
    from repro.jrpm import FleetExecutor
    goldens = Goldens(ctx.root)
    # the traced run goes in-process so the wrappers see every layer;
    # a parallel fleet's report boundary is replayed per row instead
    run_jobs = 1 if ctx.trace else jobs
    boundary = ctx.trace and jobs > 1
    workloads = corpora[0]
    min_passes = max(min_passes, len(corpora))
    smallest = min(workloads, key=lambda w: len(w.source()))

    setups: List[float] = []
    executor = None
    for rep in range(SETUP_REPS):
        started = time.perf_counter()
        executor = FleetExecutor(jobs=run_jobs, persistent=run_jobs > 1,
                                 on_error="row", task=timed_analysis,
                                 models="all", trace_jit=True)
        # start every worker (or, serially, this process) and warm
        # its imports, so the first timed pass pays no first-call cost
        primed = executor.run([smallest] * run_jobs)
        ctx.gate.check(all(r.ok for r in primed.rows), "setup",
                       "priming analysis failed")
        setups.append(time.perf_counter() - started)
        if rep + 1 < SETUP_REPS:
            executor.close()
            reap_children()
    ctx.setup_s = ctx.import_s + ctx.generate_s + median(setups)

    def cache_dir(index: int) -> Optional[str]:
        return ctx.path("cache-%d" % index) if use_cache else None

    digests: Dict[str, str] = {}
    try:
        if ctx.trace:
            ref = _fleet_pass(executor, workloads, cache_dir(0),
                              boundary)
            _check_pass(ctx, "ref", ref, goldens, digests, labels)
            tracer = ctx.tracer
            with Patches() as patches:
                layers.install(patches, tracer)
                tracer.reset()
                traced = _fleet_pass(executor, workloads, cache_dir(1),
                                     boundary, tracer)
            ctx.gate.check(patches.all_restored(), "trace",
                           "a layer wrapper was not restored")
            _check_pass(ctx, "traced", traced, goldens, digests, labels)
            wall = tracer.roots().get(("MainThread", "harness.pass"), 0.0)
            ctx.metrics = layers.layer_table(
                tracer.spans(), tracer.counts(), wall,
                {"trace.overhead_frac": traced.wall_s / ref.wall_s - 1,
                 "synth.generate_s": ctx.generate_s})
            return
        latencies: List[float] = []
        walls: List[float] = []
        rows = 0
        reports: List[Dict] = []
        started = time.perf_counter()
        # whole passes until the next would end past --seconds by more
        # than half a pass
        while len(walls) < min_passes or (
                time.perf_counter() - started
                + sum(walls) / len(walls) / 2 < ctx.seconds):
            directory = cache_dir(len(walls))
            corpus = corpora[len(walls) % len(corpora)]
            fleet = _fleet_pass(executor, corpus, directory, False)
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)
            _check_pass(ctx, "pass%d" % len(walls), fleet, goldens,
                        digests, labels)
            walls.append(fleet.wall_s)
            rows += len(fleet.rows)
            latencies.extend(row.analysis_s * 1e3 for row in fleet.rows
                             if row.ok)
            if len(walls) <= len(corpora):
                reports.extend(out[0] for out in fleet.outputs if out)
            # reports hold their recordings; keeping every pass's
            # would grow the benchmark's own peak RSS with the run
            del fleet
    finally:
        executor.close()
        reap_children()

    ctx.metrics.update({
        "throughput_per_s": rows / sum(walls),
        "analysis_p50_ms": percentile(latencies, LATENCY_QUANTILES[0]),
        "analysis_p85_ms": percentile(latencies, LATENCY_QUANTILES[1]),
    })
    ctx.metrics.update(_quality(reports))


def run_table6_cold(ctx: Context) -> None:
    """The paper's 26-workload corpus, cold, through a parallel fleet
    with a fresh disk-backed artifact cache per pass."""
    ctx.import_s = _timed_import(ctx.root)
    from repro.workloads.registry import all_workloads
    workloads = all_workloads()
    random.Random(ctx.seed).shuffle(workloads)
    _run_fleet(ctx, [workloads], jobs=os.cpu_count() or 1, use_cache=True,
               min_passes=MIN_TABLE6_PASSES, labels=False)


def run_synth_cold(ctx: Context) -> None:
    """100-instance synthetic corpora (5 families x 20) at base seeds
    derived from the seed, serially and without a cache."""
    ctx.import_s = _timed_import(ctx.root)
    from repro.synth import generate_corpus
    times = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        corpora = [generate_corpus(base_seed=ctx.seed * SYNTH_CORPORA + k)
                   for k in range(SYNTH_CORPORA)]
        times.append(time.perf_counter() - started)
    ctx.generate_s = median(times)
    _run_fleet(ctx, corpora, jobs=1, use_cache=False, min_passes=1,
               labels=True)


# -- service workload ---------------------------------------------------------

def _body(name: str, models: List[str],
          config: Optional[Dict[str, int]] = None) -> bytes:
    body: Dict[str, Any] = {"workload": name, "models": models}
    if config:
        body["config"] = config
    return json.dumps(body, sort_keys=True).encode()


class ServiceMix:
    """The seeded request schedule, each class spread evenly over the
    corpus.  A *warm* arrival is a client fetching two finished results
    back to back on its keep-alive connection (two result-LRU hits); a
    *sweep* arrival is one selection-side variation of a primed
    request.  ``requests[i]`` is ``(kind, [(name, config, body), ...])``.
    """

    def __init__(self, names: List[str], models: List[str], count: int,
                 rng: random.Random, used: set):
        kinds = ["warm" if i % 2 else "sweep" for i in range(count)]
        sweeps = kinds.count("sweep")
        warm_names = self._spread(names, 2 * (count - sweeps), rng)
        sweep_points = self._spread(
            [(name, cpus) for name in names for cpus in SWEEP_CPUS],
            sweeps, rng)
        self.offsets = [i / SERVICE_RATE for i in range(count)]
        self.requests: List[tuple] = []
        for kind in kinds:
            if kind == "warm":
                calls = []
                for _ in range(2):
                    name = warm_names.pop()
                    calls.append((name, None, _body(name, models)))
                self.requests.append(("warm", calls))
                continue
            name, cpus = sweep_points.pop()
            while True:
                config = {field: rng.randint(lo, hi)
                          for field, (lo, hi) in sorted(SWEEP_FIELDS.items())}
                config["n_cpus"] = cpus
                key = (name, tuple(sorted(config.items())))
                if key not in used:
                    used.add(key)
                    break
            self.requests.append(
                ("sweep", [(name, config, _body(name, models, config))]))

    @staticmethod
    def _spread(items: List, count: int, rng: random.Random) -> List:
        """``count`` items, each used once per round, in seeded order."""
        out: List = []
        while len(out) < count:
            batch = list(items)
            rng.shuffle(batch)
            out.extend(batch)
        return out[:count]


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple:
    conn.request("POST", "/analyze", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


class Daemon:
    """``jrpm serve`` in its own process (untraced runs)."""

    def __init__(self, ctx: Context, cache_dir: str):
        self.log = open(ctx.path("daemon-%d.log" % time.monotonic_ns()), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.jrpm.cli", "serve", "--port", "0",
             "--jobs", "1", "--cache-dir", cache_dir],
            cwd=ctx.root, env=_program_env(ctx.root), stdout=subprocess.PIPE,
            stderr=self.log,
            text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    DAEMON_START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[^:]+:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError("daemon did not start: %r" % line)
        self.port = int(match.group(1))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class InProcess:
    """The same daemon inside the benchmark process (traced runs), so
    the layer wrappers reach it."""

    def __init__(self, ctx: Context, cache_dir: str):
        from repro.jrpm import ArtifactCache
        from repro.service.server import AnalysisService
        self.service = AnalysisService(
            port=0, jobs=1, cache=ArtifactCache(directory=cache_dir)).start()
        self.port = self.service.port

    def stop(self) -> None:
        self.service.stop()


def _prime(ctx: Context, port: int, names: List[str], models: List[str],
           goldens: Goldens, primed: Dict[str, tuple], label: str) -> None:
    """One cold analysis per Table 6 workload; results must agree
    with the first set-up's (the later set-ups read the warm
    artifact cache)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
    try:
        for name in names:
            op = "%s:%s" % (label, name)
            ctx.attempted += 1
            status, data = _post(conn, _body(name, models))
            if not ctx.gate.check(status == 200, op, "HTTP %d" % status):
                continue
            report_dict = json.loads(data)["report"]
            if not check_report_dict(ctx.gate, op, report_dict):
                continue
            goldens.check_cycles(ctx.gate, op, name, report_dict)
            dig = digest(report_dict)
            first = primed.setdefault(name, (report_dict, dig))
            ctx.gate.check(first[1] == dig, op,
                           "primed report differs across set-ups")
    finally:
        conn.close()


def _window(ctx: Context, port: int, mix: ServiceMix,
            tracer: Optional[Tracer] = None) -> List:
    # arrivals alternate sweep, warm; each (sweep, warm) couple goes to
    # the next connection, so consecutive sweeps use different
    # connections and a sweep that waited behind a slow one is not also
    # sent straight after a response on the same connection (the
    # keep-alive stall the warm pairs are there to show)
    lanes = os.cpu_count() or 1

    def connect():
        return http.client.HTTPConnection("127.0.0.1", port, timeout=600)

    def post(conn, body):
        if tracer is None:
            return _post(conn, body)
        with tracer.span("harness.request", record=False):
            return _post(conn, body)

    def send(conn, request):
        return [post(conn, body) for _, _, body in request[1]]

    def lane(index):
        return index // 2 % lanes

    return run_open_loop(mix.requests, mix.offsets, lanes, connect, send,
                         close=lambda conn: conn.close(), lane=lane)


def _check_window(ctx: Context, label: str, mix: ServiceMix, done: List,
                  goldens: Goldens, primed: Dict[str, tuple],
                  sweeps: Dict[tuple, str]) -> None:
    gate = ctx.gate
    for item in done:
        kind, calls = mix.requests[item.index]
        ctx.attempted += len(calls)
        for call, (name, config, _) in enumerate(calls):
            op = "%s:%d.%d:%s:%s" % (label, item.index, call, kind, name)
            if item.error is not None:
                gate.fail(op, item.error)
                continue
            status, data = item.result[call]
            if not gate.check(status == 200, op, "HTTP %d" % status):
                continue
            report_dict = json.loads(data)["report"]
            if not check_report_dict(gate, op, report_dict):
                continue
            goldens.check_cycles(gate, op, name, report_dict)
            dig = digest(report_dict)
            if kind == "warm":
                gate.check(dig == primed[name][1], op,
                           "warm response differs from the primed report")
            else:
                sweeps[(name, tuple(sorted(config.items())))] = dig


def _cross_check(ctx: Context, sweeps: Dict[tuple, str]) -> None:
    """Re-run a seeded sample of sweep requests through the in-process
    fleet path; the canonical bytes must equal the service's."""
    from repro.hydra.config import HydraConfig
    from repro.jrpm import FleetExecutor
    from repro.jrpm.report import report_to_dict
    from repro.workloads.registry import get_workload
    keys = sorted(sweeps)
    sample = random.Random(ctx.seed).sample(keys, min(CROSS_CHECKS, len(keys)))
    executor = FleetExecutor(jobs=1, on_error="row", task=timed_analysis,
                             models="all", trace_jit=True)
    for name, config in sample:
        op = "cross:%s:%r" % (name, config)
        ctx.attempted += 1
        result = executor.run([get_workload(name)],
                              config=HydraConfig(**dict(config)))
        row = result.rows[0]
        if not ctx.gate.check(row.ok, op, "fleet analysis failed"):
            continue
        ctx.gate.check(digest(report_to_dict(row.report))
                       == sweeps[(name, config)], op,
                       "service and fleet reports differ")


def _class_latency(mix: ServiceMix, done: List, kind: str) -> List[float]:
    return [item.latency * 1e3 for item in done
            if mix.requests[item.index][0] == kind and item.error is None]


def run_service_sweep(ctx: Context) -> None:
    """A resident daemon driven over keep-alive HTTP in an open loop:
    warm repeats (result-LRU hits) and selection-side sweeps."""
    ctx.import_s = _timed_import(ctx.root)
    from repro.models import model_names
    from repro.workloads.registry import all_workloads
    goldens = Goldens(ctx.root)
    names = [w.name for w in all_workloads()]
    models = list(model_names())
    cache_dir = ctx.path("service-cache")
    start = InProcess if ctx.trace else Daemon
    rng = random.Random(ctx.seed)
    used: set = set()
    count = int(round(SERVICE_RATE * ctx.seconds))

    primed: Dict[str, tuple] = {}
    setups: List[float] = []
    daemon = None
    try:
        for rep in range(SERVICE_SETUP_REPS):
            started = time.perf_counter()
            daemon = start(ctx, cache_dir)
            _prime(ctx, daemon.port, names, models, goldens, primed,
                   "prime%d" % rep)
            setups.append(time.perf_counter() - started)
            if rep + 1 < SERVICE_SETUP_REPS:
                daemon.stop()
                daemon = None
        ctx.setup_s = ctx.import_s + median(setups)

        sweeps: Dict[tuple, str] = {}
        mix = ServiceMix(names, models, count, rng, used)
        done = _window(ctx, daemon.port, mix)
        _check_window(ctx, "window", mix, done, goldens, primed, sweeps)
        if ctx.trace:
            _traced_window(ctx, daemon, names, models, count, rng, used,
                           goldens, primed, sweeps, mix, done)
    finally:
        if daemon is not None:
            daemon.stop()
    reap_children()
    _cross_check(ctx, sweeps)
    if ctx.trace:
        return

    ok = sum(1 for item in done if item.error is None
             for status, _ in item.result if status == 200)
    latencies = _class_latency(mix, done, "sweep")
    span = max(item.done for item in done) - min(item.due for item in done)
    prime_dicts = [primed[name][0] for name in names]
    ctx.metrics.update({
        "throughput_per_s": ok / span,
        "analysis_p50_ms": percentile(latencies, LATENCY_QUANTILES[0]),
        "analysis_p85_ms": percentile(latencies, LATENCY_QUANTILES[1]),
        "sim_speedup_gm": geomean([d["actual_speedup"]
                                   for d in prime_dicts]),
        "est_error_mean": sum(speedup_error(d) for d in prime_dicts)
        / len(prime_dicts),
    })


def _traced_window(ctx: Context, daemon: InProcess, names, models, count,
                   rng, used, goldens, primed, sweeps, ref_mix, ref_done
                   ) -> None:
    """A second window with the layer wrappers on, and the per-layer
    table.  Spans of one request live on three threads (client,
    handler, dispatcher), so the request's round trip is split by
    subtraction: HTTP = round trip - handler work, handler self =
    handler spans - dispatcher work."""
    tracer = ctx.tracer
    metrics = daemon.service.metrics
    mix = ServiceMix(names, models, count, rng, used)
    hits0 = metrics.counters.get("result_cache_hits", 0)
    with Patches() as patches:
        layers.install(patches, tracer)
        tracer.reset()
        done = _window(ctx, daemon.port, mix, tracer)
        spans, counts, roots = tracer.spans(), tracer.counts(), tracer.roots()
    ctx.gate.check(patches.all_restored(), "trace",
                   "a layer wrapper was not restored")
    hits = metrics.counters.get("result_cache_hits", 0) - hits0
    _check_window(ctx, "traced", mix, done, goldens, primed, sweeps)

    def root_total(name, dispatcher=None):
        return sum(total for (thread, span), total in roots.items()
                   if span == name and (dispatcher is None or
                                        (thread == "jrpm-dispatcher")
                                        == dispatcher))

    round_trips = root_total("harness.request")
    handler = root_total("service.handle")
    handler_serialize = root_total("report.serialize", dispatcher=False)
    dispatcher = sum(total for (thread, _), total in roots.items()
                     if thread == "jrpm-dispatcher")
    spans["harness.request"]["self_s"] = 0.0
    calls = sum(len(mix.requests[item.index][1]) for item in done)
    spans["service.http"] = {"count": calls, "total_s": round_trips,
                             "self_s": round_trips - handler
                             - handler_serialize}
    spans["service.handle"]["self_s"] = handler - dispatcher
    warm = _class_latency(ref_mix, ref_done, "warm")
    ref_total = sum(item.latency for item in ref_done)
    traced_total = sum(item.latency for item in done)
    ctx.metrics = layers.layer_table(spans, counts, round_trips, {
        "service.lru_hit_frac": hits / calls,
        "service.warm_p50_ms": percentile(warm, 50),
        "service.warm_p80_ms": percentile(warm, 80),
        "harness.late_p90_ms": percentile(
            [item.lateness * 1e3 for item in ref_done], 90),
        "trace.overhead_frac": traced_total / ref_total - 1,
    })


WORKLOADS = {
    "table6-cold": run_table6_cold,
    "synth-cold": run_synth_cold,
    "service-sweep": run_service_sweep,
}
