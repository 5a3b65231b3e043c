"""The traced run's layer wrappers and the per-layer table.

Every layer is measured from outside: the benchmark wraps the public
functions and methods the pipeline, the fleet executor and the service
call into, and touches no file of the program.  Functions that callers
imported by name are wrapped in the caller's namespace (``pipeline``
imports ``compile_source``, the scheduler imports ``report_to_dict``),
methods on their class.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict

from perfbench.harness import Patches, Tracer

#: per-layer metrics, in the order of the table in perfbench/README.md
PER_LAYER = [
    ("runtime.profiled_self_s", "s"),
    ("tracer.device_s", "s"),
    ("events.recording_s", "s"),
    ("tracer.events", "count"),
    ("tracer.events_per_s", "1/s"),
    ("runtime.sequential_s", "s"),
    ("runtime.sequential_instrs", "count"),
    ("runtime.instrs_per_s", "1/s"),
    ("runtime.jit_guard_fail_frac", "ratio"),
    ("lang.compile_s", "s"),
    ("lang.bytecode_instrs", "count"),
    ("cfg.candidates_s", "s"),
    ("cfg.loops", "count"),
    ("jit.annotate_s", "s"),
    ("jit.compile_stl_s", "s"),
    ("tracer.select_s", "s"),
    ("tracer.loops_selected", "count"),
    ("tls.split_s", "s"),
    ("tls.classify_hit_frac", "ratio"),
    ("tls.overflow_hit_frac", "ratio"),
    ("models.hydra_tls_s", "s"),
    ("models.doacross_s", "s"),
    ("models.threads", "count"),
    ("models.violation_frac", "ratio"),
    ("models.predictor_hit_frac", "ratio"),
    ("executor.pickle_s", "s"),
    ("executor.payload_bytes", "bytes"),
    ("cache.store_s", "s"),
    ("cache.blob_bytes", "bytes"),
    ("cache.fetch_s", "s"),
    ("cache.hit_frac", "ratio"),
    ("report.serialize_s", "s"),
    ("report.bytes", "bytes"),
    ("service.handle_s", "s"),
    ("service.http_s", "s"),
    ("service.lru_hit_frac", "ratio"),
    ("service.warm_p50_ms", "ms"),
    ("service.warm_p80_ms", "ms"),
    ("synth.generate_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("harness.late_p90_ms", "ms"),
]

#: the layers must account for all but this share of the traced time
MAX_UNATTRIBUTED = 0.05

#: span name -> per-layer metric that reports its self time
SELF_TIME = {
    "runtime.profiled": "runtime.profiled_self_s",
    "tracer.device": "tracer.device_s",
    "events.recording": "events.recording_s",
    "runtime.sequential": "runtime.sequential_s",
    "lang.compile": "lang.compile_s",
    "cfg.candidates": "cfg.candidates_s",
    "jit.annotate": "jit.annotate_s",
    "jit.compile_stl": "jit.compile_stl_s",
    "tracer.select": "tracer.select_s",
    "tls.split": "tls.split_s",
    "models.hydra-tls": "models.hydra_tls_s",
    "models.doacross": "models.doacross_s",
    "executor.pickle": "executor.pickle_s",
    "cache.store": "cache.store_s",
    "cache.fetch": "cache.fetch_s",
    "report.serialize": "report.serialize_s",
    "service.handle": "service.handle_s",
    "service.http": "service.http_s",
}


def _instruction_count(program) -> int:
    return sum(len(fn.code) for fn in program.functions.values())


def _batch_size(args) -> int:
    return len(args[1])


def _one(args) -> int:
    return 1


def install(patches: Patches, tracer: Tracer) -> None:
    """Wrap every layer entry point; ``patches.restore()`` undoes it."""
    from repro.jrpm import executor, pipeline, report
    from repro.jrpm.cache import ArtifactCache
    from repro.models import get_model, model_names
    from repro.runtime.events import ColumnarRecording
    from repro.runtime.interpreter import Interpreter
    from repro.service import scheduler, server
    from repro.tls.engine import TraceEngine
    from repro.tracer.device import TestDevice

    count = tracer.count

    def after_compile(args, kwargs, program):
        count("lang.bytecode_instrs", _instruction_count(program))

    def after_candidates(args, kwargs, table):
        count("cfg.loops", table.loop_count)

    def after_select(args, kwargs, selection):
        count("tracer.loops_selected", len(selection.selected))

    def run_name(args):
        return ("runtime.sequential" if args[0].listener is None
                else "runtime.profiled")

    def after_run(args, kwargs, result):
        if args[0].listener is None:
            count("runtime.sequential_instrs", result.instructions)
        if result.jit is not None:
            count("runtime.jit_invocations", result.jit["invocations"])
            count("runtime.jit_guard_failures",
                  result.jit["guard_failures"])

    def after_pipeline(args, kwargs, rep):
        engine = getattr(rep, "engine", None)
        if engine is None:
            return
        for kernel in ("classify", "overflow"):
            count("tls.%s_hits" % kernel, engine.stats.hits[kernel])
            count("tls.%s_lookups" % kernel,
                  engine.stats.hits[kernel] + engine.stats.misses[kernel])

    def after_simulate(args, kwargs, result):
        count("models.threads", result.threads)
        count("models.violations", result.violations)
        count("models.predictions", getattr(result, "predictions", 0))
        count("models.predicted_hits", getattr(result, "predicted_hits", 0))

    def after_fetch(args, kwargs, result):
        count("cache.fetches")
        count("cache.hits", 1 if result[0] else 0)

    def after_dumps(args, kwargs, text):
        count("report.bytes", len(text))

    patches.wrap(pipeline.Jrpm, "run", tracer, "pipeline.run",
                 after_pipeline, record=True)
    patches.wrap(executor.FleetExecutor, "run", tracer, "executor.run",
                 record=True)
    patches.wrap(pipeline, "compile_source", tracer, "lang.compile",
                 after_compile)
    patches.wrap(pipeline, "find_candidates", tracer, "cfg.candidates",
                 after_candidates)
    patches.wrap(pipeline, "annotate_program", tracer, "jit.annotate")
    patches.wrap(pipeline, "compile_stl", tracer, "jit.compile_stl")
    patches.wrap(pipeline, "select_stls", tracer, "tracer.select",
                 after_select)
    patches.wrap(Interpreter, "run", tracer, run_name, after_run,
                 record=True)
    # tracer.device's count is the events it received: a batch's
    # length, or one per single-event call
    for attr in sorted(vars(TestDevice)):
        if attr.startswith("on_"):
            patches.wrap_leaf(TestDevice, attr, tracer, "tracer.device",
                              _batch_size if attr == "on_mem_batch"
                              else _one)
    for attr in sorted(vars(ColumnarRecording)):
        if attr.startswith("on_"):
            patches.wrap_leaf(ColumnarRecording, attr, tracer,
                              "events.recording")
    patches.wrap(TraceEngine, "split", tracer, "tls.split")
    for name in model_names():
        cls = type(get_model(name))
        if "simulate" in vars(cls):
            patches.wrap(cls, "simulate", tracer, "models." + name,
                         after_simulate)
    patches.wrap(ArtifactCache, "fetch", tracer, "cache.fetch", after_fetch)
    patches.wrap(ArtifactCache, "store", tracer, "cache.store")
    patches.wrap(report, "report_to_dict", tracer, "report.serialize")
    patches.wrap(report, "dumps_canonical", tracer, "report.serialize",
                 after_dumps)
    patches.wrap(scheduler, "report_to_dict", tracer, "report.serialize")
    patches.wrap(server, "dumps_canonical", tracer, "report.serialize",
                 after_dumps)
    patches.wrap(server.AnalysisService, "handle_analyze", tracer,
                 "service.handle", record=True)


def pickle_round_trip(tracer: Tracer, report) -> None:
    """What the fleet's process boundary does to each report: pickle
    in the worker, unpickle in the parent."""
    with tracer.span("executor.pickle", record=False):
        blob = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
    tracer.count("executor.payload_bytes", len(blob))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(spans: Dict[str, Dict[str, float]],
                counts: Dict[str, float], wall_s: float,
                extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the traced window's spans and counts.

    ``wall_s`` is the traced time the layers must account for (the sum
    of the harness's root spans).  Self time of spans that are no
    layer — the harness roots, the pipeline and executor glue between
    stage calls — is reported as ``trace.unattributed_s``.  ``extra`` supplies the metrics measured
    outside the spans (class latencies, lateness, overhead, ...).
    """
    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for span, metric in SELF_TIME.items():
        if span in spans:
            out[metric] = spans[span]["self_s"]
    out["tracer.events"] = counts.get("tracer.device", 0)
    for name in ("runtime.sequential_instrs",
                 "lang.bytecode_instrs", "cfg.loops",
                 "tracer.loops_selected", "models.threads",
                 "executor.payload_bytes", "cache.blob_bytes",
                 "report.bytes"):
        out[name] = counts.get(name, 0)
    out["tracer.events_per_s"] = _ratio(
        out["tracer.events"],
        out["runtime.profiled_self_s"] + out["tracer.device_s"]
        + out["events.recording_s"])
    out["runtime.instrs_per_s"] = _ratio(out["runtime.sequential_instrs"],
                                         out["runtime.sequential_s"])
    out["runtime.jit_guard_fail_frac"] = _ratio(
        counts.get("runtime.jit_guard_failures", 0),
        counts.get("runtime.jit_invocations", 0))
    out["tls.classify_hit_frac"] = _ratio(counts.get("tls.classify_hits", 0),
                                          counts.get("tls.classify_lookups", 0))
    out["tls.overflow_hit_frac"] = _ratio(counts.get("tls.overflow_hits", 0),
                                          counts.get("tls.overflow_lookups", 0))
    out["models.violation_frac"] = _ratio(counts.get("models.violations", 0),
                                          counts.get("models.threads", 0))
    out["models.predictor_hit_frac"] = _ratio(
        counts.get("models.predicted_hits", 0),
        counts.get("models.predictions", 0))
    out["cache.hit_frac"] = _ratio(counts.get("cache.hits", 0),
                                   counts.get("cache.fetches", 0))
    unattributed = sum(row["self_s"] for name, row in spans.items()
                       if name not in SELF_TIME)
    out.update(extra)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = unattributed
    out["trace.unattributed_frac"] = _ratio(unattributed, wall_s)
    return out


def render(table: Dict[str, Any]) -> str:
    """The per-layer table as aligned text."""
    units = dict(PER_LAYER)
    lines = ["%-30s %16s  %s" % ("layer metric", "value", "unit")]
    for name, _ in PER_LAYER:
        lines.append("%-30s %16.6g  %s" % (name, table[name], units[name]))
    return "\n".join(lines)
