"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import os
import subprocess
import sys
import time
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import harness  # noqa: E402
from perfbench.harness import (  # noqa: E402
    Patches,
    Tracer,
    peak_rss_mb,
    percentile,
    run_open_loop,
)


def _target(a, b=2, *rest, **extra):
    return (a, b, rest, extra)


class _Box:
    def method(self, value):
        return [self, value]


def test_wrappers_forward_arguments_and_results_unchanged():
    tracer = Tracer()
    module = types.ModuleType("fake")
    module.target = _target
    seen = []
    with Patches() as patches:
        patches.wrap(module, "target", tracer, "layer.a",
                     after=lambda args, kwargs, result: seen.append(result))
        patches.wrap(_Box, "method", tracer, "layer.b")
        patches.wrap_leaf(module, "target", tracer, "layer.c",
                          size=lambda args: len(args))
        result = module.target(1, 3, 4, 5, key="v")
        box = _Box()
        sentinel = object()
        assert box.method(sentinel) == [box, sentinel]
    assert result == (1, 3, (4, 5), {"key": "v"})
    assert seen == [result]
    spans = tracer.spans()
    assert spans["layer.a"]["count"] == 1
    assert spans["layer.b"]["count"] == 1
    # the leaf wrapper sits inside the span wrapper: a's self time
    # excludes c's
    assert spans["layer.a"]["self_s"] <= spans["layer.a"]["total_s"]
    assert tracer.counts()["layer.c"] == 4


def test_wrapped_exception_propagates_and_closes_the_span():
    tracer = Tracer()
    module = types.ModuleType("fake")

    def boom():
        raise KeyError("x")

    module.boom = boom
    with Patches() as patches:
        patches.wrap(module, "boom", tracer, "layer.boom")
        with pytest.raises(KeyError):
            module.boom()
    assert tracer.spans()["layer.boom"]["count"] == 1
    assert module.boom is boom


def test_every_wrapper_is_restored():
    tracer = Tracer()
    module = types.ModuleType("fake")
    module.target = _target
    original_method = _Box.__dict__["method"]
    with Patches() as patches:
        patches.wrap(module, "target", tracer, "x")
        patches.wrap(_Box, "method", tracer, "y")
        assert module.target is not _target
        assert not patches.all_restored()
    assert patches.all_restored()
    assert module.target is _target
    assert _Box.__dict__["method"] is original_method


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.05)
    spans = tracer.spans()
    assert spans["outer"]["total_s"] >= spans["inner"]["total_s"] + 0.02
    assert spans["outer"]["self_s"] < spans["outer"]["total_s"] - 0.04
    assert tracer.roots() == {("MainThread", "outer"):
                              spans["outer"]["total_s"]}


def test_percentile_needs_ten_samples_above_it():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    with pytest.raises(ValueError):
        percentile(values, 91)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9


def test_open_loop_times_from_due_time_and_reports_lateness():
    # one connection, each send takes 50 ms, requests due every 10 ms:
    # later requests wait for the connection, and that wait counts
    def send(conn, request):
        time.sleep(0.05)
        return request * 2

    offsets = [i * 0.01 for i in range(6)]
    done = run_open_loop(list(range(6)), offsets, 1, lambda: None, send)
    assert [item.result for item in done] == [0, 2, 4, 6, 8, 10]
    for item in done:
        assert item.released >= item.due
        assert item.lateness == item.released - item.due
        assert item.latency == item.done - item.due
        assert item.done - item.sent >= 0.05
    # the last request was due at 50 ms but finished after six sends
    assert done[-1].latency >= 6 * 0.05 - 0.05 - 1e-3
    assert done[-1].latency > done[-1].done - done[-1].sent + 0.1


def test_open_loop_records_send_errors():
    def send(conn, request):
        if request == 1:
            raise ConnectionError("reset")
        return request

    done = run_open_loop([0, 1, 2], [0.0, 0.0, 0.0], 2, lambda: None, send,
                         lane=lambda index: index % 2)
    assert [item.error is None for item in done] == [True, False, True]


def test_open_loop_lanes_do_not_block_each_other():
    # a slow request on lane 0 must not delay lane 1's
    def send(conn, request):
        time.sleep(0.2 if request == "slow" else 0.0)
        return request

    done = run_open_loop(["slow", "fast"], [0.0, 0.01], 2, lambda: None,
                         send, lane=lambda index: index)
    assert done[1].latency < 0.1 < done[0].latency


def test_peak_rss_covers_child_processes():
    # a child (as a pool worker or the daemon is) grows far past this
    # process; once reaped, the probe must report at least its peak
    before = peak_rss_mb()
    code = "buf = bytearray(%d); buf[::4096] = b'x' * len(buf[::4096])" \
        % ((int(before) + 150) * 1024 * 1024)
    subprocess.run([sys.executable, "-c", code], check=True)
    assert peak_rss_mb() >= before + 140


def test_provenance_names_the_code_measured():
    prov = harness.provenance(ROOT, "table6-cold", 7, 10.0, False)
    for key in ("commit", "dirty", "src_sha256", "nproc", "python",
                "workload", "seed"):
        assert key in prov
    assert prov["workload"] == "table6-cold" and prov["seed"] == 7
    assert prov["nproc"] == os.cpu_count()
    assert len(prov["src_sha256"]) == 64


def test_benchmark_json_lists_the_per_layer_table():
    import json
    from perfbench import layers
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert set(layers.SELF_TIME.values()) <= {n for n, _ in layers.PER_LAYER}


def test_layer_table_accounts_for_unattributed_time():
    from perfbench import layers
    spans = {
        "harness.pass": {"count": 1, "total_s": 10.0, "self_s": 0.2},
        "pipeline.run": {"count": 2, "total_s": 9.8, "self_s": 0.3},
        "runtime.profiled": {"count": 2, "total_s": 6.0, "self_s": 4.0},
        "tracer.device": {"count": 90, "total_s": 2.0, "self_s": 2.0},
        "lang.compile": {"count": 2, "total_s": 3.5, "self_s": 3.5},
    }
    table = layers.layer_table(spans, {"tracer.device": 1000}, 10.0,
                               {"trace.overhead_frac": 0.1})
    assert table["trace.unattributed_s"] == 0.5
    assert table["trace.unattributed_frac"] == 0.05
    assert table["runtime.profiled_self_s"] == 4.0
    assert table["tracer.events"] == 1000
    assert table["tracer.events_per_s"] == 1000 / 6.0
    assert table["trace.overhead_frac"] == 0.1
    assert table["service.http_s"] == 0.0
    assert set(table) == {name for name, _ in layers.PER_LAYER}
