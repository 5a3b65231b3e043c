"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table6-cold --seed 1 \
        --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer table with
``--trace 1``); the line before it records the run's provenance.  The
exit code is 0 only when every output passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import harness, layers, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    end_to_end, per_layer = _metric_units()
    ctx = workloads.Context(ROOT, args.workload, args.seed, args.seconds,
                            bool(args.trace))
    try:
        workloads.WORKLOADS[args.workload](ctx)
        if args.trace:
            metrics = ctx.metrics
            ctx.gate.check(
                metrics["trace.unattributed_frac"] <= layers.MAX_UNATTRIBUTED,
                "trace", "layers cover only %.1f%% of the traced time"
                % (100 * (1 - metrics["trace.unattributed_frac"])))
            units = per_layer
            print(layers.render(metrics))
            harness.dump_json(
                os.path.join(ROOT, ".bench_out", "%s-seed%d-trace.json"
                             % (args.workload, args.seed)),
                {"layers": metrics, "spans": ctx.tracer.spans(),
                 "counts": ctx.tracer.counts(),
                 "records": ctx.tracer.records})
        else:
            metrics = dict(ctx.metrics)
            metrics["setup_s"] = ctx.setup_s
            metrics["peak_rss_mb"] = harness.peak_rss_mb()
            metrics["ok_frac"] = \
                1.0 - ctx.gate.failed_ops / max(1, ctx.attempted)
            units = end_to_end
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise RuntimeError("metrics not produced: %s" % missing)
    finally:
        ctx.close()
    for failure in ctx.gate.failures:
        print("CHECK FAILED %s" % failure, file=sys.stderr)
    print(json.dumps({"provenance": harness.provenance(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace))},
        sort_keys=True))
    correct = not ctx.gate.failures
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.gate.failed_ops,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - no result line on any error
        traceback.print_exc()
        sys.exit(2)
