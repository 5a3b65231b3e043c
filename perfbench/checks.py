"""Output-correctness gate.  Every failed check is recorded against
the operation it concerns and counts as a failed operation; none is
ever dropped."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional


class Gate:
    """Collects check failures, keyed by operation."""

    def __init__(self):
        self.failures: List[str] = []
        self._failed_ops = set()

    def check(self, ok: bool, op: str, message: str) -> bool:
        if not ok:
            self.failures.append("%s: %s" % (op, message))
            self._failed_ops.add(op)
        return ok

    def fail(self, op: str, message: str) -> None:
        self.check(False, op, message)

    @property
    def failed_ops(self) -> int:
        return len(self._failed_ops)


def load_json(root: str, relpath: str) -> Dict:
    with open(os.path.join(root, relpath)) as handle:
        return json.load(handle)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(report_dict: Dict) -> str:
    """SHA-256 of the canonical report bytes."""
    from repro.jrpm.report import dumps_canonical
    return text_digest(dumps_canonical(report_dict))


class Goldens:
    """Sequential-run pins: ``tests/goldens.json`` by Table 6 name and
    ``tests/goldens_synth.json`` by program source (a synthetic
    instance is pinned when its generated source equals a pinned
    one, at whatever seed it was generated)."""

    def __init__(self, root: str):
        table6 = load_json(root, "tests/goldens.json")
        self.by_name = {k: v for k, v in table6.items()
                        if not k.startswith("_")}
        synth = load_json(root, "tests/goldens_synth.json")
        self.by_source = {v["source"]: v for k, v in synth.items()
                          if not k.startswith("_")}

    def pin(self, workload) -> Optional[Dict]:
        if workload.name in self.by_name:
            return self.by_name[workload.name]
        return self.by_source.get(workload.source())

    def check_run(self, gate: Gate, op: str, workload, sequential) -> None:
        """Cycles, instructions and return value of a sequential run."""
        pin = self.pin(workload)
        if pin is None:
            return
        got = (sequential.cycles, sequential.instructions,
               sequential.return_value)
        want = (pin["cycles"], pin["instructions"], pin["return_value"])
        gate.check(got == want, op, "sequential run %r != golden %r"
                   % (got, want))

    def check_cycles(self, gate: Gate, op: str, name: str,
                     report_dict: Dict) -> None:
        """The service body carries only the sequential cycle count."""
        pin = self.by_name.get(name)
        gate.check(pin is not None
                   and report_dict["sequential_cycles"] == pin["cycles"],
                   op, "sequential_cycles %r != golden %r"
                   % (report_dict["sequential_cycles"],
                      pin and pin["cycles"]))


def check_report_dict(gate: Gate, op: str, report_dict: Dict) -> bool:
    from repro.jrpm.report import ReportSchemaError, validate_report_dict
    try:
        validate_report_dict(report_dict)
    except ReportSchemaError as exc:
        gate.fail(op, "invalid report: %s" % exc)
        return False
    return True


def speedup_error(report_dict: Dict) -> float:
    """|predicted - simulated| / simulated for one program."""
    actual = report_dict["actual_speedup"]
    return abs(report_dict["predicted_speedup"] - actual) / actual
