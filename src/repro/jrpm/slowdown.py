"""Profiling-slowdown accounting (Figure 6).

Figure 6 decomposes the annotated run's slowdown into three components:
statistics reads ("Read Counters"), local-variable annotations
("Locals"), and loop-marker annotations ("Annotations").  The
:class:`AnnotationCounter` record holds the executed annotation
instructions per category; combined with the cost model this
reproduces the stacked bars for both the base and optimized annotation
levels.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.runtime.costs import DEFAULT_COSTS, CostModel


class AnnotationCounter:
    """Executed annotation instructions by category, read off a
    :class:`~repro.tracer.device.TestDevice` that saw the whole run."""

    def __init__(self, lwl: int = 0, swl: int = 0, sloop: int = 0,
                 eoi: int = 0, eloop: int = 0, readstats: int = 0):
        self.lwl = lwl
        self.swl = swl
        self.sloop = sloop
        self.eoi = eoi
        self.eloop = eloop
        self.readstats = readstats

    @classmethod
    def from_device(cls, device) -> "AnnotationCounter":
        """The device already counts every category, so profiled runs
        need no separate counting listener in the event fan-out."""
        return cls(device.n_local_loads, device.n_local_stores,
                   device.n_sloop, device.n_eoi, device.n_eloop,
                   device.n_readstats)


class SlowdownBreakdown:
    """Figure 6's stacked components for one annotated run."""

    def __init__(self, orig_cycles: int, annotated_cycles: int,
                 counter: AnnotationCounter,
                 costs: CostModel = None):
        costs = costs if costs is not None else DEFAULT_COSTS
        self.orig_cycles = orig_cycles
        self.annotated_cycles = annotated_cycles
        c = costs.op_costs
        #: cycles spent reading statistics out of the device
        self.read_counters_cycles = counter.readstats * c[Op.READSTATS]
        #: cycles spent on lwl/swl local-variable annotations
        self.locals_cycles = (counter.lwl * c[Op.LWL]
                              + counter.swl * c[Op.SWL])
        #: cycles spent on loop markers (and their control-flow glue)
        self.annotations_cycles = (
            self.extra_cycles - self.read_counters_cycles
            - self.locals_cycles)

    @property
    def extra_cycles(self) -> int:
        return self.annotated_cycles - self.orig_cycles

    @property
    def slowdown(self) -> float:
        """Total slowdown factor (1.0 = no overhead)."""
        if self.orig_cycles <= 0:
            return 1.0
        return self.annotated_cycles / self.orig_cycles

    @property
    def read_counters_frac(self) -> float:
        """Fraction of original time spent reading counters."""
        return self.read_counters_cycles / self.orig_cycles \
            if self.orig_cycles else 0.0

    @property
    def locals_frac(self) -> float:
        return self.locals_cycles / self.orig_cycles \
            if self.orig_cycles else 0.0

    @property
    def annotations_frac(self) -> float:
        return self.annotations_cycles / self.orig_cycles \
            if self.orig_cycles else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<SlowdownBreakdown %.1f%% = read %.1f%% + locals %.1f%%"
                " + markers %.1f%%>"
                % (100 * (self.slowdown - 1),
                   100 * self.read_counters_frac,
                   100 * self.locals_frac,
                   100 * self.annotations_frac))
