"""Per-family estimator error atlas over the synthetic corpus.

The conformance oracle's bounds are calibrated against the 26-row
Table 6 corpus.  The synthesizer's value as a *test* is mapping where
those bounds hold and where they break: each instance runs through the
pipeline twice — once with the default model set (hydra-tls
everywhere, the path the workload-level bounds gate; the ``legacy``
row) and once under the multi-model argmax (the path
:data:`~repro.conformance.oracle.MODEL_ERROR_BOUNDS` gates) — and the
atlas aggregates the errors per family:

* **default-set workload-level error** — |pred - act| / act on the
  whole-program speedup, the quantity
  :data:`~repro.conformance.oracle.WORKLOAD_ERROR_BOUNDS` bounds for
  the bundled corpus;
* **per-model STL error** — each selected loop's speedup prediction
  error attributed to the model that estimated it;
* **label outcome** — the :mod:`repro.synth.oracle` check on the same
  argmax run.

Families whose measured errors exceed
:data:`~repro.conformance.oracle.DEFAULT_ERROR_BOUND` (the 40%
fallback applied to unmeasured programs) are flagged as **bound
breakers**: programs where Equation 1's analytic model diverges from
the simulator.  The chase family is built to be one — every-iteration
heap-carried violations on a tiny thread body are misspeculation the
estimator's arc-separation model never sees.  (The bundled BitOps
outlier breaks its bound by a different mechanism: it rarely
misspeculates, but its threads vary ~100x in size, a load imbalance
Equation 1's mean thread size hides.)  :data:`FAMILY_ERROR_BOUNDS` records
each family's measured ceiling (with headroom) so ``jrpm conform
--synth`` can gate the corpus without the fallback bound failing the
intentional breakers.

``benchmarks/bench_synth.py`` writes the full atlas to
``BENCH_synth.json``; EXPERIMENTS.md carries the measured table.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.conformance.oracle import (
    DEFAULT_ERROR_BOUND,
    conformance_row,
)
from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.jrpm.executor import FleetExecutor
from repro.jrpm.pipeline import Jrpm
from repro.synth.oracle import check_label
from repro.workloads.registry import SYNTHETIC

#: measured per-family ceilings on the default-set workload-level error
#: (|pred - act| / act on whole-program speedup), with ~1.5x headroom
#: over the default-corpus measurement — the synthetic analogue of
#: WORKLOAD_ERROR_BOUNDS.  Measured values are in EXPERIMENTS.md
#: ("Synthetic error atlas"); keep the two in sync.  chase is the
#: deliberate breaker: its bare heap-pointer chase misspeculates every
#: iteration while Equation 1 models the chain as an arc-separation
#: delay, so its error dwarfs the 40% fallback bound by construction.
FAMILY_ERROR_BOUNDS: Dict[str, float] = {
    "stencil": 0.27,    # measured max 17.8% (mean 16.3%)
    "reduction": 0.31,  # measured max 20.6% (mean 19.9%)
    "chase": 1.15,      # measured max 74.7% (mean 61.5%) — breaker
    "graph": 0.22,      # measured max 14.2% (mean 12.9%)
    "mixed": 0.15,      # measured max  9.9% (mean  7.7%)
}

#: per-model STL ceilings for the synthetic gate.  The Table 6
#: calibration (MODEL_ERROR_BOUNDS) caps hydra-tls at 55%, but the
#: chase family's selected loop measures 76% under hydra-tls — the
#: same analytic blind spot that makes it the workload-level breaker
#: shows up per-STL too, on a shape the bundled corpus never hits.
#: doacross measures at most 58% here (mixed), well under its 170%
#: Table 6 ceiling.
SYNTH_MODEL_ERROR_BOUNDS: Dict[str, float] = {
    "sequential": 0.0,  # predicts 1.0x by construction
    "hydra-tls": 0.95,  # measured max 76% (chase)
    "doacross": 0.90,   # measured max 58% (mixed)
}


class AtlasRow:
    """One synthetic instance's atlas entry (fleet-row protocol)."""

    ok = True

    def __init__(self, name: str, family: str, expected_class: str,
                 legacy_row, argmax_row, label_row):
        self.name = name
        self.family = family
        self.expected_class = expected_class
        #: WorkloadConformance from the default-set (hydra-tls) run
        self.legacy = legacy_row
        #: WorkloadConformance from the multi-model argmax pipeline
        self.argmax = argmax_row
        #: LabelRow checked against the argmax run
        self.label = label_row

    @property
    def legacy_error(self) -> float:
        """Workload-level |pred - act| / act, default-set run."""
        return self.legacy.rel_error

    @property
    def model_errors(self) -> Dict[str, float]:
        """Worst selected-STL speedup error per model (argmax run)."""
        worst: Dict[str, float] = {}
        for stl in self.argmax.stls:
            err = stl.speedup_rel_error
            if err > worst.get(stl.model, -1.0):
                worst[stl.model] = err
        return worst

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "family": self.family,
            "expected_class": self.expected_class,
            "legacy": {
                "predicted_speedup":
                    round(self.legacy.predicted_speedup, 4),
                "actual_speedup":
                    round(self.legacy.actual_speedup, 4),
                "rel_error": round(self.legacy_error, 4),
            },
            "argmax": {
                "predicted_speedup":
                    round(self.argmax.predicted_speedup, 4),
                "actual_speedup":
                    round(self.argmax.actual_speedup, 4),
                "model_errors": {m: round(e, 4) for m, e
                                 in sorted(self.model_errors.items())},
            },
            "label": self.label.to_dict(),
        }


def atlas_task(workload, config: HydraConfig = DEFAULT_HYDRA,
               simulate_tls: bool = True, cache=None,
               **jrpm_kwargs) -> AtlasRow:
    """Fleet task: one instance, both model sets, one atlas row.

    The two runs share ``cache`` — the cached stages (compile,
    annotate, sequential, profile) are model-independent, so the
    second run only redoes estimate/select/simulate.
    """
    jrpm_kwargs.pop("models", None)
    legacy = Jrpm(source=workload.source(), name=workload.name,
                  config=config, cache=cache, **jrpm_kwargs
                  ).run(simulate_tls=simulate_tls)
    argmax = Jrpm(source=workload.source(), name=workload.name,
                  config=config, cache=cache, models="all",
                  **jrpm_kwargs).run(simulate_tls=simulate_tls)
    label = workload.label
    return AtlasRow(
        workload.name, label.family, label.expected_class,
        conformance_row(workload.name, SYNTHETIC, legacy),
        conformance_row(workload.name, SYNTHETIC, argmax),
        check_label(workload, argmax))


class FamilyStats:
    """One family's aggregated error distribution."""

    def __init__(self, family: str, rows: List[AtlasRow],
                 fallback_bound: float = DEFAULT_ERROR_BOUND):
        self.family = family
        self.rows = rows
        self.fallback_bound = fallback_bound

    @property
    def count(self) -> int:
        return len(self.rows)

    @property
    def errors(self) -> List[float]:
        return [r.legacy_error for r in self.rows]

    @property
    def mean_error(self) -> float:
        errs = self.errors
        return sum(errs) / len(errs) if errs else 0.0

    @property
    def max_error(self) -> float:
        return max(self.errors, default=0.0)

    @property
    def min_error(self) -> float:
        return min(self.errors, default=0.0)

    @property
    def over_fallback(self) -> int:
        """Instances whose default-set error exceeds the 40% fallback bound
        the conformance oracle applies to unmeasured programs."""
        return sum(1 for e in self.errors if e > self.fallback_bound)

    @property
    def breaks_fallback(self) -> bool:
        """True when this family produces instances the fallback bound
        would reject — the atlas's bound-breaker flag."""
        return self.over_fallback > 0

    @property
    def bound(self) -> float:
        return FAMILY_ERROR_BOUNDS.get(self.family, self.fallback_bound)

    @property
    def model_errors(self) -> Dict[str, float]:
        """Worst per-model STL error across the family."""
        worst: Dict[str, float] = {}
        for row in self.rows:
            for model, err in row.model_errors.items():
                if err > worst.get(model, -1.0):
                    worst[model] = err
        return worst

    @property
    def labels_satisfied(self) -> int:
        return sum(1 for r in self.rows if r.label.satisfied)

    def to_dict(self) -> Dict:
        return {
            "family": self.family,
            "count": self.count,
            "expected_class": (self.rows[0].expected_class
                               if self.rows else None),
            "mean_error": round(self.mean_error, 4),
            "max_error": round(self.max_error, 4),
            "min_error": round(self.min_error, 4),
            "bound": self.bound,
            "over_fallback": self.over_fallback,
            "breaks_fallback": self.breaks_fallback,
            "model_errors": {m: round(e, 4) for m, e
                             in sorted(self.model_errors.items())},
            "labels_satisfied": self.labels_satisfied,
        }


class ErrorAtlas:
    """The corpus-wide atlas: rows, per-family stats, and the gate."""

    def __init__(self, rows: List,
                 family_bounds: Optional[Dict[str, float]] = None,
                 model_bounds: Optional[Dict[str, float]] = None,
                 fallback_bound: float = DEFAULT_ERROR_BOUND):
        self.rows = rows
        self.family_bounds = dict(FAMILY_ERROR_BOUNDS
                                  if family_bounds is None
                                  else family_bounds)
        self.model_bounds = dict(SYNTH_MODEL_ERROR_BOUNDS
                                 if model_bounds is None
                                 else model_bounds)
        self.fallback_bound = fallback_bound

    @property
    def ok_rows(self) -> List[AtlasRow]:
        return [r for r in self.rows if r.ok]

    @property
    def failed_rows(self) -> List:
        return [r for r in self.rows if not r.ok]

    def families(self) -> List[str]:
        """Family names in first-appearance (registration) order."""
        seen: List[str] = []
        for row in self.ok_rows:
            if row.family not in seen:
                seen.append(row.family)
        return seen

    def family_stats(self, family: str) -> FamilyStats:
        return FamilyStats(
            family,
            [r for r in self.ok_rows if r.family == family],
            fallback_bound=self.fallback_bound)

    def all_family_stats(self) -> List[FamilyStats]:
        return [self.family_stats(f) for f in self.families()]

    def breakers(self) -> List[str]:
        """Families with at least one instance over the fallback bound
        — the programs that would trip the conformance oracle's
        default gate."""
        return [s.family for s in self.all_family_stats()
                if s.breaks_fallback]

    def bound_for(self, family: str) -> float:
        return self.family_bounds.get(family, self.fallback_bound)

    def violations(self) -> List[str]:
        """The synthetic conformance gate: per-instance default-set error
        within its family's measured bound, per-model STL errors
        within the model bounds, and every label satisfied."""
        problems: List[str] = []
        for row in self.rows:
            if not row.ok:
                problems.append("%s: pipeline failed: %s"
                                % (row.name, row.error))
                continue
            bound = self.bound_for(row.family)
            if row.legacy_error > bound:
                problems.append(
                    "%s (%s): legacy prediction error %.1f%% exceeds "
                    "the family's %.1f%% bound (predicted %.2fx, "
                    "actual %.2fx; replay: %s)"
                    % (row.name, row.family, 100 * row.legacy_error,
                       100 * bound, row.legacy.predicted_speedup,
                       row.legacy.actual_speedup, row.label.replay))
            for stl in row.argmax.stls:
                mbound = self.model_bounds.get(stl.model,
                                               self.fallback_bound)
                if stl.speedup_rel_error > mbound:
                    problems.append(
                        "%s L%d (%s): model prediction error %.1f%% "
                        "exceeds the %.1f%% bound (replay: %s)"
                        % (row.name, stl.loop_id, stl.model,
                           100 * stl.speedup_rel_error, 100 * mbound,
                           row.label.replay))
            if not row.label.satisfied:
                problems.append("%s: %s (replay: %s)"
                                % (row.name, row.label.detail,
                                   row.label.replay))
        return problems

    def to_dict(self) -> Dict:
        return {
            "kind": "synth-atlas",
            "fallback_bound": self.fallback_bound,
            "family_bounds": self.family_bounds,
            "model_bounds": self.model_bounds,
            "families": [s.to_dict() for s in self.all_family_stats()],
            "breakers": self.breakers(),
            "instances": [r.to_dict() if r.ok
                          else {"name": r.name, "ok": False,
                                "error": r.error}
                          for r in self.rows],
            "violations": self.violations(),
        }

    def render(self) -> str:
        lines = ["%-10s %-9s %5s %7s %7s %7s %7s %6s  %s"
                 % ("family", "class", "n", "mean%", "max%",
                    "bound%", ">fall", "labels", "models worst")]
        for stats in self.all_family_stats():
            models = " ".join("%s=%.0f%%" % (m, 100 * e) for m, e
                              in sorted(stats.model_errors.items()))
            cls = (stats.rows[0].expected_class
                   if stats.rows else "-")
            lines.append(
                "%-10s %-9s %5d %6.1f%% %6.1f%% %6.1f%% %7d %3d/%-3d %s"
                % (stats.family, cls, stats.count,
                   100 * stats.mean_error, 100 * stats.max_error,
                   100 * self.bound_for(stats.family),
                   stats.over_fallback, stats.labels_satisfied,
                   stats.count, models))
        breakers = self.breakers()
        if breakers:
            lines.append(
                "bound breakers (instances exceed the %.0f%% fallback "
                "the oracle applies to unmeasured programs): %s"
                % (100 * self.fallback_bound, ", ".join(breakers)))
        else:
            lines.append("no family exceeds the %.0f%% fallback bound"
                         % (100 * self.fallback_bound))
        for failed in self.failed_rows:
            lines.append("%-22s FAILED: %s"
                         % (failed.name, failed.error))
        return "\n".join(lines)


#: families whose estimator winner ranking is documented to disagree
#: with the simulator's, the synthetic analogue of
#: KNOWN_WINNER_MISMATCHES: on chase the estimator ranks the serial
#: heap chain's savings above the parallel init loop's because it
#: never sees the chain's misspeculation — the same mechanism that
#: blows its error bound.
WINNER_MISMATCH_FAMILIES: frozenset = frozenset({"chase"})


def synthetic_workload_bounds(instances: Iterable) -> Dict[str, float]:
    """Instance-name -> family-bound map, shaped for
    :func:`repro.conformance.oracle.run_oracle`'s ``workload_bounds``
    — the hook that wires the existing conformance oracle over the
    synthetic corpus with the atlas's measured per-family ceilings."""
    return {w.name: FAMILY_ERROR_BOUNDS.get(
                w.label.family, DEFAULT_ERROR_BOUND)
            for w in instances}


def synthetic_known_mismatches(instances: Iterable) -> frozenset:
    """Instance names :func:`run_oracle`'s winner assertion should
    skip, derived from :data:`WINNER_MISMATCH_FAMILIES`."""
    return frozenset(w.name for w in instances
                     if w.label.family in WINNER_MISMATCH_FAMILIES)


def build_atlas(instances: Optional[Iterable] = None,
                config: HydraConfig = DEFAULT_HYDRA,
                jobs: int = 1, cache=None,
                family_bounds: Optional[Dict[str, float]] = None,
                model_bounds: Optional[Dict[str, float]] = None,
                **executor_kwargs) -> ErrorAtlas:
    """Measure the error atlas over synthetic ``instances`` (default:
    the registered synthetic corpus)."""
    if instances is None:
        from repro.workloads.registry import by_category
        instances = by_category(SYNTHETIC)
    executor = FleetExecutor(jobs=jobs, config=config, cache=cache,
                             on_error="row", task=atlas_task,
                             **executor_kwargs)
    result = executor.run(list(instances))
    return ErrorAtlas(list(result.rows), family_bounds=family_bounds,
                      model_bounds=model_bounds)
