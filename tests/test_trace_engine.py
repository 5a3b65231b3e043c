"""Columnar trace engine: equivalence with the legacy row path and
determinism of the memoized kernels.

The columnar pipeline (``ColumnarRecording`` -> zero-copy
``ThreadView`` windows -> ``TraceEngine`` memoized kernels) must be an
invisible substitution for the row-of-tuples path — byte-identical
traces, identical splits, and identical TLS results, with the memo
layer changing only wall-clock, never outcomes.
"""

import pytest

from repro.cfg import find_candidates
from repro.errors import SimulationError
from repro.hydra import HydraConfig
from repro.jit import annotate_program, compile_stl
from repro.jrpm import Jrpm
from repro.lang import compile_source
from repro.runtime import run_program
from repro.runtime.events import (
    ColumnarRecording,
    MulticastListener,
    RecordingListener,
)
from repro.tls import (
    ThreadView,
    TraceEngine,
    simulate_stl,
    split_trace,
)

from tests.conftest import HUFFMAN_SOURCE, NEST_SOURCE


def _record_both(source):
    """One traced run feeding both trace layouts simultaneously."""
    program = compile_source(source)
    table = find_candidates(program)
    ann = annotate_program(program, table)
    legacy = RecordingListener()
    columnar = ColumnarRecording()
    run_program(ann.program,
                listener=MulticastListener([legacy, columnar]))
    return table, legacy, columnar


def _windowable_loops(table, recording):
    loops = []
    for lid in sorted(table.by_id):
        try:
            if split_trace(recording, lid):
                loops.append(lid)
        except SimulationError:
            continue
    return loops


@pytest.fixture(scope="module", params=[NEST_SOURCE, HUFFMAN_SOURCE],
                ids=["nest", "huffman-nest"])
def both_layouts(request):
    return _record_both(request.param)


class TestRecordingEquivalence:
    def test_event_streams_identical(self, both_layouts):
        _, legacy, columnar = both_layouts
        assert len(columnar) == len(legacy.mem)
        assert list(columnar.events()) == list(legacy.mem)

    def test_marks_identical(self, both_layouts):
        _, legacy, columnar = both_layouts
        assert columnar.marks == legacy.marks

    def test_cycles_column_sorted(self, both_layouts):
        """The invariant zero-copy windowing bisects on."""
        _, _, columnar = both_layouts
        cycles = columnar.cycles
        assert all(cycles[i] <= cycles[i + 1]
                   for i in range(len(cycles) - 1))


class TestSplitEquivalence:
    def test_windows_and_events_identical(self, both_layouts):
        table, legacy, columnar = both_layouts
        loops = _windowable_loops(table, columnar)
        assert loops  # the sources above all have windowable loops
        for lid in loops:
            rows = split_trace(legacy, lid)
            views = split_trace(columnar, lid)
            assert len(rows) == len(views)
            for er, ev in zip(rows, views):
                assert er.total_cycles == ev.total_cycles
                assert er.frame_id == ev.frame_id
                assert len(er.threads) == len(ev.threads)
                for tr, tv in zip(er.threads, ev.threads):
                    assert tr.size == tv.size
                    assert tr.events == tv.events

    def test_views_are_zero_copy(self, both_layouts):
        table, _, columnar = both_layouts
        lid = _windowable_loops(table, columnar)[0]
        for entry in split_trace(columnar, lid):
            for view in entry.threads:
                assert isinstance(view, ThreadView)
                assert view.recording is columnar
                assert 0 <= view.lo <= view.hi <= len(columnar)


class TestSimulationEquivalence:
    SWEEP = [HydraConfig(),
             HydraConfig(n_cpus=2, store_buffer_lines=16),
             HydraConfig(n_cpus=8, load_buffer_lines=64,
                         load_buffer_assoc=2)]

    def test_engine_matches_row_path(self, both_layouts):
        table, legacy, columnar = both_layouts
        engine = TraceEngine(columnar)
        for config in self.SWEEP:
            for lid in _windowable_loops(table, columnar):
                comp = compile_stl(table.by_id[lid], config)
                rows = simulate_stl(
                    comp, split_trace(legacy, lid), config)
                cols = engine.simulate(comp, config)
                assert vars(rows) == vars(cols), (lid, config)

    def test_pipeline_replay_matches_engine(self):
        """A default run's stage-5 results equal a fresh engine's
        replay of the run's own recording."""
        report = Jrpm(source=HUFFMAN_SOURCE, name="hn").run()
        assert report.tls_results
        engine = TraceEngine(report.recording)
        for lid, result in report.tls_results.items():
            ref = engine.simulate(report.compilations[lid],
                                  HydraConfig())
            assert vars(result) == vars(ref), lid


class TestMemoDeterminism:
    def test_repeat_config_hits_and_matches(self, both_layouts):
        table, _, columnar = both_layouts
        engine = TraceEngine(columnar)
        config = HydraConfig()
        loops = _windowable_loops(table, columnar)
        first = {}
        for lid in loops:
            comp = compile_stl(table.by_id[lid], config)
            first[lid] = engine.simulate(comp, config)
        before = engine.stats.snapshot()
        for lid in loops:
            comp = compile_stl(table.by_id[lid], config)
            again = engine.simulate(comp, config)
            assert vars(again) == vars(first[lid])
        after = engine.stats.snapshot()
        # the second pass must be served entirely from the memos
        for kernel in ("split", "classify", "overflow"):
            assert after[kernel]["hits"] > before[kernel]["hits"]
            assert after[kernel]["misses"] == before[kernel]["misses"]

    def test_config_key_projection_shares_kernels(self, both_layouts):
        """Configs differing only in fields a kernel ignores reuse it:
        classification ignores the config entirely, overflow ignores
        everything but the Table 1 buffer geometry."""
        table, _, columnar = both_layouts
        engine = TraceEngine(columnar)
        lid = _windowable_loops(table, columnar)[0]
        base = HydraConfig()
        engine.simulate(compile_stl(table.by_id[lid], base), base)
        misses = engine.stats.snapshot()
        # same geometry, different overheads/cpus -> all kernels hit
        tweaked = HydraConfig(n_cpus=2, store_load_comm_overhead=99)
        engine.simulate(compile_stl(table.by_id[lid], tweaked), tweaked)
        after = engine.stats.snapshot()
        for kernel in ("split", "classify", "overflow"):
            assert after[kernel]["misses"] == misses[kernel]["misses"]
        # shrunk store buffer -> overflow recomputes, classify still hits
        shrunk = HydraConfig(store_buffer_lines=4)
        engine.simulate(compile_stl(table.by_id[lid], shrunk), shrunk)
        final = engine.stats.snapshot()
        assert final["overflow"]["misses"] > after["overflow"]["misses"]
        assert final["classify"]["misses"] == after["classify"]["misses"]

    def test_engine_rejects_row_recording(self):
        with pytest.raises(SimulationError):
            TraceEngine(RecordingListener())
