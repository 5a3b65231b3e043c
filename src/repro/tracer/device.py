"""The TEST device: an array of comparator banks behind the trace-event
interface (paper Section 5, Figure 2's dark blocks).

The device is a :class:`~repro.runtime.events.TraceListener`: attach it
to the interpreter running an annotated program and it performs the load
dependency analysis and the speculative-state overflow analysis for
every active potential STL, exactly as the hardware would:

* ``sloop`` allocates a comparator bank (outermost loops get precedence
  because they arrive first; when no bank is free, the activation is
  traced *unbanked* — no statistics — matching the hardware's behaviour
  of disabling analysis for deeply nested loops).  A bank whose STL
  consistently overflows the speculative buffers can be freed and handed
  to a deeper loop.
* heap loads/stores consult and refresh the shared timestamp stores of
  Section 5.3; every active bank observes each event.
* ``eoi``/``eloop`` drive the per-thread accumulation.

The device also records the *dynamic* loop nesting (which STL was active
when another was entered, including nesting through calls) — this feeds
Equation 2's nest comparison and Table 6's executed loop depth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import TracerError
from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.runtime.events import TraceListener
from repro.runtime.heap import LINE_SIZE, line_of
from repro.tracer.bank import ArcSink, ComparatorBank
from repro.tracer.stats import STLStats
from repro.tracer.timestamps import (
    LineTimestampTable,
    LocalTimestampTable,
    StoreTimestampFIFO,
)


class _Activation:
    """One dynamic STL activation on the device's loop stack."""

    __slots__ = ("loop_id", "bank", "frame_id", "allowed_slots",
                 "entry_cycle")

    def __init__(self, loop_id: int, bank: Optional[ComparatorBank],
                 frame_id: int, allowed_slots, entry_cycle: int):
        self.loop_id = loop_id
        self.bank = bank
        self.frame_id = frame_id
        #: local slots this loop reserved timestamps for (None = any)
        self.allowed_slots = allowed_slots
        #: sloop cycle (lightweight accounting for converged loops)
        self.entry_cycle = entry_cycle


class TestDevice(TraceListener):
    """Functional model of the TEST tracer hardware."""

    #: not a unit-test class, despite the paper's naming (pytest hint)
    __test__ = False

    def __init__(self, config: HydraConfig = DEFAULT_HYDRA,
                 arc_sink: Optional[ArcSink] = None,
                 strict: bool = True,
                 convergence_threshold: Optional[int] = None,
                 on_converged=None):
        self.config = config
        self.strict = strict
        self._arc_sink = arc_sink
        #: profiled-thread count after which a loop's statistics are
        #: declared converged and its analysis is disabled (Section 5.2:
        #: "the annotations marking it can be disabled dynamically");
        #: None keeps profiling for the whole run
        self.convergence_threshold = convergence_threshold
        #: callback(loop_id) fired once per loop at convergence — the
        #: runtime uses it to overwrite READSTATS sites with nops
        self.on_converged = on_converged
        #: loops whose statistics converged (lightweight tracking only)
        self.converged: Set[int] = set()
        #: after convergence, one entry in ``sample_every`` is still
        #: fully analyzed so the statistics keep tracking phase changes
        #: (heapify -> extract in a heap sort, say) at a sliver of the
        #: profiling cost
        self.sample_every = 16
        self._entry_counters: Dict[int, int] = {}

        self.heap_ts = StoreTimestampFIFO(config.heap_ts_fifo_entries)
        self.ld_line_ts = LineTimestampTable(config.line_ts_ld_entries)
        self.st_line_ts = LineTimestampTable(config.line_ts_st_entries)
        self.local_ts = LocalTimestampTable(config.local_ts_lines)

        #: persistent per-loop statistics (accumulated across activations)
        self.stats: Dict[int, STLStats] = {}
        #: dynamic nesting: loop -> {parent loop (-1 = top level): count}
        self.dynamic_parents: Dict[int, Dict[int, int]] = {}
        #: loops whose analysis the runtime disabled
        self.disabled: Set[int] = set()
        #: loop id -> frozenset of reserved local slots (sloop n's
        #: reservation, registered out-of-band by the JIT)
        self.loop_locals: Dict[int, frozenset] = {}

        self._stack: List[_Activation] = []
        self._banks_in_use = 0
        #: event counters (diagnostics; the software-profiler model uses
        #: these to cost out a software-only implementation)
        self.n_loads = 0
        self.n_stores = 0
        self.n_local_loads = 0
        self.n_local_stores = 0
        self.n_unbanked_activations = 0
        self.n_bank_steals = 0
        #: executed annotation-marker counts (Figure 6's slowdown
        #: decomposition reads these instead of multicasting the event
        #: stream to a dedicated counting listener)
        self.n_sloop = 0
        self.n_eoi = 0
        self.n_eloop = 0
        self.n_readstats = 0

    # -- bookkeeping ---------------------------------------------------------

    def stats_for(self, loop_id: int) -> STLStats:
        """The persistent stats record for a loop (created on demand)."""
        st = self.stats.get(loop_id)
        if st is None:
            st = STLStats(loop_id)
            self.stats[loop_id] = st
        return st

    def register_loop_locals(self, loop_id: int, slots) -> None:
        """Tell the device which local slots ``sloop n`` reserved for a
        loop; its bank then ignores other frames' and loops' locals."""
        self.loop_locals[loop_id] = frozenset(slots)

    def disable_loop(self, loop_id: int) -> None:
        """Stop allocating banks for ``loop_id`` (the runtime judged its
        statistics converged, Section 5.2)."""
        self.disabled.add(loop_id)

    @property
    def active_loops(self) -> List[int]:
        """Loop ids currently on the activation stack, outermost first."""
        return [act.loop_id for act in self._stack]

    def _try_allocate_bank(self, stats: STLStats) -> Optional[ComparatorBank]:
        if self._banks_in_use < self.config.n_comparator_banks:
            self._banks_in_use += 1
            return ComparatorBank(self.config, stats, self._arc_sink)
        # bank stealing: free a consistently-overflowing outer bank so a
        # deeper loop can be analyzed (Section 5.2)
        for act in self._stack:
            bank = act.bank
            if bank is not None and bank.consistently_overflowing():
                act.bank = None
                self.n_bank_steals += 1
                return ComparatorBank(self.config, stats, self._arc_sink)
        return None

    # -- loop markers ----------------------------------------------------------

    def on_sloop(self, loop_id: int, n_locals: int, cycle: int,
                 frame_id: int = -1) -> None:
        self.n_sloop += 1
        parent = self._stack[-1].loop_id if self._stack else -1
        parents = self.dynamic_parents.setdefault(loop_id, {})
        parents[parent] = parents.get(parent, 0) + 1

        stats = self.stats_for(loop_id)
        depth = len(self._stack) + 1
        if depth > stats.dynamic_depth:
            stats.dynamic_depth = depth

        bank: Optional[ComparatorBank] = None
        if loop_id in self.converged:
            # converged: keep the cheap counters current (cycles,
            # entries, threads) so Equation 2 sees whole-run coverage;
            # re-arm a bank for every sample_every-th entry so arc and
            # overflow frequencies keep tracking phase changes
            count = self._entry_counters.get(loop_id, 0) + 1
            self._entry_counters[loop_id] = count
            if self.sample_every and count % self.sample_every == 0:
                bank = self._try_allocate_bank(stats)
            if bank is not None:
                bank.start_entry(cycle)
            else:
                stats.entries += 1
        elif loop_id not in self.disabled:
            bank = self._try_allocate_bank(stats)
            if bank is None:
                self.n_unbanked_activations += 1
            else:
                bank.start_entry(cycle)
        self._stack.append(_Activation(
            loop_id, bank, frame_id, self.loop_locals.get(loop_id),
            cycle))

    def on_eoi(self, loop_id: int, cycle: int) -> None:
        self.n_eoi += 1
        act = self._top(loop_id, "eoi")
        if act is None:
            return
        if act.bank is not None:
            act.bank.end_iteration(cycle)
        elif loop_id in self.converged:
            self.stats_for(loop_id).threads += 1

    def on_eloop(self, loop_id: int, cycle: int) -> None:
        self.n_eloop += 1
        act = self._top(loop_id, "eloop")
        if act is None:
            return
        if act.bank is not None:
            act.bank.end_entry(cycle)
            self._banks_in_use -= 1
        elif loop_id in self.converged:
            self.stats_for(loop_id).cycles += cycle - act.entry_cycle
        self._stack.pop()
        self._maybe_converge(loop_id)

    def _maybe_converge(self, loop_id: int) -> None:
        threshold = self.convergence_threshold
        if threshold is None or loop_id in self.converged:
            return
        stats = self.stats.get(loop_id)
        if stats is None:
            return
        # converged once enough iterations have been analyzed OR enough
        # whole entries — short-trip loops (a few iterations per entry)
        # stabilize by entry count long before they would by threads
        entry_threshold = max(50, threshold // 20)
        if stats.profiled_threads < threshold \
                and stats.profiled_entries < entry_threshold:
            return
        if any(act.loop_id == loop_id for act in self._stack):
            return  # still active in an outer activation (recursion)
        self.converged.add(loop_id)
        if self.on_converged is not None:
            self.on_converged(loop_id)

    def _top(self, loop_id: int, what: str) -> Optional[_Activation]:
        if not self._stack or self._stack[-1].loop_id != loop_id:
            if self.strict:
                top = self._stack[-1].loop_id if self._stack else None
                raise TracerError(
                    "%s for loop L%d but innermost active loop is %r"
                    % (what, loop_id, top))
            return None
        return self._stack[-1]

    def on_readstats(self, loop_id: int, cycle: int) -> None:
        self.n_readstats += 1

    # -- memory events ---------------------------------------------------------

    def on_load(self, address, cycle, fn="", pc=-1):
        self.n_loads += 1
        store_ts = self.heap_ts.lookup(address)
        line = line_of(address)
        old_line = self.ld_line_ts.lookup(line)
        for act in self._stack:
            bank = act.bank
            if bank is not None:
                bank.observe_load(store_ts, cycle, False, fn, pc)
                bank.observe_line_load(old_line)
        self.ld_line_ts.record(line, cycle)

    def on_store(self, address, cycle, fn="", pc=-1):
        self.n_stores += 1
        line = line_of(address)
        old_line = self.st_line_ts.lookup(line)
        for act in self._stack:
            bank = act.bank
            if bank is not None:
                bank.observe_line_store(old_line)
        self.st_line_ts.record(line, cycle)
        self.heap_ts.record(address, cycle)

    def on_local_load(self, frame_id, slot, cycle, fn="", pc=-1):
        self.n_local_loads += 1
        ts = self.local_ts.lookup(frame_id, slot)
        if ts is None:
            return
        for act in self._stack:
            bank = act.bank
            if bank is None or act.frame_id != frame_id:
                continue
            if act.allowed_slots is not None \
                    and slot not in act.allowed_slots:
                continue
            bank.observe_load(ts, cycle, True, fn, pc)

    def on_local_store(self, frame_id, slot, cycle, fn="", pc=-1):
        self.n_local_stores += 1
        self.local_ts.record(frame_id, slot, cycle)

    def on_mem_batch(self, events):
        """Process one interpreter memory-event batch.

        Inlines the four per-event handlers with the table accessors
        hoisted; the activation stack cannot change mid-batch because
        the interpreter flushes before every loop marker — so the
        banked-activation scan is also hoisted to once per batch
        instead of once per event.  The line tables are touched with a
        single combined lookup+record call, and batches arriving while
        no bank is armed (pre-warmup, converged, or unbanked phases)
        take a slimmer loop that skips every lookup whose only consumer
        is a bank observation.
        """
        heap_record = self.heap_ts.record
        ld_touch = self.ld_line_ts.touch
        st_touch = self.st_line_ts.touch
        local_record = self.local_ts.record
        line_size = LINE_SIZE
        n_loads = n_stores = n_local_loads = n_local_stores = 0
        banked = [act for act in self._stack if act.bank is not None]
        if not banked:
            # timestamp tables must stay current for banks armed later
            # (sampling re-arms them mid-run), but nothing consumes the
            # lookup results now
            for ev in events:
                kind = ev[0]
                if kind == "ld":
                    n_loads += 1
                    ld_touch(ev[1] // line_size, ev[2])
                elif kind == "st":
                    n_stores += 1
                    st_touch(ev[1] // line_size, ev[2])
                    heap_record(ev[1], ev[2])
                elif kind == "lld":
                    n_local_loads += 1
                else:
                    n_local_stores += 1
                    local_record(ev[1], ev[2], ev[3])
        elif len(banked) == 1:
            # the overwhelmingly common shape — one STL sampling at a
            # time — gets the bank's observers hoisted out of the loop
            heap_get = self.heap_ts.get
            local_get = self.local_ts.get
            act0 = banked[0]
            bank0 = act0.bank
            observe_load = bank0.observe_load
            observe_line_load = bank0.observe_line_load
            observe_line_store = bank0.observe_line_store
            frame0 = act0.frame_id
            allowed0 = act0.allowed_slots
            for ev in events:
                kind = ev[0]
                if kind == "ld":
                    n_loads += 1
                    address = ev[1]
                    cycle = ev[2]
                    observe_load(heap_get(address), cycle, False,
                                 ev[3], ev[4])
                    observe_line_load(
                        ld_touch(address // line_size, cycle))
                elif kind == "st":
                    n_stores += 1
                    address = ev[1]
                    cycle = ev[2]
                    observe_line_store(
                        st_touch(address // line_size, cycle))
                    heap_record(address, cycle)
                elif kind == "lld":
                    n_local_loads += 1
                    frame_id = ev[1]
                    slot = ev[2]
                    ts = local_get((frame_id, slot))
                    if ts is None or frame_id != frame0:
                        continue
                    if allowed0 is not None and slot not in allowed0:
                        continue
                    observe_load(ts, ev[3], True, ev[4], ev[5])
                else:
                    n_local_stores += 1
                    local_record(ev[1], ev[2], ev[3])
        else:
            heap_get = self.heap_ts.get
            local_get = self.local_ts.get
            for ev in events:
                kind = ev[0]
                if kind == "ld":
                    n_loads += 1
                    address = ev[1]
                    cycle = ev[2]
                    store_ts = heap_get(address)
                    old_line = ld_touch(address // line_size, cycle)
                    for act in banked:
                        bank = act.bank
                        bank.observe_load(store_ts, cycle, False,
                                          ev[3], ev[4])
                        bank.observe_line_load(old_line)
                elif kind == "st":
                    n_stores += 1
                    address = ev[1]
                    cycle = ev[2]
                    old_line = st_touch(address // line_size, cycle)
                    for act in banked:
                        act.bank.observe_line_store(old_line)
                    heap_record(address, cycle)
                elif kind == "lld":
                    n_local_loads += 1
                    frame_id = ev[1]
                    slot = ev[2]
                    ts = local_get((frame_id, slot))
                    if ts is None:
                        continue
                    for act in banked:
                        if act.frame_id != frame_id:
                            continue
                        if act.allowed_slots is not None \
                                and slot not in act.allowed_slots:
                            continue
                        act.bank.observe_load(ts, ev[3], True,
                                              ev[4], ev[5])
                else:
                    n_local_stores += 1
                    local_record(ev[1], ev[2], ev[3])
        self.n_loads += n_loads
        self.n_stores += n_stores
        self.n_local_loads += n_local_loads
        self.n_local_stores += n_local_stores

    # -- results ------------------------------------------------------------

    def finish(self) -> None:
        """End profiling: drop the convergence callback and validate
        end-of-run invariants (all activations closed).

        The callback is the runtime's bound method, which holds the
        whole interpreter (and its linked trace-JIT superblocks); the
        finished device pickles without it, into the artifact cache and
        across the fleet's process boundary.
        """
        self.on_converged = None
        if self._stack and self.strict:
            raise TracerError(
                "program ended with %d open STL activations: %r"
                % (len(self._stack), self.active_loops))

    def dominant_parent(self, loop_id: int) -> int:
        """The most frequent dynamic parent of ``loop_id`` (-1 = none)."""
        parents = self.dynamic_parents.get(loop_id)
        if not parents:
            return -1
        return max(parents.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def max_dynamic_depth(self) -> int:
        """Deepest executed STL nest (Table 6 column d)."""
        return max((s.dynamic_depth for s in self.stats.values()),
                   default=0)
