"""Sequential cycle-cost interpreter.

This is the reproduction's stand-in for a single Hydra core running
JIT-compiled native code.  It executes bytecode deterministically,
accumulates a cycle count from :class:`~repro.runtime.costs.CostModel`,
and — when a :class:`~repro.runtime.events.TraceListener` is attached —
publishes exactly the events the TEST hardware would observe.

Design notes
------------
* The call stack is explicit (no Python recursion), so deeply recursive
  workloads cannot blow the host stack.
* Each function's instruction stream is predecoded once into a dispatch
  table of flat operand tuples ``(op, a, b, c, sub, imm, name, args)``
  with the opcode as a plain int, alongside a flat cycle-cost list.
  The hot loop dispatches on the precomputed int — no per-instruction
  attribute lookups, no enum comparisons.
* One dispatch loop, :meth:`Interpreter._run`, is the only place the
  interpreter gives bytecode its meaning.  Whether a listener is
  attached is fixed once per run in the local ``traced``; with no
  listener, annotation opcodes reduce to a cost charge and a pc bump,
  and with one, the loop publishes trace events.  Memory events (heap
  *and* annotated locals) go into one ordered buffer that is delivered
  via :meth:`~repro.runtime.events.TraceListener.on_mem_batch` and
  flushed before every loop marker, so per-event Python call overhead
  is paid once per batch instead of once per access.  A heap event
  carries the address of the element accessed, computed before a load
  overwrites its destination slot (``p = nxt[p]`` reports ``nxt[p]``
  of the old ``p``).
* Trace-JIT recording (:mod:`repro.runtime.tracejit`) rides on the
  same loop: while a :class:`~repro.runtime.tracejit.Recording` is
  live, the loop executes as usual and only reports branches, calls,
  returns and listener calls to it, so the recorder never re-implements
  an opcode.
* The cycle counter only ever increases, so the event stream (and each
  batch) is emitted in non-decreasing cycle order.  The columnar trace
  engine depends on this invariant: ``ColumnarRecording`` appends
  batches straight into flat columns and the cycles column is sorted by
  construction, which is what lets thread windowing bisect it without
  building a separate index.  Because batches are flushed before every
  loop marker, a whole batch also belongs to one stable activation
  stack — listeners may hoist per-activation state out of the per-event
  loop.
* ``max_instructions`` bounds runaway programs with a clear error.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bytecode.opcodes import Op
from repro.bytecode.program import Function, Program
from repro.errors import ExecutionError, HeapError
from repro.runtime.costs import DEFAULT_COSTS, CostModel
from repro.runtime.events import TraceListener
from repro.runtime.heap import Heap
from repro.runtime.tracejit import (
    BLACKLIST_MIN_OPS,
    BLACKLIST_PROBE,
    FLUSH_AT,
    MODE_FAST,
    MODE_FAST_TAIL,
    MODE_TRACED,
    MODE_TRACED_TAIL,
    Recording,
    TraceJIT,
    resolve_trace_jit,
)
from repro.runtime.values import apply_binop, apply_intrinsic, apply_unop

# plain-int opcodes for the dispatch loop (enum compares are slow)
_CONST = int(Op.CONST)
_MOV = int(Op.MOV)
_BIN = int(Op.BIN)
_UN = int(Op.UN)
_NEWARR = int(Op.NEWARR)
_ALOAD = int(Op.ALOAD)
_ASTORE = int(Op.ASTORE)
_LEN = int(Op.LEN)
_JMP = int(Op.JMP)
_BR = int(Op.BR)
_CALL = int(Op.CALL)
_RET = int(Op.RET)
_INTRIN = int(Op.INTRIN)
_SLOOP = int(Op.SLOOP)
_EOI = int(Op.EOI)
_ELOOP = int(Op.ELOOP)
_LWL = int(Op.LWL)
_SWL = int(Op.SWL)
_READSTATS = int(Op.READSTATS)
_PRINT = int(Op.PRINT)
_NOP = int(Op.NOP)


def _decode_one(ins) -> tuple:
    """One instruction as a flat dispatch-table entry."""
    return (int(ins.op), ins.a, ins.b, ins.c, ins.sub, ins.imm,
            ins.name, ins.args)


class RunResult:
    """Outcome of one program execution.

    ``jit`` is a deterministic trace-JIT counter snapshot (see
    :meth:`~repro.runtime.tracejit.TraceJIT.snapshot`), or ``None``
    when the trace JIT was disabled for the run.
    """

    def __init__(self, cycles: int, instructions: int, return_value,
                 heap: Heap, printed: List, jit=None):
        self.cycles = cycles
        self.instructions = instructions
        self.return_value = return_value
        self.heap = heap
        self.printed = printed
        self.jit = jit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<RunResult cycles=%d instrs=%d ret=%r>" % (
            self.cycles, self.instructions, self.return_value)


def _trace_point(jit, jstate, anchor, fn_name, code, costs, slots,
                 cycles, executed, jenv, traced, frame_id):
    """Handle a hot backedge target in the dispatch loop.

    The inline site has already filtered blacklisted anchors; here the
    anchor is either warming (int countdown), due for recording, or
    linked.  Linked traces *chain*: after each invocation the exit pc
    is dispatched to the next linked trace — the loop trace at a
    backedge target, or a tail trace at a hot side exit — so control
    only returns to the generic loop when no superblock covers the
    exit.  ``traced`` selects the superblocks that publish the
    identical event stream under ``frame_id``.  Returns ``(pc, cycles,
    executed, recording)`` for the loop to adopt; ``recording`` is a
    :class:`Recording` to drive from the resume pc, or ``None``.
    """
    mode = MODE_TRACED if traced else MODE_FAST
    trace = jstate[anchor]
    if trace.__class__ is int:
        if trace > 1:
            jstate[anchor] = trace - 1
            return anchor, cycles, executed, None
        return anchor, cycles, executed, Recording(
            jit, mode, fn_name, anchor, code, costs, len(slots), executed)
    tstate = jit.state_for(
        fn_name, MODE_TRACED_TAIL if traced else MODE_FAST_TAIL,
        len(code))
    state = jstate
    while True:
        if traced:
            res = trace.fn(slots, cycles, executed, frame_id, jenv)
        else:
            res = trace.fn(slots, cycles, executed, jenv)
        delta = res[2] - executed
        trace.invocations += 1
        trace.ops += delta
        full = delta // trace.n_ops
        trace.iterations += full
        if delta - full * trace.n_ops:
            trace.aborts += 1
        if trace.invocations == BLACKLIST_PROBE and \
                trace.ops < BLACKLIST_PROBE * BLACKLIST_MIN_OPS:
            jit.blacklist(state, trace.anchor)
        npc, cycles, executed = res
        if delta == 0:
            # budget exit: no progress was committed, so chaining would
            # spin — the generic loop re-executes and raises exactly
            return npc, cycles, executed, None
        nxt = jstate[npc]
        if nxt is not None and nxt.__class__ is not int:
            trace = nxt
            state = jstate
            continue
        nxt = tstate[npc]
        if nxt is None:
            return npc, cycles, executed, None
        if nxt.__class__ is int:
            if nxt > 1:
                tstate[npc] = nxt - 1
                return npc, cycles, executed, None
            return npc, cycles, executed, Recording(
                jit, mode, fn_name, npc, code, costs, len(slots),
                executed, tail=True)
        trace = nxt
        state = tstate


class Interpreter:
    """Executes a :class:`~repro.bytecode.program.Program`."""

    def __init__(self, program: Program,
                 cost_model: CostModel = None,
                 listener: Optional[TraceListener] = None,
                 max_instructions: int = 200_000_000,
                 trace_jit: Optional[bool] = None,
                 trace_jit_threshold: Optional[int] = None):
        self.program = program
        self.cost_model = cost_model if cost_model is not None \
            else DEFAULT_COSTS
        self.listener = listener
        self.max_instructions = max_instructions
        self._cost_cache = {}
        self._decoded_cache = {}
        # trace JIT: None consults JRPM_TRACE_JIT (default on); linked
        # traces persist across run() calls of this instance, like the
        # decoded/cost caches they are compiled from
        self.trace_jit = resolve_trace_jit(trace_jit)
        self._jit = TraceJIT(threshold=trace_jit_threshold) \
            if self.trace_jit else None

    def patch_cost(self, fn_name: str, pc: int, op: Op,
                   sub: int = 0) -> None:
        """Refresh one cached instruction after code patching (the
        runtime overwrites converged loops' READSTATS with NOPs, and
        running frames hold references to the cached cost and dispatch
        lists).  ``sub`` is the sub-opcode (BIN/UN) of the new
        instruction — cycle costs depend on it."""
        cached = self._cost_cache.get(fn_name)
        if cached is not None:
            cached[pc] = self.cost_model.cost(op, sub)
        decoded = self._decoded_cache.get(fn_name)
        if decoded is not None:
            fn = self.program.functions.get(fn_name)
            if fn is not None:
                decoded[pc] = _decode_one(fn.code[pc])
        if self._jit is not None:
            # superblocks covering this pc baked the old decoded form
            # and cost prefixes in as constants: drop them and re-arm
            # their anchors (one already on the stack side-exits at its
            # next validity check); traces elsewhere stay linked
            self._jit.invalidate_function(fn_name, pc)

    def _costs_for(self, fn: Function) -> List[int]:
        cached = self._cost_cache.get(fn.name)
        if cached is None:
            cost = self.cost_model.cost
            cached = [cost(ins.op, ins.sub) for ins in fn.code]
            self._cost_cache[fn.name] = cached
        return cached

    def _decoded_for(self, fn: Function) -> List[tuple]:
        cached = self._decoded_cache.get(fn.name)
        if cached is None:
            cached = [_decode_one(ins) for ins in fn.code]
            self._decoded_cache[fn.name] = cached
        return cached

    def run(self) -> RunResult:
        """Execute from the entry function to completion."""
        return self._run(self.listener)

    def _run(self, listener: Optional[TraceListener]) -> RunResult:
        traced = listener is not None
        heap = Heap()
        printed: List = []
        functions = self.program.functions

        entry = self.program.main
        fn_name = entry.name
        code = self._decoded_for(entry)
        costs = self._costs_for(entry)
        slots = [0] * entry.n_slots
        dst = -1
        pc = 0
        frame_id = 0
        next_frame_id = 1
        #: (code, costs, slots, return pc, dst, fn_name, frame_id,
        #: jstate)
        stack: List[tuple] = []

        cycles = 0
        executed = 0
        limit = self.max_instructions

        heap_load = heap.load
        heap_store = heap.store
        heap_load_addr = heap.load_addr
        heap_store_addr = heap.store_addr
        flush_at = FLUSH_AT

        # one ordered buffer for heap AND local memory events; flushed
        # before every loop marker so listeners observe the exact event
        # order the unbatched interface delivered
        buf: List[tuple] = []
        buf_append = buf.append
        if traced:
            on_mem_batch = listener.on_mem_batch
            mode = MODE_TRACED
        else:
            mode = MODE_FAST

        jit = self._jit
        #: the in-flight trace recording, if any (see _trace_point)
        rec = None
        if jit is None:
            jstate = None
            jenv = None
        else:
            jstate = jit.state_for(fn_name, mode, len(code))
            if traced:
                # superblocks share buf by identity (cleared, never
                # rebound), so events they append survive the finally
                # flush
                jenv = (limit, heap_load_addr, heap_store_addr,
                        heap.allocate, heap.length, printed, buf,
                        buf_append, on_mem_batch, listener.on_sloop,
                        listener.on_eoi, listener.on_eloop,
                        listener.on_readstats)
            else:
                jenv = (limit, heap_load, heap_store, heap.allocate,
                        heap.length, printed)

        try:
            while True:
                ins = code[pc]
                op = ins[0]
                cycles += costs[pc]
                executed += 1
                if executed > limit:
                    raise ExecutionError(
                        "instruction budget exceeded (%d)" % limit,
                        pc, fn_name)
                if op == _BIN:
                    try:
                        slots[ins[1]] = apply_binop(
                            ins[4], slots[ins[2]], slots[ins[3]])
                    except ExecutionError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    pc += 1
                elif op == _CONST:
                    slots[ins[1]] = ins[5]
                    pc += 1
                elif op == _MOV:
                    slots[ins[1]] = slots[ins[2]]
                    pc += 1
                elif op == _BR or op == _JMP:
                    if op == _JMP:
                        npc = ins[1]
                    else:
                        npc = ins[2] if slots[ins[1]] else ins[3]
                    if rec is not None:
                        if rec.over_limit(executed):
                            rec = None
                        elif rec.branch(pc, npc, None if op == _JMP
                                        else bool(slots[ins[1]])):
                            # the recording ended at this backedge and
                            # consumed it: no trace-point dispatch
                            rec = None
                            pc = npc
                            continue
                    if npc <= pc and jstate is not None \
                            and jstate[npc] is not None:
                        pc, cycles, executed, rec = _trace_point(
                            jit, jstate, npc, fn_name, code, costs,
                            slots, cycles, executed, jenv, traced,
                            frame_id)
                    else:
                        pc = npc
                elif op == _ALOAD:
                    try:
                        if traced:
                            slots[ins[1]], addr = heap_load_addr(
                                slots[ins[2]], slots[ins[3]])
                        else:
                            slots[ins[1]] = heap_load(
                                slots[ins[2]], slots[ins[3]])
                    except HeapError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    if traced:
                        buf_append(("ld", addr, cycles, fn_name, pc))
                        if len(buf) >= flush_at:
                            on_mem_batch(buf)
                            buf.clear()
                            if rec is not None:
                                rec = rec.listened(executed)
                    pc += 1
                elif op == _ASTORE:
                    try:
                        if traced:
                            addr = heap_store_addr(
                                slots[ins[1]], slots[ins[2]],
                                slots[ins[3]])
                        else:
                            heap_store(slots[ins[1]], slots[ins[2]],
                                       slots[ins[3]])
                    except HeapError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    if traced:
                        buf_append(("st", addr, cycles, fn_name, pc))
                        if len(buf) >= flush_at:
                            on_mem_batch(buf)
                            buf.clear()
                            if rec is not None:
                                rec = rec.listened(executed)
                    pc += 1
                elif op == _UN:
                    try:
                        slots[ins[1]] = apply_unop(ins[4], slots[ins[2]])
                    except ExecutionError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    pc += 1
                elif op == _NEWARR:
                    try:
                        slots[ins[1]] = heap.allocate(slots[ins[2]])
                    except HeapError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    pc += 1
                elif op == _LEN:
                    try:
                        slots[ins[1]] = heap.length(slots[ins[2]])
                    except HeapError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    pc += 1
                elif op == _INTRIN:
                    try:
                        slots[ins[1]] = apply_intrinsic(
                            ins[6], [slots[s] for s in ins[7]])
                    except ExecutionError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    pc += 1
                elif op == _CALL:
                    if rec is not None:
                        rec.abort()
                        rec = None
                    callee = functions.get(ins[6])
                    if callee is None:
                        raise ExecutionError(
                            "call to unknown function %r" % ins[6],
                            pc, fn_name)
                    new_slots = [0] * callee.n_slots
                    for i, arg_slot in enumerate(ins[7]):
                        new_slots[i] = slots[arg_slot]
                    stack.append((code, costs, slots, pc + 1, dst,
                                  fn_name, frame_id, jstate))
                    dst = ins[1]
                    fn_name = callee.name
                    code = self._decoded_for(callee)
                    costs = self._costs_for(callee)
                    slots = new_slots
                    pc = 0
                    frame_id = next_frame_id
                    next_frame_id += 1
                    if jit is not None:
                        jstate = jit.state_for(fn_name, mode, len(code))
                elif op == _RET:
                    if rec is not None:
                        rec.abort()
                        rec = None
                    value = slots[ins[1]] if ins[1] >= 0 else None
                    if not stack:
                        return RunResult(
                            cycles, executed, value, heap, printed,
                            None if jit is None else jit.snapshot())
                    (code, costs, slots, pc, ret_dst, fn_name,
                     frame_id, jstate) = stack.pop()
                    if dst >= 0:
                        slots[dst] = value
                    dst = ret_dst
                # --- annotations: pure cost with no listener --------
                elif op == _LWL or op == _SWL:
                    if traced:
                        buf_append(("lld" if op == _LWL else "lst",
                                    frame_id, ins[1], cycles, fn_name,
                                    pc))
                        if len(buf) >= flush_at:
                            on_mem_batch(buf)
                            buf.clear()
                            if rec is not None:
                                rec = rec.listened(executed)
                    pc += 1
                elif op == _EOI or op == _SLOOP or op == _ELOOP \
                        or op == _READSTATS:
                    if traced:
                        if buf:
                            on_mem_batch(buf)
                            buf.clear()
                        if op == _EOI:
                            listener.on_eoi(ins[1], cycles)
                        elif op == _SLOOP:
                            listener.on_sloop(ins[1], ins[2], cycles,
                                              frame_id)
                        elif op == _ELOOP:
                            listener.on_eloop(ins[1], cycles)
                        else:
                            listener.on_readstats(ins[1], cycles)
                        if rec is not None:
                            # the callback may have patched live code
                            rec = rec.listened(executed)
                    pc += 1
                elif op == _PRINT:
                    printed.append(slots[ins[1]])
                    pc += 1
                elif op == _NOP:
                    pc += 1
                else:  # pragma: no cover - exhaustive
                    raise ExecutionError(
                        "unknown opcode %r" % op, pc, fn_name)
        finally:
            if rec is not None:
                # an error ended the run: settle a recording that had
                # already run past its op limit, as a stop would have
                rec.over_limit(executed)
            # deliver events observed before an abnormal exit
            if buf:
                on_mem_batch(buf)
                buf.clear()


def run_program(program: Program,
                cost_model: CostModel = None,
                listener: Optional[TraceListener] = None,
                max_instructions: int = 200_000_000,
                trace_jit: Optional[bool] = None,
                trace_jit_threshold: Optional[int] = None) -> RunResult:
    """One-call convenience wrapper around :class:`Interpreter`."""
    interp = Interpreter(program, cost_model=cost_model, listener=listener,
                         max_instructions=max_instructions,
                         trace_jit=trace_jit,
                         trace_jit_threshold=trace_jit_threshold)
    return interp.run()
