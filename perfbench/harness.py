"""Measurement machinery shared by the workloads: in-memory spans,
reversible function wrappers, the percentile rule, the open-loop
request generator, the peak-RSS probe, and run provenance.

Nothing here imports the program under test, so the self-tests in
``perfbench/tests`` exercise it in isolation.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import multiprocessing
import os
import platform
import queue
import resource
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: every percentile the benchmark reports must have at least this many
#: samples above it in the run that reports it
MIN_SAMPLES_ABOVE = 10


# -- spans ------------------------------------------------------------------

class Tracer:
    """Nested spans kept in memory, aggregated per name.

    Each thread has its own span stack.  Closing a span adds its
    duration to the enclosing span's child time, so a name's *self*
    time is its total minus the time its child spans cover.  Spans
    opened with ``record=True`` are also kept individually (name,
    start, duration, depth, thread) for the trace file written when
    the run ends.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[Dict[str, Any]] = []
        self.records: List[tuple] = []

    def _state(self) -> Dict[str, Any]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "spans": {}, "counts": {}, "roots": {},
                     "thread": threading.current_thread().name}
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str) -> None:
        self._state()["stack"].append([name, time.perf_counter(), 0.0])

    def exit(self, record: bool = False) -> float:
        end = time.perf_counter()
        state = self._state()
        stack = state["stack"]
        name, start, child = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        else:
            roots = state["roots"]
            roots[name] = roots.get(name, 0.0) + duration
        agg = state["spans"].get(name)
        if agg is None:
            agg = state["spans"][name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if record:
            with self._lock:
                self.records.append((name, start, duration, len(stack),
                                     state["thread"]))
        return duration

    def leaf(self, fn: Callable, name: str,
             size: Optional[Callable] = None) -> Callable:
        """A cheaper wrapper for hot calls that open no span inside
        them (listener methods): the call is timed as a closed span
        of ``name`` and, when ``size`` is given, ``size(args)`` is
        added to the ``name`` count."""
        local = self._local
        clock = time.perf_counter
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                state = getattr(local, "state", None) or state_of()
                stack = state["stack"]
                if stack:
                    stack[-1][2] += duration
                agg = state["spans"].get(name)
                if agg is None:
                    agg = state["spans"][name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration
                if size is not None:
                    counts = state["counts"]
                    counts[name] = counts.get(name, 0) + size(args)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, record: bool = True):
        """Context manager form of enter/exit."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit(record)

    def count(self, name: str, amount: float = 1) -> None:
        counts = self._state()["counts"]
        counts[name] = counts.get(name, 0) + amount

    def reset(self) -> None:
        """Forget every closed span and count (open spans survive)."""
        with self._lock:
            for state in self._states:
                state["spans"].clear()
                state["counts"].clear()
                state["roots"].clear()
            self.records.clear()

    def spans(self) -> Dict[str, Dict[str, float]]:
        """{name: {"count", "total_s", "self_s"}} over all threads."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            for state in self._states:
                for name, (n, total, own) in list(state["spans"].items()):
                    row = out.setdefault(
                        name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                    row["count"] += n
                    row["total_s"] += total
                    row["self_s"] += own
        return out

    def roots(self) -> Dict[tuple, float]:
        """{(thread name, span name): total seconds} of spans closed
        with no enclosing span in their thread."""
        out: Dict[tuple, float] = {}
        with self._lock:
            for state in self._states:
                for name, total in list(state["roots"].items()):
                    key = (state["thread"], name)
                    out[key] = out.get(key, 0.0) + total
        return out

    def counts(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        with self._lock:
            for state in self._states:
                for name, value in list(state["counts"].items()):
                    out[name] = out.get(name, 0) + value
        return out


class Patches:
    """Reversible replacement of functions and methods by wrappers.

    Only attributes defined directly on ``owner`` (a module or class)
    are patched, so restoring is a plain ``setattr`` of the saved
    object and :meth:`all_restored` can prove it by identity.
    """

    def __init__(self):
        self._saved: List[tuple] = []
        self._restored: List[tuple] = []

    def wrap(self, owner: Any, attr: str, tracer: Tracer,
             name: Any, after: Optional[Callable] = None,
             record: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper that opens span ``name``
        (a string, or a callable of the call's arguments returning
        one) around the call, then calls ``after(args, kwargs,
        result)`` outside the span."""
        self._replace(owner, attr,
                     lambda fn: traced(fn, tracer, name, after, record))

    def wrap_leaf(self, owner: Any, attr: str, tracer: Tracer, name: str,
                  size: Optional[Callable] = None) -> None:
        """As :meth:`wrap`, with :meth:`Tracer.leaf`."""
        self._replace(owner, attr, lambda fn: tracer.leaf(fn, name, size))

    def _replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            self._restored.append((owner, attr, original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def all_restored(self) -> bool:
        """Every wrapped attribute holds its original object again."""
        return not self._saved and all(
            vars(owner).get(attr) is original
            for owner, attr, original in self._restored)


def traced(fn: Callable, tracer: Tracer, name: Any,
           after: Optional[Callable] = None,
           record: bool = False) -> Callable:
    """``fn`` inside a span; arguments and result pass through."""
    dynamic = callable(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name(args) if dynamic else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(record)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


# -- statistics -------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refusing a percentile with
    fewer than :data:`MIN_SAMPLES_ABOVE` samples above it."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_SAMPLES_ABOVE:
        raise ValueError(
            "p%g of %d samples has %d above it; at least %d are needed"
            % (q, n, n - rank, MIN_SAMPLES_ABOVE))
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- open-loop load ---------------------------------------------------------

class Completion:
    """One open-loop request: when it was due, when the generator
    released it, when a connection sent it, and when it finished."""

    __slots__ = ("index", "due", "released", "sent", "done", "result",
                 "error")

    def __init__(self, index: int, due: float):
        self.index = index
        self.due = due
        self.released = self.sent = self.done = 0.0
        self.result: Any = None
        self.error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its completion —
        waits behind a stall count against every later request."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """Seconds the generator released the request after its due
        time."""
        return self.released - self.due


def run_open_loop(requests: Sequence[Any], offsets: Sequence[float],
                  lanes: int, connect: Callable[[], Any],
                  send: Callable[[Any, Any], Any],
                  close: Callable[[Any], None] = lambda conn: None,
                  lane: Callable[[int], int] = lambda index: 0,
                  clock: Callable[[], float] = time.perf_counter
                  ) -> List[Completion]:
    """Release ``requests[i]`` at ``start + offsets[i]`` seconds
    regardless of progress, into lane ``lane(i)``.  Each of ``lanes``
    threads owns one connection from ``connect()`` and sends its
    lane's released requests in order.  A send that raises records
    its error and the run continues."""
    queues = [queue.Queue() for _ in range(lanes)]
    start = clock()
    completions = [Completion(i, start + offset)
                   for i, offset in enumerate(offsets)]

    def worker(work: "queue.Queue") -> None:
        conn = connect()
        try:
            while True:
                item = work.get()
                if item is None:
                    return
                item.sent = clock()
                try:
                    item.result = send(conn, requests[item.index])
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    item.error = repr(exc)
                item.done = clock()
        finally:
            close(conn)

    threads = [threading.Thread(target=worker, args=(work,),
                                name="bench-conn-%d" % i, daemon=True)
               for i, work in enumerate(queues)]
    for thread in threads:
        thread.start()
    try:
        for item in completions:
            delay = item.due - clock()
            if delay > 0:
                time.sleep(delay)
            item.released = clock()
            queues[lane(item.index)].put(item)
    finally:
        for work in queues:
            work.put(None)
        for thread in threads:
            thread.join()
    return completions


# -- memory -----------------------------------------------------------------

def reap_children(timeout: float = 30.0) -> None:
    """Wait until every multiprocessing child has exited and been
    reaped, so its peak RSS is visible to :func:`peak_rss_mb`."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("child processes still running after %.0fs"
                               % timeout)
        time.sleep(0.02)


def peak_rss_mb() -> float:
    """Largest peak resident set among this process and every child
    it has reaped (pool workers, the daemon): Linux reports
    ``ru_maxrss`` in KiB, and for ``RUSAGE_CHILDREN`` it is the
    maximum over reaped descendants, not a sum."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- provenance -------------------------------------------------------------

def _git(root: str, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def tree_digest(root: str, subdir: str = "src") -> str:
    """SHA-256 over every file under ``root/subdir`` (path + bytes), so
    a run names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    base = os.path.join(root, subdir)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(root: str, workload: str, seed: int, seconds: float,
               trace: bool) -> Dict[str, Any]:
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "src_sha256": tree_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": sys.argv[1:],
    }


def dump_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
