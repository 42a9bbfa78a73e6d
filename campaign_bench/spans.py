"""In-memory spans for the traced run, and the arithmetic over them.

A :class:`Tracer` records one span per call at each layer boundary: name,
start, end and the span that caused it.  Each thread keeps its own stack of
open spans.  Work handed to a ``ThreadPoolExecutor`` (the parallel
installer, the analysis pool) starts from the span that was open in the
submitting thread, so a span opened on a pool thread is parented to the
calling span rather than left as a root.

Spans are recorded only from this benchmark's files: :func:`instrument`
wraps the program's public entry points at run time and undoes the wrapping
afterwards.  Nothing in the program changes.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; per-thread stacks, pool-aware parenting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """The innermost open span of this thread, else the span that
        handed this thread its work."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def begin(self, name: str) -> Span:
        parent = self.current()
        start = self.clock()
        with self._lock:
            span = Span(len(self.spans), name, parent, start)
            self.spans.append(span)
        self._stack().append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack().pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def bind(self, fn: Callable) -> Callable:
        """``fn`` to run on another thread, parented to the span open here."""
        parent = self.current()

        @functools.wraps(fn)
        def bound(*args, **kwargs):
            previous = getattr(self._local, "inherited", None)
            self._local.inherited = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.inherited = previous

        return bound


# -- run-time instrumentation of the program's public entry points ----------

#: (span name, module, class, method) for methods wrapped on their class
METHOD_POINTS: Sequence[Tuple[str, str, str, str]] = (
    ("core.epoch", "repro.core.continuous", "ContinuousBenchmarking", "run_epoch"),
    ("core.regressions", "repro.core.continuous", "ContinuousBenchmarking",
     "regressions"),
    ("ramble.setup", "repro.ramble.workspace", "Workspace", "setup"),
    ("ramble.run", "repro.ramble.workspace", "Workspace", "run"),
    ("ramble.analyze", "repro.ramble.workspace", "Workspace", "analyze"),
    ("spack.concretize", "repro.spack.concretizer", "Concretizer",
     "concretize_together"),
    ("spack.install", "repro.spack.installer", "Installer", "install"),
    ("systems.execute", "repro.systems.executor", "SystemExecutor", "execute"),
    ("resilience.execute", "repro.resilience.ft_executor",
     "FaultTolerantExecutor", "execute"),
    ("ci.ingest", "repro.ci.metricsdb", "MetricsDatabase", "ingest_analysis"),
    ("analysis.scan", "repro.analysis.engine.core", "AnalysisEngine", "scan"),
    ("perf.store", "repro.perf.content_store", "ContentStore", "get"),
    ("perf.store", "repro.perf.content_store", "ContentStore", "put"),
)

#: (span name, module, function) for functions; every ``repro`` module that
#: bound the function by name is rebound to the wrapper
FUNCTION_POINTS: Sequence[Tuple[str, str, str]] = (
    ("core.driver", "repro.core.driver", "benchpark_setup"),
    ("benchmarks.kernel", "repro.benchmarks.saxpy", "run_saxpy"),
    ("benchmarks.kernel", "repro.benchmarks.stream", "run_stream"),
    ("benchmarks.kernel", "repro.benchmarks.amg.solver", "run_amg"),
    ("benchmarks.kernel", "repro.benchmarks.quicksilver", "run_quicksilver"),
    ("benchmarks.kernel", "repro.benchmarks.osu", "run_collective"),
    ("perf.fingerprint", "repro.perf.fingerprint", "fingerprint"),
)


def instrument(tracer: Tracer,
               methods: Iterable[Tuple[str, str, str, str]] = METHOD_POINTS,
               functions: Iterable[Tuple[str, str, str]] = FUNCTION_POINTS,
               ) -> Callable[[], None]:
    """Wrap the entry points in spans; returns the function that undoes it.

    ``ThreadPoolExecutor.submit`` is wrapped too, so that work submitted
    from inside a span is parented to it on the pool thread.
    """
    undo: List[Callable[[], None]] = []

    def setattr_undoable(owner, attr, value):
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        undo.append(lambda: setattr(owner, attr, original))

    for name, module, cls_name, method in methods:
        cls = getattr(importlib.import_module(module), cls_name)
        setattr_undoable(cls, method, tracer.wrap(name, vars(cls)[method]))

    for name, module, func in functions:
        original = getattr(importlib.import_module(module), func)
        traced = tracer.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    getattr(mod, func, None) is original:
                setattr_undoable(mod, func, traced)

    pool = concurrent.futures.ThreadPoolExecutor
    submit = pool.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        return submit(self, tracer.bind(fn), *args, **kwargs)

    setattr_undoable(pool, "submit", traced_submit)

    def uninstrument() -> None:
        while undo:
            undo.pop()()

    return uninstrument


# -- arithmetic over recorded spans -------------------------------------------

def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover.  Children on
    other threads may overlap each other; their union is subtracted once."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(s.start, s.end, children.get(s.id, ()))
            for s in spans]


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``busy_s`` (summed durations, a span nested in one of
    the same name counted once through its outermost) and ``self_s``
    (summed self times)."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s, self_s in zip(spans, selfs):
        row = out.setdefault(s.name, {"busy_s": 0.0, "self_s": 0.0})
        row["self_s"] += self_s
        parent = s.parent
        while parent is not None and by_id[parent].name != s.name:
            parent = by_id[parent].parent
        if parent is None:
            row["busy_s"] += s.duration
    return out
