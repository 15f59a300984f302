"""In-memory span recorder and the wrappers the traced run installs.

The program carries no tracing code for this benchmark: the traced run
patches wrappers around public calls into each layer, records one span
per call (name, start, end, parent, op id) in memory, and removes the
wrappers when the traced phase ends. Untraced runs never install them.

Spans nest per thread: a call made inside another wrapped call on the
same thread gets it as parent. The op id comes from :data:`CURRENT_OP`
when the benchmark loop set one; work on a thread the loop did not
start (the serving daemon's worker pool) inherits its root span's id.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The benchmark op currently being driven (None outside an op).
CURRENT_OP: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "e2ebench_current_op", default=None
)

#: False inside :func:`untraced` (the benchmark's own checks).
_RECORDING: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "e2ebench_recording", default=True
)


@contextlib.contextmanager
def untraced() -> Iterator[None]:
    """Run a block without recording spans, e.g. an output check."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


#: ``(module, attribute path, span name)`` for every timed layer boundary.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.rfqgen", "RfQGen.run", "core.run"),
    ("repro.core.biqgen", "BiQGen.run", "core.run"),
    ("repro.core.lattice", "InstanceLattice.refine_children", "lattice.refine"),
    ("repro.core.lattice", "InstanceLattice.relax_children", "lattice.refine"),
    ("repro.core.lattice", "neighborhood_view", "graph.sampling"),
    ("repro.graph.sampling", "NeighborhoodView.attribute_values", "graph.sampling"),
    ("repro.graph.sampling", "NeighborhoodView.has_labeled_edge", "graph.sampling"),
    ("repro.graph.indexes", "GraphIndexes.__init__", "graph.indexes"),
    ("repro.service.context", "GraphContext.apply_delta_in_place", "graph.apply_delta"),
    ("repro.matching.incremental", "IncrementalVerifier.verify", "matching.verify"),
    ("repro.core.evaluator", "InstanceEvaluator.evaluate", "evaluator.score"),
    ("repro.core.evaluator", "InstanceEvaluator.repair_scoring", "scoring.repair"),
    ("repro.core.evaluator", "InstanceEvaluator.patch_scoring", "scoring.repair"),
    ("repro.core.evaluator", "InstanceEvaluator.rebuild_measures", "scoring.repair"),
    ("repro.core.update", "EpsilonParetoArchive.offer", "update.offer"),
    ("repro.groups.system", "GroupSystem.repair_membership", "groups.repair"),
    ("repro.streaming.session", "reverify_matches", "streaming.reverify"),
    ("repro.streaming.session", "StreamingSession.update", "streaming.update"),
    ("repro.service.admission", "AdmissionController.offer", "service.admission"),
    ("repro.service.admission", "AdmissionController.next", "service.admission"),
)

#: Every span name a traced run can report.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name in SPAN_TARGETS))

#: ``(module, attribute path, counter name)`` for calls that are only
#: counted: they are too frequent and too cheap to time one by one.
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.biqgen", "refines", "core.witness_checks"),
    ("repro.graph.sampling", "NeighborhoodView.attribute_values", "graph.sampling.calls"),
    ("repro.graph.sampling", "NeighborhoodView.has_labeled_edge", "graph.sampling.calls"),
)

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class SpanRecorder:
    """Collects spans and call counts in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, Optional[int]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so every call records a span called ``name``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _RECORDING.get():
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            if stack:
                parent, op = stack[-1]
            else:
                parent = None
                op = CURRENT_OP.get()
                if op is None:
                    op = -span_id  # an op of its own, e.g. a worker request
            stack.append((span_id, op))
            start = recorder.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = recorder.clock()
                stack.pop()
                recorder.spans.append((span_id, name, start, end, parent, op))

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so every call bumps the count ``name``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _RECORDING.get():
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


class Instrumentation:
    """Context manager that installs and removes the wrappers.

    Wrappers stack: a counted wrapper goes around the timed one, so a
    call is counted once and timed once. Removal restores each original
    attribute exactly.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        for module_name, path, name in SPAN_TARGETS:
            self._patch(module_name, path, lambda fn, n=name: self.recorder.timed(fn, n))
        for module_name, path, name in COUNT_TARGETS:
            self._patch(module_name, path, lambda fn, n=name: self.recorder.counted(fn, n))
        return self.recorder

    def _patch(self, module_name: str, path: str, make: Callable) -> None:
        owner, attribute = _resolve(module_name, path)
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(getattr(owner, attribute)))

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
