"""Timing wrappers around the program's public calls, installed at run time.

Only the traced run uses this module; the end-to-end metrics are measured
without it.  :meth:`SpanRecorder.install` replaces each target at the
attribute the caller looks up (a class attribute, or the module global a
caller resolves at call time) with a wrapper that records one span per call:
layer name, start, end, parent span and trace id.  Spans stay in memory
until the run ends.  The wrappers only read ``time.perf_counter`` and append
to a list, so they touch no random stream and cannot change an answer.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Optional

#: (layer, module, attribute path).  The attribute path is ``Class.method`` or
#: a module global.  Each entry names the public call the layer is timed at.
CORE_TARGETS = [
    ("graph.build", "repro.experiments.datasets", "load_dataset"),
    ("graph.build", "repro.graph.generators", "modular_social_graph"),
    ("graph.build", "repro.graph.generators", "barabasi_albert_graph"),
    # QueryContext resolves the spectral solve through its own module global.
    ("linalg.lambda", "repro.core.registry", "transition_eigenvalues"),
    ("core.engine", "repro.core.engine", "QueryEngine.query"),
    ("core.batch.plan", "repro.core.engine", "QueryEngine.plan"),
    ("core.batch.execute", "repro.core.batch", "QueryPlan.execute"),
    # The registry adapter calls geer_query / amc_estimate / the switch
    # budget through repro.core.geer's globals.
    ("core.geer", "repro.core.geer", "geer_query"),
    ("core.smm", "repro.core.geer", "_worst_case_walk_budget"),
    ("core.smm", "repro.core.smm", "SMMState.__init__"),
    ("core.smm", "repro.core.smm", "SMMState.step"),
    ("core.smm", "repro.core.smm", "SMMState.s_vector"),
    ("core.smm", "repro.core.smm", "SMMState.t_vector"),
    ("core.smm", "repro.core.smm", "SMMState.next_iteration_cost"),
    ("core.amc", "repro.core.geer", "amc_estimate"),
    ("sampling.walk", "repro.sampling.walks", "RandomWalkEngine.walk_scores"),
    ("core.update", "repro.core.engine", "QueryEngine.apply_update"),
    ("graph.delta_apply", "repro.graph.delta", "EdgeDelta.apply_to"),
]

SERVICE_TARGETS = [
    ("service.query", "repro.service.server", "ResistanceService.query"),
    ("service.query_many", "repro.service.server", "ResistanceService.query_many"),
    ("service.apply_update", "repro.service.server", "ResistanceService.apply_update"),
    ("service.cache.get", "repro.service.cache", "ResistanceCache.get"),
    ("service.sketch.query", "repro.service.sketch", "LandmarkSketchStore.query"),
    ("service.sketch.build", "repro.service.sketch", "LandmarkSketchStore.build"),
    ("net.pool.dispatch", "repro.net.pool", "SharedWorkerPool.execute_plan"),
    ("net.shm.publish", "repro.net.shm", "SharedContextRegistry.publish"),
]

#: The server's work-thread entry points: root spans that carry the
#: client-supplied trace id, so client latency can be joined to them.
NET_ROOTS = [
    ("net.work", "repro.net.server", "NetServer._work_query"),
    ("net.work", "repro.net.server", "NetServer._work_batch"),
    ("net.work", "repro.net.server", "NetServer._work_update"),
]


class SpanRecorder:
    """In-memory span store; one stack of open spans per thread."""

    def __init__(self) -> None:
        # Each span: [layer, start, end, parent index or -1, trace id].
        self.spans: list[list[Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace_id: Optional[str]) -> None:
        """Trace id given to root spans opened by this thread from now on."""
        self._local.trace_id = trace_id

    def wrap(self, layer: str, fn: Callable, trace_of: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
                trace_id = recorder.spans[parent][4]
            else:
                parent = -1
                trace_id = getattr(recorder._local, "trace_id", None)
            if trace_of is not None:
                trace_id = trace_of(args, kwargs)
            span = [layer, 0.0, 0.0, parent, trace_id]
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, targets, trace_of: Optional[Callable] = None) -> None:
        for layer, module_name, path in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(layer, original.__func__, trace_of))
            else:
                replacement = self.wrap(layer, original, trace_of)
            setattr(owner, attr, replacement)
            self._restore.append(functools.partial(setattr, owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per layer: (summed self time in seconds, number of calls).

        A call is a span whose parent belongs to another layer, so a layer
        that re-enters itself (a generator building sub-graphs) counts once.
        """
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for index, (layer, start, end, parent, _) in enumerate(self.spans):
            seconds, calls = totals.get(layer, (0.0, 0))
            outermost = parent < 0 or self.spans[parent][0] != layer
            totals[layer] = (seconds + (end - start) - child[index], calls + outermost)
        return totals

    def durations_by_trace(self, layers) -> dict[str, float]:
        """trace id -> summed duration of the spans of ``layers`` in that trace."""
        out: dict[str, float] = {}
        for name, start, end, _, trace_id in self.spans:
            if name in layers and trace_id is not None:
                out[trace_id] = out.get(trace_id, 0.0) + (end - start)
        return out
