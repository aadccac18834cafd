"""Layer spans recorded from the benchmark, around calls into each layer.

The program itself emits no spans on these paths, so the traced run
wraps the public functions of each layer for its duration: every call
made while an operation is being traced records a span (name, duration,
parent via the call stack) and, for a few layers, counts read from
public properties around the call.  A layer's self time is its span
time minus the time its child spans cover; the root span of each
operation keeps what no wrapped layer claimed (the unattributed
remainder: benchmark glue and unwrapped code).

Spans are aggregated per operation and rescaled by that operation's
host factor before they are added up, so per-layer times are on the
same normalized clock as the end-to-end numbers.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer", "ROOT"]

ROOT = "op"


class LayerTracer:
    """Installs span wrappers and aggregates them per traced operation."""

    def __init__(self) -> None:
        #: True only while a traced operation runs; wrappers pass
        #: straight through otherwise (set-up, checks, untraced ops).
        self.active = False
        self._stack: List[List[float]] = []
        self._op: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        self._op_counts: Dict[str, float] = defaultdict(float)
        #: name -> [normalized total s, normalized self s, calls] over traced ops.
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.traced_ops = 0
        self._ops_by_kind: Dict[str, int] = defaultdict(int)
        self._by_kind: Dict[Tuple[str, str], float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_start: Optional[float] = None

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (no-op when inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            record = self._op[name]
            record[0] += duration
            record[1] += duration - frame[0]
            record[2] += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a per-operation count (only while tracing)."""
        if self.active:
            self._op_counts[name] += amount

    def traced(self, fn: Callable, *args):
        """Run one whole operation as a traced root span."""
        self.active = True
        try:
            return self.span(ROOT, fn, *args)
        finally:
            self.active = False

    def close_op(self, scale: float, kind: str) -> None:
        """Fold the finished operation's spans in, rescaled by ``scale``
        (normalized / wall time of that operation); ``kind`` is the
        operation kind, for per-kind means."""
        for name, (total, self_time, calls) in self._op.items():
            agg = self.spans[name]
            agg[0] += total * scale
            agg[1] += self_time * scale
            agg[2] += calls
            self._by_kind[(name, kind)] += self_time * scale
        for name, amount in self._op_counts.items():
            # Counts named *_s are durations: normalized like spans.
            self.counts[name] += amount * scale if name.endswith("_s") else amount
        self._op.clear()
        self._op_counts.clear()
        self.traced_ops += 1
        self._ops_by_kind[kind] += 1

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        on_call: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_call(result, args)`` runs after the wrapped call while
        tracing, for counts read from the call's result or arguments.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            result = tracer.span(name, original, *args, **kwargs)
            if on_call is not None:
                on_call(result, args)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def watch_gc(self) -> None:
        """Count full collections and their pauses inside traced ops."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is not None:
            self._op_counts["runtime.gc_pause_s"] += time.perf_counter() - self._gc_start
            self._gc_start = None
        if info.get("generation") == 2:
            self._op_counts["runtime.gc_gen2"] += 1

    def restore(self) -> None:
        """Undo every patch (latest first) and stop watching the collector."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def per_op_ms(self, name: str, self_time: bool = False) -> float:
        """Mean normalized ms per traced operation spent in ``name``."""
        if not self.traced_ops:
            return 0.0
        record = self.spans.get(name)
        if record is None:
            return 0.0
        return 1000.0 * record[1 if self_time else 0] / self.traced_ops

    def per_op_count(self, name: str) -> float:
        """Mean per traced operation of a count."""
        if not self.traced_ops:
            return 0.0
        return self.counts.get(name, 0.0) / self.traced_ops

    def kind_ms(self, name: str, kind: str) -> float:
        """Mean normalized self ms of ``name`` per traced op of ``kind``."""
        n = self._ops_by_kind.get(kind, 0)
        return 1000.0 * self._by_kind.get((name, kind), 0.0) / n if n else 0.0

    def calls_per_op(self, name: str) -> float:
        if not self.traced_ops:
            return 0.0
        record = self.spans.get(name)
        return record[2] / self.traced_ops if record is not None else 0.0
