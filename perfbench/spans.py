"""In-memory span recording around calls into the library's layers.

A :class:`Tracer` replaces chosen attributes (module functions, class
methods, classes) with thin wrappers that record one span per call:
``(id, name, start, end, parent)``.  Spans nest per thread, so a
layer's *self time* is its span's duration minus the part its child
spans cover.  Nothing is written while the benchmark runs; the spans
are dumped once at the end.

Tracing is opt-in per run: an untraced run installs no wrapper at all,
so it pays nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int]]

#: Marks a wrapped class attribute that was inherited, not owned.
_INHERITED = object()


class Tracer:
    """Records spans and counters; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside one span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def add_spans(self, spans: List[Span]) -> None:
        """Merge spans recorded elsewhere (e.g. in a worker process).

        Ids are remapped so they cannot collide with this tracer's own.
        """
        mapping = {span[0]: next(self._ids) for span in spans}
        for span_id, name, start, end, parent in spans:
            self.spans.append((
                mapping[span_id], name, start, end,
                mapping.get(parent),
            ))

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module (for its functions and classes) or a class
        (for its methods and static methods).  ``after(args, kwargs, result)``
        runs outside the span, so work a wrapper does for counting is not
        charged to the layer.
        """
        if isinstance(owner, type):
            # The raw class attribute (no descriptor binding), possibly
            # inherited; restore() deletes what the class did not own.
            original = next(
                klass.__dict__[attr] for klass in owner.__mro__
                if attr in klass.__dict__
            )
            if attr not in owner.__dict__:
                original = _INHERITED
        else:
            original = getattr(owner, attr)
        raw = getattr(owner, attr) if original is _INHERITED else original
        target = raw.__func__ if isinstance(raw, staticmethod) else raw
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, target, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        # Keep the wrapper picklable by reference under the original's
        # qualified name (process pools pickle functions that way).
        wrapper.__module__ = getattr(target, "__module__", None)
        wrapper.__qualname__ = getattr(target, "__qualname__", attr)
        installed = staticmethod(wrapper) if isinstance(raw, staticmethod) \
            else wrapper
        self._patches.append((owner, attr, original))
        setattr(owner, attr, installed)

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #
    def self_times(self, since: float = float("-inf")) -> Dict[str, float]:
        """Total self time per span name, over spans starting at ``since``."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            if start >= since:
                totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def durations(self, name: str, since: float = float("-inf")) -> List[float]:
        """Wall durations of every span called ``name``."""
        return [
            end - start for _, n, start, end, _ in self.spans
            if n == name and start >= since
        ]

    def dump(self, path: str) -> None:
        """Write every span (one JSON object per line) and the counters."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def wrapper_cost_s(samples: int = 20000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        tracer.call("noop", noop)
    traced = time.perf_counter() - start
    return max(0.0, (traced - bare) / samples)
