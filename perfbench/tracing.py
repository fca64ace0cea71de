"""Span and count recording around the package's public functions.

A ``Tracer`` replaces a function at the module (or class) attribute its
callers look it up through, records one span per call (inclusive duration
plus self time, meaning the duration minus the time of traced calls nested
inside it) and optionally a work count taken from the call's arguments or
result. ``restore`` puts every original back. Nothing under ``src/`` is
edited; the wrapping lives only in the benchmark process.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class TraceData:
    """What one recording phase saw: per-span durations, self times, counts."""

    def __init__(self):
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def total(self, name: str) -> float:
        return sum(self.spans.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.spans.get(name, ()))


class Tracer:
    """Installs wrappers and collects their records into ``data``."""

    def __init__(self):
        self.data = TraceData()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> TraceData:
        """Start a new recording phase; returns the finished one."""
        done, self.data = self.data, TraceData()
        return done

    def span(self, owner, attr: str, name: str, tally=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``tally(args, result)`` returns a work count added to
        ``counts[name]`` after each successful call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                data = tracer.data
                data.spans[name].append(elapsed)
                data.self_time[name] += elapsed - nested
            if tally is not None:
                tracer.data.counts[name] += tally(args, result)
            return result

        self._install(owner, attr, original, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.data.counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, counted)

    def _install(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
