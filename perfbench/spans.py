"""In-memory span tracer that wraps module attributes from outside the program.

The benchmark measures each layer of ``contextdep`` without editing it: for
the traced run it replaces a public function on the module that *calls* it
(for example ``contextdep.pipeline.llr_single``) with a wrapper that times
the call.  Spans nest, so every span's self time is its duration minus the
time its child spans cover, and the self times recorded while a command
runs add up to that command's wall time.

Wrapping is tolerant by design: a name that a later refactor deletes is
skipped (zero count, no span) and a name that is no longer called simply
records nothing.  Counters and self times are kept per span name in memory
and read out with ``snapshot``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    """Per-name self time and call counts for wrapped functions."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)

    def reset(self) -> None:
        """Forget recorded times and counts; wrappers stay installed."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.distinct.clear()

    def _enter(self) -> float:
        self._stack.append([0.0])
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> float:
        elapsed = time.perf_counter() - start
        children = self._stack.pop()[0]
        self.self_s[name] += elapsed - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += elapsed
        return elapsed

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; returns (result, wall seconds)."""
        start = self._enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self._exit(name, start)
        return result, elapsed

    def wrap(self, module, attr: str, name: str,
             after: Callable | None = None, timed: bool = True) -> bool:
        """Replace ``module.attr`` by a traced wrapper.

        ``after(tracer, args, kwargs, result)`` runs once the call returns,
        outside the span, to record counts.  With ``timed=False`` the
        wrapper only counts calls, for functions too small to time.
        Returns False, and wraps nothing, when the attribute is missing.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        tracer = self

        if timed:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = tracer._enter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._exit(name, start)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
