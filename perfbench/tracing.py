"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the program: `Tracer.install` replaces each
public function at the name its callers look it up by (a module global such
as `largescale.embed`, or a class attribute such as `RateSolver.solve`) with
a wrapper that records one span per call. `Tracer.remove` puts the original
functions back, so untraced executions run unwrapped code.

Time spent in the benchmark's own observation hooks (per-solve checks,
host-speed probes) runs on a paused clock: it is excluded from every span and
from the traced execution time, so layer self times add up to the traced run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class PausableClock:
    """perf_counter minus the time spent inside `paused()` blocks."""

    def __init__(self):
        self._paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0


class Tracer(PausableClock):
    def __init__(self):
        super().__init__()
        # span: [name, start, end, parent index or -1, info from the hook]
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def install(self, targets) -> None:
        """targets: (owner, attribute, span name, hook or None). A hook is
        called as hook(args, kwargs, result) after the call, on the paused
        clock, and its return value is stored as the span's info."""
        for owner, attr, name, hook in targets:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrapper(original, name, hook))
            self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _wrapper(self, original, name, hook):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, tracer.clock(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer._stack.pop()
            if hook is not None:
                with tracer.paused():
                    span[4] = hook(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON array per span: [name, start, end, parent], times in
        seconds on the paused clock, parent the index of the enclosing span
        (-1 for a top-level span)."""
        with open(path, "w") as fh:
            for name, start, end, parent, _info in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
