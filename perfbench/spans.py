"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: the recorder replaces a
package's public entry points, looked up by name on each module that
imported them, with wrappers that time each call.  Nothing inside the
package is edited.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class Tracer:
    """Records spans as ``[name, start, end, parent index]`` rows.

    Calls are synchronous, so a span's children never overlap and its self
    time is its duration minus the sum of its direct children's durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(idx)

        return traced

    def instrument(self, module, attr: str, span_name: str, importers=None):
        """Wrap ``module.attr`` wherever it is bound under that name.

        ``importers`` are the modules searched for the binding (by default
        every loaded module of the same top-level package).  Returns False
        and records ``span_name`` as missing when the entry point no longer
        exists.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(span_name)
            return False
        if importers is None:
            top = module.__name__.split(".")[0]
            importers = [
                m for name, m in list(sys.modules.items())
                if m is not None and (name == top or name.startswith(top + "."))
            ]
        wrapper = self.wrap(fn, span_name)
        for mod in importers:
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, wrapper)
        return True

    def summary(self) -> dict:
        """Per span name: ``calls``, total seconds ``s`` and ``self_s``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]
