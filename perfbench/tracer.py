"""Span tracing from outside the program, by wrapping its public functions.

Each wrapper replaces one function *as a calling module sees it* (for
example ``unicolor.engine.enabled_set``, which ``engine.run`` looks up in
its own module globals) and records a span: name, start, end and the span
that was open when it began.  Spans stay in flat arrays until the run ends.
A name that a later version of the program no longer has is skipped, so it
reports 0 calls instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = [-1]
        self.counters: dict[str, int] = {}
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, recorded even when the
        program's wrappers are paused."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def traced(self, name: str):
        """A benchmark span inside which the program's wrappers record."""
        with self.span(name):
            self.active = True
            try:
                yield
            finally:
                self.active = False

    def patch(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's arguments that
        returns one.  ``on_result`` sees each traced call's return value.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        namer = name if callable(name) else (lambda *a, **k: name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(namer(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def aggregate(self, context: str | None = None) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total_s, self_s)``.

        Self time is a span's duration minus the time its direct child
        spans cover; children never overlap in this single-threaded trace.
        With ``context``, only spans nested inside a span of that name count.
        """
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0.0] * count
        ctx_id = self._name_ids.get(context, -2) if context else -1
        inside = [ctx_id == -1] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
                if ctx_id >= 0 and (inside[p] or self.name_of[p] == ctx_id):
                    inside[i] = True
        out: dict[str, list] = {}
        for i in range(count):
            if not inside[i]:
                continue
            row = out.setdefault(self.names[self.name_of[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - covered[i]
        return {name: tuple(row) for name, row in out.items()}

    def write_spans(self, path) -> None:
        """One span per line: index, name, start, end, parent (-1 at top)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
