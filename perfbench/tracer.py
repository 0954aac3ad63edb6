"""In-memory span tracer that wraps the package's public functions from
outside the package.

``Tracer.install`` rebinds each traced name in every loaded
``cryptogenography`` module that holds a copy of it (``cli``, ``suspicion``,
``game`` and ``embedding`` import functions by name), wraps classes'
``__init__`` and classmethods in place, and ``uninstall`` restores every
original. Generators are timed per ``next()``. Each span records its
operation, its parent span and its self time (duration minus the part
covered by traced children); counts are read from arguments and return
values at the boundary, so they repeat exactly for identical inputs.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

PACKAGE = "cryptogenography"


@dataclass(frozen=True)
class Target:
    """One traced boundary. ``attr`` is ``func``, ``Class.__init__`` or
    ``Class.classmethod``; ``counter`` maps the call to exact counts."""

    name: str  # metric prefix, "<module>.<function>"
    module: str
    attr: str
    kind: str = "func"  # "func", "gen", "init" or "classmethod"
    counter: Optional[Callable] = None


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    op: tuple  # (pass index, operation name)
    name: str
    start: float
    duration: float
    self_time: float
    counts: Optional[dict]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op: tuple = (None, None)
        self.missing: list = []
        self._stack: list = []  # [span_id, child time, parent id]
        self._next_id = 0
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _open(self) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, 0.0, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, start, end, counts) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append(
            Span(frame[0], frame[2], self.op, name, start, duration, duration - frame[1], counts)
        )

    def wrap(self, name: str, func, counter=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = tracer._open()
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._close(frame, name, start, perf_counter(), None)
                raise
            end = perf_counter()
            counts = counter(args, kwargs, result) if counter else None
            tracer._close(frame, name, start, end, counts)
            return result

        return traced

    def wrap_generator(self, name: str, func, counter=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                frame = tracer._open()
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(frame, name, start, perf_counter(), None)
                    return
                except BaseException:
                    tracer._close(frame, name, start, perf_counter(), None)
                    raise
                end = perf_counter()
                tracer._close(frame, name, start, end, counter(item) if counter else None)
                yield item

        return traced

    # -- installing ----------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target; a name the package no longer has is recorded
        in ``missing`` and left alone."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        self.missing = []
        for target in targets:
            module = sys.modules.get("%s.%s" % (PACKAGE, target.module))
            owner_name, _, attr = target.attr.rpartition(".")
            owner = module
            if owner_name and module is not None:
                owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(target.name)
                continue
            original = vars(owner)[attr]
            if target.kind == "classmethod":
                wrapped = classmethod(self.wrap(target.name, original.__func__, target.counter))
                self._rebind(owner, attr, original, wrapped)
            elif target.kind == "init":
                self._rebind(owner, attr, original, self.wrap(target.name, original, target.counter))
            else:
                make = self.wrap_generator if target.kind == "gen" else self.wrap
                wrapped = make(target.name, original, target.counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def totals(self, key: Callable) -> dict:
        """{key(span): {name: {"calls", "s", "self_s", counts..., "durations"}}}."""
        out: dict = {}
        for span in self.spans:
            slot = out.setdefault(key(span), {}).setdefault(
                span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
            )
            slot["calls"] += 1
            slot["s"] += span.duration
            slot["self_s"] += span.self_time
            slot["durations"].append(span.duration)
            for stat, value in (span.counts or {}).items():
                slot[stat] = slot.get(stat, 0) + value
        return out
