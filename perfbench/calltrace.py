"""Span recording around calls into rankprune's modules, from outside the package.

A traced call is one span: name, start, end, parent, whether it raised,
and counts computed from its arguments and result.  Spans are kept in
memory by a `Recorder`; `traced(...)` rebinds each target function to a
recording wrapper for the duration of a `with` block.  Names that a
module brought in with `from ... import` are separate bindings of the
same function object, so every loaded `rankprune` module is scanned and
each binding of the original is rebound, then restored on exit.

Only the standard library is used here, so importing this module pulls
in neither numpy nor rankprune.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "rankprune"


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: bool = False
    counts: dict[str, float] = field(default_factory=dict)


class Recorder:
    """In-memory span store with a stack of open spans (one thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(id=len(self.spans), name=name, start=time.perf_counter(), parent=parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            self.close(s)


CountFn = Callable[[dict, object], dict]


@dataclass(frozen=True)
class Target:
    """A public function to trace: `module.attr`, reported as `name`."""

    module: object
    attr: str
    name: str
    count: CountFn | None = None


def _wrap(recorder: Recorder, target: Target, fn: Callable) -> Callable:
    sig = inspect.signature(fn) if target.count else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(target.name) as span:
            result = fn(*args, **kwargs)
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = target.count(bound.arguments, result)
        return result

    return wrapper


@contextmanager
def traced(recorder: Recorder, targets: list[Target]):
    """Rebind every binding of each target function in the loaded modules
    of the package to a recording wrapper; restore them all on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    saved: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            original = getattr(target.module, target.attr)
            wrapper = _wrap(recorder, target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, value))
                        setattr(module, key, wrapper)
        yield recorder
    finally:
        for module, key, value in reversed(saved):
            setattr(module, key, value)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children.get(s.id, [])) for s in spans}


def root_of(spans: list[Span]) -> dict[int, str]:
    """Name of the outermost ancestor of each span."""
    out: dict[int, str] = {}
    for s in spans:  # parents are recorded before their children
        out[s.id] = s.name if s.parent is None else out[s.parent]
    return out


def aggregate(spans: list[Span], scope: dict[str, tuple[str, ...]]) -> dict[str, float]:
    """Per-name totals: calls, busy_s, self_s, errors, and summed counts.

    Each name of `scope` gets every base statistic, zero if absent.  A span
    of `name` is counted only when its root span is one of `scope[name]`.
    """
    own = self_times(spans)
    roots = root_of(spans)
    out: dict[str, float] = {}
    for name in scope:
        out.update({f"{name}.calls": 0, f"{name}.busy_s": 0.0, f"{name}.self_s": 0.0, f"{name}.errors": 0})
    for s in spans:
        if s.name not in scope or roots[s.id] not in scope[s.name]:
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.busy_s"] += s.end - s.start
        out[f"{s.name}.self_s"] += own[s.id]
        out[f"{s.name}.errors"] += int(s.error)
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
    return out

