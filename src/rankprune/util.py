"""Small shared helpers."""

from __future__ import annotations

import contextvars
import functools
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero (x must be >= 0)."""
    return int(math.floor(x + 0.5))


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_json(obj) -> str:
    """Stable, human-readable JSON used for manifests and reports."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _workers() -> int:
    """Pool threads beside the calling one: one per other CPU the process may
    run on (every CPU where the platform has no affinity set: macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """Made on first use and kept for the life of the process."""
    return ThreadPoolExecutor(workers, thread_name_prefix="rankprune")


if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's pool threads, so a task submitted to the
    # inherited pool would never run; the child makes its own.
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _attempt(fn, x):
    try:
        return fn(x), None
    except Exception as exc:  # carried to the caller, which raises it in input order
        return None, exc


def parallel_map(fn, items) -> list:
    """[fn(x) for x in items], in input order, on the calling thread and a
    process-wide pool of one thread per other CPU in the affinity set.

    The caller runs every k-th item itself, k = min(len(items), workers + 1),
    and the pool the rest.  Each pool task runs in a copy of the caller's
    context, where numpy keeps its `errstate`.  Every task finishes before an
    exception is raised: the one of the lowest-index failing item.  fn must
    not call a function that assumes one thread, such as perfbench's traced
    entry points.

    Threads gain only where fn releases the GIL for most of its time, as
    BLAS and LAPACK calls on large arrays do; many small numpy calls queue
    on the GIL and run slower than in one thread.
    """
    items, workers = list(items), _workers()
    shares = min(len(items), workers + 1)
    pending = {
        i: _pool(workers).submit(contextvars.copy_context().run, _attempt, fn, x)
        for i, x in enumerate(items)
        if i % shares
    }
    own = {i: _attempt(fn, x) for i, x in enumerate(items) if not i % shares}
    outcomes = [own[i] if i in own else pending[i].result() for i in range(len(items))]
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [value for value, _ in outcomes]
