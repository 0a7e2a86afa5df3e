import os
import threading
import time

import numpy as np
import pytest

from helpers import run_fresh
from rankprune import util


@pytest.fixture(params=[0, 1, 2, 9], ids=lambda n: f"{n}-workers")
def workers(request, monkeypatch):
    monkeypatch.setattr(util, "_workers", lambda: request.param)
    return request.param


def test_parallel_map_keeps_input_order(workers):
    # Later items finish first, so completion order is the reverse of input order.
    def slow_square(x):
        time.sleep(0.002 * (6 - x))
        return x * x

    assert util.parallel_map(slow_square, range(6)) == [x * x for x in range(6)]
    assert util.parallel_map(slow_square, []) == []


def test_the_caller_runs_every_kth_item_and_the_pool_the_rest(workers):
    idents = util.parallel_map(lambda _: threading.get_ident(), range(6))
    shares = min(6, workers + 1)
    assert [i for i, t in enumerate(idents) if t == threading.get_ident()] == list(range(0, 6, shares))
    assert len(set(idents)) <= shares


def test_parallel_map_tasks_see_the_callers_errstate(workers):
    with np.errstate(under="raise", over="ignore"):
        caller = np.geterr()
        seen = util.parallel_map(lambda _: np.geterr(), range(6))
    assert caller["under"] == "raise" and seen == [caller] * 6


def test_parallel_map_raises_the_lowest_failing_item_after_all_finish(workers):
    finished = []

    def fn(x):
        if x in (1, 4):
            time.sleep(0.02 if x == 1 else 0.0)  # item 4 fails first
            raise ValueError(f"item {x}")
        time.sleep(0.01)
        finished.append(x)
        return x

    with pytest.raises(ValueError, match="item 1"):
        util.parallel_map(fn, range(6))
    assert sorted(finished) == [0, 2, 3, 5]


def test_one_worker_per_other_cpu_without_an_affinity_set(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert util._workers() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert util._workers() == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_makes_its_own_pool():
    # The parent's pool threads do not exist in a fork; the child must not wait on them.
    script = """
        import os, signal
        from rankprune import util
        util._workers = lambda: 1
        util.parallel_map(abs, range(4))
        pid = os.fork()
        if pid == 0:
            signal.alarm(10)  # a hung child dies instead of outliving the test
            os._exit(0 if util.parallel_map(abs, range(-4, 0)) == [4, 3, 2, 1] else 1)
        raise SystemExit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """
    result = run_fresh(script, timeout=60)
    assert result.returncode == 0, result.stderr
