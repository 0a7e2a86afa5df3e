import tracemalloc

import numpy as np
import pytest

from rankprune import synth


@pytest.fixture(scope="session")
def toy_cfg():
    return synth.toy_config()


@pytest.fixture(scope="session")
def random_model(toy_cfg):
    # session-scoped: tests must treat it as read-only
    return synth.make_random_model(toy_cfg, seed=0, scale=0.05)


@pytest.fixture(scope="session")
def planted_model(toy_cfg):
    return synth.make_planted_model(toy_cfg, seed=0)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@pytest.fixture()
def heap_peak():
    """heap_peak(fn, *args) -> (result, bytes): fn's result and the most
    heap it held at once beyond what was allocated before it ran.

    tracemalloc sees numpy's array buffers as well as Python objects, so
    the figure is deterministic and independent of wall time.
    """

    def measure(fn, *args):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak - before

    return measure
