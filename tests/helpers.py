"""Helpers that only the tests call: a random-init model, random byte
streams, the layer step with its input sites captured, the name of the
BLAS kernel the golden pins were measured on, a snippet run in a fresh
interpreter, and the leaf edits of the JSON mutation sweeps."""

import ctypes
import glob
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from rankprune import store, synth, transformer
from rankprune.config import ModelConfig
from rankprune.transformer import TransformerModel


def make_random_model(config: ModelConfig, seed: int, scale: float = 0.05) -> TransformerModel:
    """Plain random-init model; every weight is N(0, scale^2)."""
    rng = np.random.default_rng(seed)
    d = config.dim
    dense = store.widths(config)
    layers = []
    for _ in range(config.n_layers):
        # One draw per projection in table order; that order fixes the weights a seed gives.
        arrays = {p.attr: rng.normal(0.0, scale, p.shape(dense)) for p in store.PROJECTIONS}
        layers.append(synth._layer_from_arrays(d, arrays))
    return TransformerModel(
        config=config,
        embed=rng.normal(0.0, 1.0, (config.vocab_size, d)),
        layers=tuple(layers),
        final_norm=np.ones(d),
        lm_head=rng.normal(0.0, scale, (config.vocab_size, d)),
    )


def random_token_stream(n_tokens: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=n_tokens, dtype=np.int64)  # the byte vocabulary


def grabbing_layer_forward(cfg, layer, x):
    """One `_layer_forward` step; returns (output, {site: copy of what grab saw})."""
    sites = {}
    out = transformer._layer_forward(cfg, layer, x, lambda site, values: sites.__setitem__(site, values.copy()))
    return out, sites


def captured_sites(model: TransformerModel, tokens, n_layers: int | None = None) -> dict:
    """{(layer, site): activations} of one token stream's first n_layers layers (all when None)."""
    caps = {}
    x = transformer.embed(model, tokens)
    for i, layer in enumerate(model.layers[:n_layers]):
        x, sites = grabbing_layer_forward(model.config, layer, x)
        caps.update({(i, site): values for site, values in sites.items()})
    return caps


# The OpenBLAS cores the golden hashes and pinned ppl were measured on, each
# on its own core; float summation order, and so the last bits of a float
# output, differ between cores.
PINNED_CORES = ("SkylakeX", "Haswell", "Sandybridge")


def openblas_core() -> str:
    """The core of numpy's bundled OpenBLAS, as it names it, or "unknown"."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            corename = lib.scipy_openblas_get_corename64_
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def kernel_note() -> str:
    """The message of a failed golden pin: which kernels it was pinned on and which runs now."""
    return f"pinned on OpenBLAS cores {', '.join(PINNED_CORES)}, running on {openblas_core()}"


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(script: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run a Python snippet in a fresh interpreter that imports rankprune from
    this checkout's src/, with the caller's environment, its BLAS thread and
    core variables included; stdout and stderr are captured as text.  What a
    process imports can only be seen this way: the test process has loaded
    every module some test imports."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=timeout,
    )


def json_leaves(node, path=()):
    """(path, value) of each leaf of a JSON tree.  Of a list only the first and
    last entries are taken: the checks treat a list's entries alike."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_leaves(value, (*path, key))
    elif isinstance(node, list) and node:
        for j in sorted({0, len(node) - 1}):
            yield from json_leaves(node[j], (*path, j))
    else:
        yield path, node


def leaf_edits(value):
    """{label: edited value}: ints +-1, strings "bogus", and flips to each other JSON type."""
    flips = {"float": float(value) if type(value) in (int, bool) else 0.5, "bool": True,
             "null": None, "list": [value], "dict": {"value": value}}
    edits = {label: flip for label, flip in flips.items() if type(flip) is not type(value)}
    if type(value) is bool:
        edits["bool"] = not value
    if type(value) is int:
        edits.update({"+1": value + 1, "-1": value - 1})
    if type(value) is str:
        edits["bogus"] = "bogus"
    return edits


def set_leaf(tree, path, value):
    """Set the leaf at path, adding the objects on the way that are missing."""
    *parents, leaf = path
    for key in parents:
        tree = tree[key] if isinstance(tree, list) else tree.setdefault(key, {})
    tree[leaf] = value
