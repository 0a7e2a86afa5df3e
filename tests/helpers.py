"""Helpers that only the tests call: a random-init model, random byte
streams, the layer step with its input sites captured, and the name of
the BLAS kernel the golden pins were measured on."""

import ctypes
import glob
import os

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


# The OpenBLAS core every golden hash and pinned ppl was measured on; float
# summation order, and so the last bits of a float output, differ between cores.
PINNED_CORE = "SkylakeX"


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
    """The message of a failed golden pin: which kernel it was pinned on and which runs now."""
    return f"pinned on OpenBLAS core {PINNED_CORE}, running on {openblas_core()}"
