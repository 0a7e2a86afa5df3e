"""Synthetic model builders for tests, benchmarks and demos.

make_planted_model builds the structured fixture used by the ordering
benchmarks: attention matrices are planted low-rank (q/k more strongly
than v/o) plus noise, FFN matrices are full-spectrum with a minority of
strong intermediate channels, and a few embedding features carry outlier
magnitudes so the calibration norms have high dynamic range.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import store
from .config import ModelConfig
from .container import write_container
from .errors import DataError
from .transformer import (
    BYTE_VOCAB,
    Dense,
    TransformerLayer,
    TransformerModel,
    decode_step,
    detokenize_bytes,
    kv_caches,
    model_to_tensors,
)
from .util import canonical_json


def toy_config(n_layers: int = 2) -> ModelConfig:
    """The reference desk-scale shape: d=64, 4 heads, d_m=172, byte vocab."""
    return ModelConfig(
        dim=64, n_heads=4, head_dim=16, n_layers=n_layers, ffn_dim=172, vocab_size=256
    )


def _layer_from_arrays(d: int, arrays: dict[str, np.ndarray]) -> TransformerLayer:
    """A dense layer with unit norms from {TransformerLayer attribute: weight}."""
    return TransformerLayer(
        attn_norm=np.ones(d),
        ffn_norm=np.ones(d),
        **{p.attr: Dense(arrays[p.attr]) for p in store.PROJECTIONS},
    )


def make_random_model(config: ModelConfig, seed: int, scale: float = 0.05) -> TransformerModel:
    """Plain random-init model; every weight is N(0, scale^2)."""
    rng = np.random.default_rng(seed)
    d = config.dim
    dense = store.widths(config)
    layers = []
    for _ in range(config.n_layers):
        # One draw per projection in table order; that order fixes the weights a seed gives.
        arrays = {p.attr: rng.normal(0.0, scale, p.shape(dense)) for p in store.PROJECTIONS}
        layers.append(_layer_from_arrays(d, arrays))
    return TransformerModel(
        config=config,
        embed=rng.normal(0.0, 1.0, (config.vocab_size, d)),
        layers=tuple(layers),
        final_norm=np.ones(d),
        lm_head=rng.normal(0.0, scale, (config.vocab_size, d)),
    )


PLANTED_QK_RANK = 6
PLANTED_VO_RANK = 20
PLANTED_NOISE = 0.03
PLANTED_ATTN_SCALE = 0.25
PLANTED_FFN_SCALE = 0.20
PLANTED_HEAD_SCALE = 0.30
PLANTED_OUTLIER_FEATURES = 8
PLANTED_OUTLIER_SCALE = 6.0
PLANTED_STRONG_CHANNEL_FRAC = 0.25
PLANTED_STRONG_CHANNEL_SCALE = 4.0


def _planted_low_rank(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    a = rng.normal(0.0, 1.0, (d, rank))
    b = rng.normal(0.0, 1.0, (rank, d))
    w = (a @ b) * (PLANTED_ATTN_SCALE / np.sqrt(rank))
    return w + rng.normal(0.0, PLANTED_NOISE * PLANTED_ATTN_SCALE, (d, d))


def make_planted_model(config: ModelConfig, seed: int) -> TransformerModel:
    """Fixture with planted structure matching the method's assumptions.

    Attention weights are low-rank plus noise (q/k rank PLANTED_QK_RANK,
    lower than v/o's PLANTED_VO_RANK), FFN weights have a flat spectrum
    but concentrate their output energy in a strong minority of
    intermediate channels, and the embedding carries a few outlier
    features so input-norm weighting has signal.  The PLANTED_* constants
    and the draw order fix the weights a (config, seed) gives, which the
    fixture hashes pin.
    """
    rng = np.random.default_rng(seed)
    d, d_m = config.dim, config.ffn_dim

    embed = rng.normal(0.0, 1.0, (config.vocab_size, d))
    outlier = rng.choice(d, size=PLANTED_OUTLIER_FEATURES, replace=False)
    embed[:, outlier] *= PLANTED_OUTLIER_SCALE

    layers = []
    for _ in range(config.n_layers):
        gate = rng.normal(0.0, PLANTED_FFN_SCALE, (d_m, d))
        up = rng.normal(0.0, PLANTED_FFN_SCALE, (d_m, d))
        down = rng.normal(0.0, PLANTED_FFN_SCALE, (d, d_m))
        n_strong = max(1, int(round(PLANTED_STRONG_CHANNEL_FRAC * d_m)))
        strong = rng.choice(d_m, size=n_strong, replace=False)
        gate[strong, :] *= PLANTED_STRONG_CHANNEL_SCALE
        up[strong, :] *= PLANTED_STRONG_CHANNEL_SCALE
        layers.append(
            _layer_from_arrays(
                d,
                {
                    "q": _planted_low_rank(rng, d, PLANTED_QK_RANK),
                    "k": _planted_low_rank(rng, d, PLANTED_QK_RANK),
                    "v": _planted_low_rank(rng, d, PLANTED_VO_RANK),
                    "o": _planted_low_rank(rng, d, PLANTED_VO_RANK),
                    "gate": gate,
                    "up": up,
                    "down": down,
                },
            )
        )
    return TransformerModel(
        config=config,
        embed=embed,
        layers=tuple(layers),
        final_norm=np.ones(d),
        lm_head=rng.normal(0.0, PLANTED_HEAD_SCALE, (config.vocab_size, d)),
    )


def random_token_stream(n_tokens: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, BYTE_VOCAB, size=n_tokens, dtype=np.int64)


def sample_from_model(model: TransformerModel, n_tokens: int, seed: int, window: int = 64) -> np.ndarray:
    """Ancestral samples from the model itself, in independent windows.

    Data drawn from the model's own distribution makes its perplexity
    meaningful without training: the dense model scores its predictive
    entropy, and any compression damage shows up as excess perplexity.
    All windows are decoded together, one position at a time, through
    transformer.decode_step: the layer step transformer.forward runs, with
    per-layer key/value caches.  Each later token inverts the cumulative
    softmax at one uniform variate, exactly as per-step full forwards
    would draw it (asserted in the test suite).
    """
    cfg = model.config
    rng = np.random.default_rng(seed)
    n_windows = -(-n_tokens // window)
    tokens = np.empty((n_windows, window), dtype=np.int64)
    tokens[:, 0] = rng.integers(0, cfg.vocab_size, size=n_windows)
    caches = kv_caches(model, n_windows, window)
    for t in range(window - 1):
        z = decode_step(model, tokens[:, t], caches)
        if not np.isfinite(z).all():
            raise DataError(f"position {t + 1}: non-finite logits; the model overflows its float range")
        z -= z.max(axis=-1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=-1, keepdims=True)
        u = rng.random(n_windows)
        tokens[:, t + 1] = (np.cumsum(p, axis=1) < u[:, None]).sum(axis=1)
    return tokens.reshape(-1)[:n_tokens]


def write_fixture(
    out_dir: str | Path,
    seed: int = 0,
    n_layers: int = 2,
    calib_tokens: int = 8192,
    eval_tokens: int = 4096,
) -> Path:
    """Write a self-contained fixture: a planted model, its config, and
    calib and eval tokens sampled from the model itself, so perplexity
    reflects compression damage rather than noise.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = toy_config(n_layers)
    model = make_planted_model(config, seed)
    calib = sample_from_model(model, calib_tokens, seed + 1, window=64)
    evalset = sample_from_model(model, eval_tokens, seed + 2, window=64)
    write_container(out_dir / "model.safetensors", model_to_tensors(model))
    (out_dir / "config.json").write_text(canonical_json(config.to_dict()), encoding="utf-8")
    (out_dir / "calib.bin").write_bytes(detokenize_bytes(calib))
    (out_dir / "eval.bin").write_bytes(detokenize_bytes(evalset))
    return out_dir


def _main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Write a synthetic model fixture.")
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--layers", type=int, default=2)
    args = parser.parse_args(argv)
    path = write_fixture(args.out_dir, seed=args.seed, n_layers=args.layers)
    print(f"fixture written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
