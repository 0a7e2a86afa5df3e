import hashlib
import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from helpers import captured_sites, grabbing_layer_forward, kernel_note, make_random_model, random_token_stream
from rankprune import synth, transformer, util
from rankprune.config import ModelConfig
from rankprune.errors import CalibrationError, DataError
from rankprune.lowrank import awsvd_factor
from rankprune.pruning import apply_pruning
from rankprune.transformer import (
    ALL_SITES,
    SITE_ATTN_INPUT,
    SITE_ATTN_O_INPUT,
    SITE_FFN_DOWN_INPUT,
    SITE_FFN_INPUT,
    Dense,
    Factored,
    KVCache,
    TransformerLayer,
    TransformerModel,
    apply_rope,
    advance,
    collect_stats,
    count_params_macs,
    detokenize_bytes,
    embed,
    forward,
    layer_stats,
    model_from_tensors,
    model_to_tensors,
    perplexity,
    read_token_file,
    _attention,
    _causal_mask,
    _layer_forward,
    _rope_tables,
    decode_step,
    kv_caches,
    rms_norm,
    silu,
    tokenize_bytes,
)


def _zero_model(cfg: ModelConfig) -> TransformerModel:
    d, d_m = cfg.dim, cfg.ffn_dim
    layers = tuple(
        TransformerLayer(
            attn_norm=np.ones(d),
            q=Dense(np.zeros((d, d))),
            k=Dense(np.zeros((d, d))),
            v=Dense(np.zeros((d, d))),
            o=Dense(np.zeros((d, d))),
            ffn_norm=np.ones(d),
            gate=Dense(np.zeros((d_m, d))),
            up=Dense(np.zeros((d_m, d))),
            down=Dense(np.zeros((d, d_m))),
        )
        for _ in range(cfg.n_layers)
    )
    return TransformerModel(
        config=cfg,
        embed=np.zeros((cfg.vocab_size, d)),
        layers=layers,
        final_norm=np.ones(d),
        lm_head=np.zeros((cfg.vocab_size, d)),
    )


def test_forward_single_token_normalized(random_model):
    logits = forward(random_model, np.array([17]))
    assert isinstance(logits, np.ndarray)
    assert logits.shape == (1, random_model.config.vocab_size)
    assert np.all(np.isfinite(logits))
    p = np.exp(logits - logits.max())
    p /= p.sum()
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_rejects_bad_ids(random_model):
    with pytest.raises(DataError):
        forward(random_model, np.array([256]))
    with pytest.raises(DataError):
        forward(random_model, np.array([], dtype=np.int64))


def test_causality_future_tokens_do_not_matter(random_model):
    toks_a = random_token_stream(16, 1)
    toks_b = toks_a.copy()
    toks_b[10:] = (toks_b[10:] + 7) % 256
    la = forward(random_model, toks_a)
    lb = forward(random_model, toks_b)
    assert np.allclose(la[:10], lb[:10], atol=1e-10)
    assert not np.allclose(la[10:], lb[10:])


def test_attention_rows_sum_to_one(random_model):
    # with a constant input sequence every attention value row is the same
    # vector, so the context equals that vector at every position iff the
    # probability rows sum to one
    toks = np.full(9, 5, dtype=np.int64)
    caps = captured_sites(random_model, toks, n_layers=1)
    h = caps[(0, "attn_input")]
    assert np.allclose(h, h[0], atol=1e-12)  # same normed input everywhere
    v_row = random_model.layers[0].v(h[0:1])
    ctx = caps[(0, "attn_o_input")]
    assert np.allclose(ctx, np.tile(v_row, (9, 1)), atol=1e-6)


def _einsum_layer_reference(cfg: ModelConfig, layer: TransformerLayer, x: np.ndarray):
    """One layer step with attention as first written: einsum scores, a
    np.tril + np.where mask, a row softmax and an einsum context."""
    n_pos, d_h, n_heads = x.shape[0], cfg.head_dim, layer.n_heads(cfg)
    sites = {}
    h = rms_norm(x, layer.attn_norm, cfg.norm_eps)
    sites[SITE_ATTN_INPUT] = h
    q = apply_rope(layer.q(h).reshape(n_pos, n_heads, d_h), cfg.rope_theta)
    k = apply_rope(layer.k(h).reshape(n_pos, n_heads, d_h), cfg.rope_theta)
    v = layer.v(h).reshape(n_pos, n_heads, d_h)
    scores = np.einsum("qhd,khd->hqk", q, k) / np.sqrt(d_h)
    causal = np.tril(np.ones((n_pos, n_pos), dtype=bool))
    scores = np.where(causal[None, :, :], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    context = np.einsum("hqk,khd->qhd", probs, v).reshape(n_pos, n_heads * d_h)
    sites[SITE_ATTN_O_INPUT] = context
    x = x + layer.o(context)
    h2 = rms_norm(x, layer.ffn_norm, cfg.norm_eps)
    sites[SITE_FFN_INPUT] = h2
    inter = silu(layer.gate(h2)) * layer.up(h2)
    sites[SITE_FFN_DOWN_INPUT] = inter
    return x + layer.down(inter), sites


def _layer_as(layer: TransformerLayer, dtype) -> TransformerLayer:
    """The layer with every float array cast to dtype."""
    return layer.with_projections(
        {name: proj.astype(dtype) for name, proj in layer.projections().items()},
        attn_norm=layer.attn_norm.astype(dtype), ffn_norm=layer.ffn_norm.astype(dtype),
    )


def _as_dtype(model: TransformerModel, dtype) -> TransformerModel:
    """The model with every float array cast to dtype."""
    return replace(
        model, embed=model.embed.astype(dtype), layers=tuple(_layer_as(layer, dtype) for layer in model.layers),
        final_norm=model.final_norm.astype(dtype), lm_head=model.lm_head.astype(dtype),
    )


def _model_arrays(model: TransformerModel) -> list[np.ndarray]:
    arrays = [model.embed, model.lm_head, model.final_norm]
    for layer in model.layers:
        arrays += [layer.attn_norm, layer.ffn_norm]
        arrays += [a for proj in layer.projections().values() for a in vars(proj).values()]
    return arrays


@pytest.fixture(scope="module")
def oracle_layers(toy_cfg):
    # a larger weight scale than random_model's, so the attention rows are
    # far from uniform and the mask and max subtraction matter
    dense = make_random_model(toy_cfg, seed=4, scale=0.2).layers[0]

    def truncated(proj, rank=8):
        u, s, vt = np.linalg.svd(proj.w, full_matrices=False)
        return Factored(u[:, :rank] * s[:rank], vt[:rank])

    kept = (0, 2, 3)
    rows = np.concatenate([np.arange(h * toy_cfg.head_dim, (h + 1) * toy_cfg.head_dim) for h in kept])
    q, k, v, o = apply_pruning({"q": dense.q.w, "k": dense.k.w, "v": dense.v.w}, {"o": dense.o.w}, rows).values()
    return {
        "dense": dense,
        "factored": TransformerLayer(
            attn_norm=dense.attn_norm, q=truncated(dense.q), k=truncated(dense.k),
            v=truncated(dense.v), o=truncated(dense.o), ffn_norm=dense.ffn_norm,
            gate=dense.gate, up=dense.up, down=dense.down,
        ),
        "head_pruned": TransformerLayer(
            attn_norm=dense.attn_norm, q=Dense(q), k=Dense(k), v=Dense(v), o=Dense(o),
            ffn_norm=dense.ffn_norm, gate=dense.gate, up=dense.up, down=dense.down,
        ),
    }


@pytest.mark.parametrize("kind", ["dense", "factored", "head_pruned"])
@pytest.mark.parametrize("n_pos", [1, 2, 33, 128, 129, 200, 512])  # above 128: causal-prefix blocks
def test_layer_forward_matches_einsum_reference(toy_cfg, oracle_layers, kind, n_pos):
    layer = oracle_layers[kind]
    x = np.random.default_rng(n_pos).normal(size=(n_pos, toy_cfg.dim))
    out, sites = grabbing_layer_forward(toy_cfg, layer, x)
    ref_out, ref_sites = _einsum_layer_reference(toy_cfg, layer, x)
    assert np.allclose(out, ref_out, rtol=1e-12, atol=1e-12)
    assert set(sites) == set(ALL_SITES)
    for site in ALL_SITES:
        assert sites[site].shape == ref_sites[site].shape
        assert np.allclose(sites[site], ref_sites[site], rtol=1e-12, atol=1e-12), site


@pytest.mark.parametrize("kind", ["dense", "factored", "head_pruned"])
@pytest.mark.parametrize("chunk", [1, 5])
def test_cached_steps_over_a_batch_match_full_windows(toy_cfg, oracle_layers, kind, chunk):
    # three windows fed `chunk` positions at a time through one cache
    layer = oracle_layers[kind]
    n_windows, n_pos = 3, 17
    x = np.random.default_rng(chunk).normal(size=(n_windows, n_pos, toy_cfg.dim))
    full = np.stack([_layer_forward(toy_cfg, layer, window) for window in x])
    shape = (n_windows, n_pos, layer.n_heads(toy_cfg), toy_cfg.head_dim)
    cache = KVCache(np.empty(shape), np.empty(shape))
    steps = [_layer_forward(toy_cfg, layer, x[:, t : t + chunk], cache=cache) for t in range(0, n_pos, chunk)]
    assert cache.length == n_pos
    assert np.allclose(np.concatenate(steps, axis=1), full, rtol=1e-12, atol=1e-12)
    # the same batch in one uncached call
    assert np.allclose(_layer_forward(toy_cfg, layer, x), full, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["dense", "factored", "head_pruned"])
def test_layer_step_runs_in_the_model_dtype(toy_cfg, oracle_layers, kind, dtype):
    # Nothing in the step upcasts a float32 layer, and a float64 layer stays float64:
    # every grabbed site, the output and the cache, uncached and cached.
    layer = _layer_as(oracle_layers[kind], dtype)
    x = np.random.default_rng(5).normal(size=(2, 7, toy_cfg.dim)).astype(dtype)
    seen = {}

    def grab(site, values):
        seen[site] = values.dtype

    out = _layer_forward(toy_cfg, layer, x, grab)
    assert out.dtype == dtype and seen == dict.fromkeys(ALL_SITES, np.dtype(dtype))
    shape = (2, 7, layer.n_heads(toy_cfg), toy_cfg.head_dim)
    cache = KVCache(np.empty(shape, dtype), np.empty(shape, dtype))
    seen.clear()
    for t in range(0, 7, 3):
        assert _layer_forward(toy_cfg, layer, x[:, t : t + 3], grab, cache=cache).dtype == dtype
    assert seen == dict.fromkeys(ALL_SITES, np.dtype(dtype))
    assert cache.k.dtype == cache.v.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decode_and_forward_run_in_the_model_dtype(random_model, dtype):
    model = _as_dtype(random_model, dtype)
    caches = kv_caches(model, 3, 4)
    assert all(c.k.dtype == c.v.dtype == dtype for c in caches)
    logits = decode_step(model, np.array([1, 2, 3]), caches)
    assert logits.dtype == dtype and all(c.length == 1 for c in caches)
    toks = random_token_stream(9, 2)
    logits, caps = forward(model, toks), captured_sites(model, toks)
    assert logits.dtype == dtype and {a.dtype for a in caps.values()} == {np.dtype(dtype)}


@pytest.mark.parametrize("kind", ["dense", "factored", "head_pruned"])
@pytest.mark.parametrize("n_pos", [1, 33, 128, 129, 200, 512])
def test_float32_layer_step_matches_einsum_reference(toy_cfg, oracle_layers, kind, n_pos):
    layer64 = oracle_layers[kind]
    x = np.random.default_rng(n_pos).normal(size=(n_pos, toy_cfg.dim)).astype(np.float32)
    out, sites = grabbing_layer_forward(toy_cfg, _layer_as(layer64, np.float32), x)
    ref_out, ref_sites = _einsum_layer_reference(toy_cfg, layer64, x.astype(np.float64))
    assert out.dtype == np.float32
    # Within 1e-5 of each array's largest magnitude: float32 rounding is ~6e-8
    # per operation, and the step's sums cancel, so small entries carry the
    # absolute error of the large ones (measured worst: 4.6e-7).
    for site, got, want in [("out", out, ref_out)] + [(site, sites[site], ref_sites[site]) for site in ALL_SITES]:
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want)), site


def test_rms_norm_reduces_float32_in_float64():
    # 1e20 squared overflows float32; the float64 mean square keeps the scale finite.
    x = np.random.default_rng(4).normal(size=(3, 64))
    x[:, 0] = 1e20
    y32 = rms_norm(x.astype(np.float32), np.ones(64, np.float32), 1e-5)
    assert y32.dtype == np.float32
    assert np.allclose(y32, rms_norm(x, np.ones(64), 1e-5), rtol=1e-6, atol=1e-12)


def test_causal_mask_is_cached_read_only_and_small():
    # One ATTENTION_ROWS x ATTENTION_ROWS triangle per dtype, whatever the window length.
    n = transformer.ATTENTION_ROWS
    lower = np.tri(n, dtype=bool)
    masks = {}
    for dtype in (np.dtype(np.float32), np.dtype(np.float64)):
        keep, keep_f = masks[dtype] = _causal_mask(dtype)
        assert keep.dtype == bool and np.array_equal(keep, lower)
        assert keep_f.dtype == dtype and np.array_equal(keep_f, lower.astype(dtype))
        assert keep.flags.writeable is False and keep_f.flags.writeable is False
        assert _causal_mask(dtype)[0] is keep and _causal_mask(dtype)[1] is keep_f
        with pytest.raises(ValueError):
            keep[0, 1] = True
        with pytest.raises(ValueError):
            keep_f[0, 1] = 1.0
    assert masks[np.dtype(np.float32)][1] is not masks[np.dtype(np.float64)][1]
    _causal_mask.cache_clear()
    for n_pos, start in ((5, 0), (1, 63), (300, 40)):
        q, k, v = (np.ones((2, m, 16), np.float32) for m in (n_pos, start + n_pos, start + n_pos))
        _attention(q, k, v, start)
    assert _causal_mask.cache_info().currsize == 1


def _full_mask_attention(q, k, v, start):
    """The blocked attention formula under a window-sized mask: the same 128-row blocks,
    each masked by the rows start..end of a full causal triangle, np.tri(end)[start:end]."""
    n_rows = q.shape[-2]
    rows = transformer.ATTENTION_ROWS
    if n_rows > rows:
        return np.concatenate(
            [_full_mask_attention(q[..., s : s + rows, :], k[..., : start + s + rows, :],
                                  v[..., : start + s + rows, :], start + s) for s in range(0, n_rows, rows)],
            axis=-2,
        )
    end = start + n_rows
    keep = np.tri(end, dtype=bool)[start:end]
    scores = (q * (1.0 / math.sqrt(q.shape[-1]))) @ k.swapaxes(-1, -2)
    scores -= scores.max(axis=-1, keepdims=True, where=keep, initial=-np.inf)
    np.clip(scores, transformer._softmax_floor(scores.dtype), 0.0, out=scores)
    np.exp(scores, out=scores)
    scores *= keep.astype(scores.dtype)
    return (scores @ v) / scores.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "n, start", [(128, 0), (129, 0), (300, 40), (512, 0), (2048, 0), (1, 0), (1, 63), (5, 100)]
)
def test_attention_matches_the_full_mask_formula_bit_for_bit(dtype, n, start):
    # Prefill windows and decode steps (1 or 5 rows after a filled cache) of 2
    # windows x 4 heads; scores of a few units, so rows are peaked and some
    # weights fall under the softmax floor.
    end = start + n
    rng = np.random.default_rng(n + start)
    q, k, v = (rng.normal(scale=3.0, size=(2, 4, m, 16)).astype(dtype) for m in (n, end, end))
    out = _attention(q, k, v, start)
    assert out.dtype == dtype
    assert np.array_equal(out, _full_mask_attention(q, k, v, start))


def test_attention_memory_does_not_grow_with_the_window():
    # A cold 2048-token float32 call, 4 heads x 16: its peak is about one
    # 128-row block's scores (4 MiB), and it caches only the 128 x 128 triangle.
    rng = np.random.default_rng(0)
    q, k, v = (rng.normal(size=(4, 2048, 16)).astype(np.float32) for _ in range(3))
    _causal_mask.cache_clear()
    tracemalloc.start()
    try:
        out = _attention(q, k, v, 0)
        peak = tracemalloc.get_traced_memory()[1]
        del out
        cached = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert cached < 2**20


@pytest.mark.parametrize(
    "n, d_h, start",
    [
        pytest.param(6, 16, 0, id="0-6"),
        pytest.param(6, 16, 5, id="5-16"),
        pytest.param(200, 256, 0, id="two-blocks-0-200"),
        pytest.param(200, 256, 70, id="two-blocks-70-300"),
    ],
)
def test_masked_scores_never_leak(n, d_h, start):
    # Query i is sqrt(d_h) e_i, so after the 1/sqrt(d_h) scale its score against
    # key j is exactly k[j, i]: every future key scores +1e300, and key 0 and the
    # key at the last row of the first 128-row block score -1000 wherever they
    # are kept, more than 745 below the row maximum wherever another key is
    # kept, so their weight is the softmax floor's, far under the tolerance.
    end = start + n
    rng = np.random.default_rng(start)
    causal = np.arange(end) <= np.arange(start, end)[:, None]  # (n, end)
    q = np.tile(math.sqrt(d_h) * np.eye(n, d_h), (2, 1, 1))
    k = rng.normal(size=(2, end, d_h))
    k[:, :, :n] = np.where(causal.T, k[:, :, :n], 1e300)
    for j in (0, min(start + transformer.ATTENTION_ROWS, end) - 1):
        k[:, j, :n] = np.where(causal.T[j], -1000.0, 1e300)
    v = rng.normal(size=(2, end, d_h))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _attention(q, k, v, start)

    scores = np.where(causal, q @ k.swapaxes(-1, -2) / np.sqrt(d_h), -np.inf)
    assert np.max(scores[np.broadcast_to(causal, scores.shape)]) < 10.0
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ref = (e / e.sum(axis=-1, keepdims=True)) @ v
    assert np.all(np.isfinite(out))
    assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "dtype, gap, rtol", [(np.float32, 90.0, 1e-6), (np.float64, 700.0, 1e-12)], ids=["float32", "float64"]
)
@pytest.mark.parametrize("start", [0, 70])
def test_softmax_numerators_are_never_subnormal(dtype, gap, rtol, start):
    # As in test_masked_scores_never_leak, row i's score against key j is k[j, i].
    # Keys score in [-1, 0) except every third key (0, 3, 6, ...), which scores
    # -gap, so gap - 1 or more below the row maximum wherever another key is kept:
    # e^-89 is subnormal in float32, and in float64 e^-699 times a value under
    # 8e-5 is; those keys' values are 1e-3 times a normal draw.  Without the
    # softmax floor exp (float32) or the value product (float64) underflows.
    n, d_h = 200, 256
    end = start + n
    rng = np.random.default_rng(start)
    causal = np.arange(end) <= np.arange(start, end)[:, None]  # (n, end)
    q = np.tile(math.sqrt(d_h) * np.eye(n, d_h), (2, 1, 1))
    k = rng.uniform(-1.0, 0.0, size=(2, end, d_h))
    k[:, 0::3, :n] = -gap
    v = rng.normal(size=(2, end, d_h))
    v[:, 0::3] *= 1e-3
    q, k, v = (a.astype(dtype) for a in (q, k, v))

    with np.errstate(under="raise"):
        out = _attention(q, k, v, start)

    scores = np.where(causal, q.astype(np.float64) @ k.astype(np.float64).swapaxes(-1, -2) / np.sqrt(d_h), -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ref = (e / e.sum(axis=-1, keepdims=True)) @ v.astype(np.float64)
    assert out.dtype == dtype
    np.testing.assert_allclose(out, ref, rtol=rtol, atol=rtol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, start", [(100, 0), (100, 40), (300, 0), (300, 40)])
def test_softmax_floor_changes_nothing_above_it(dtype, n, start, monkeypatch):
    # When every kept score is within the floor of its row maximum, the clamp to
    # [floor, 0] gives the bits of the clamp at 0 alone (a floor of -inf).
    end = start + n
    rng = np.random.default_rng(n + start)
    q, k, v = (rng.normal(size=(4, m, 16)).astype(dtype) for m in (n, end, end))
    causal = np.arange(end) <= np.arange(start, end)[:, None]
    scores = np.where(causal, q @ k.swapaxes(-1, -2) / 4.0, np.nan)
    shifted = scores - np.nanmax(scores, axis=-1, keepdims=True)
    assert np.nanmin(shifted) > transformer._softmax_floor(np.dtype(dtype))
    out = _attention(q, k, v, start)
    monkeypatch.setattr(transformer, "_softmax_floor", lambda dtype: -np.inf)
    assert np.array_equal(_attention(q, k, v, start), out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("start", [0, 40])
@pytest.mark.parametrize("i", [0, 100, 127, 128, 200, 298])
def test_attention_rows_ignore_later_keys_and_values(dtype, start, i):
    # Rewriting every key and value after position start + i leaves rows 0..i
    # bit-identical, inside a 128-row block and across block boundaries.
    n, end = 300, start + 300
    rng = np.random.default_rng(i)
    q, k, v = (rng.normal(size=(4, m, 16)).astype(dtype) for m in (n, end, end))
    out = _attention(q, k, v, start)
    k2, v2 = k.copy(), v.copy()
    k2[:, start + i + 1 :] = 10.0 * rng.normal(size=k2[:, start + i + 1 :].shape)
    v2[:, start + i + 1 :] = 10.0 * rng.normal(size=v2[:, start + i + 1 :].shape)
    out2 = _attention(q, k2, v2, start)
    assert out.dtype == dtype
    assert np.array_equal(out2[:, : i + 1], out[:, : i + 1])
    assert not np.array_equal(out2[:, i + 1 :], out[:, i + 1 :])


@pytest.mark.parametrize("kind", ["dense", "factored", "head_pruned"])
def test_prefill_of_300_positions_matches_the_uncached_window(toy_cfg, oracle_layers, kind):
    # A cache fed 300 positions in one call (three 128-row blocks), then two
    # more calls of 10, matches the 320-position window run without a cache.
    layer = oracle_layers[kind]
    x = np.random.default_rng(300).normal(size=(2, 320, toy_cfg.dim))
    shape = (2, 384, layer.n_heads(toy_cfg), toy_cfg.head_dim)
    cache = KVCache(np.empty(shape), np.empty(shape))
    steps = [_layer_forward(toy_cfg, layer, x[:, a:b], cache=cache) for a, b in ((0, 300), (300, 310), (310, 320))]
    assert cache.length == 320
    assert np.allclose(np.concatenate(steps, axis=1), _layer_forward(toy_cfg, layer, x), rtol=1e-12, atol=1e-12)


def test_layer_forward_alternating_lengths_match_fresh_calls(toy_cfg, oracle_layers):
    layer = oracle_layers["dense"]
    xs = {n: np.random.default_rng(n).normal(size=(n, toy_cfg.dim)) for n in (33, 128, 300)}
    fresh = {}
    for n, x in xs.items():
        _causal_mask.cache_clear()
        fresh[n] = grabbing_layer_forward(toy_cfg, layer, x)
    for n in (33, 300, 128, 33, 300):
        out, sites = grabbing_layer_forward(toy_cfg, layer, xs[n])
        assert np.array_equal(out, fresh[n][0])
        for site in ALL_SITES:
            assert np.array_equal(sites[site], fresh[n][1][site])


def test_rms_norm_unit_rms():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 64)) * 3.0
    y = rms_norm(x, np.ones(64), 1e-5)
    rms = np.sqrt(np.mean(y * y, axis=-1))
    assert np.allclose(rms, 1.0, atol=1e-6)


def test_rope_preserves_pair_norms():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, 4, 16))
    y = apply_rope(x, 10000.0)
    pairs_x = x.reshape(9, 4, 8, 2)
    pairs_y = y.reshape(9, 4, 8, 2)
    assert np.allclose(
        np.linalg.norm(pairs_x, axis=-1), np.linalg.norm(pairs_y, axis=-1), atol=1e-6
    )
    # position 0 is the identity rotation
    assert np.allclose(x[0], y[0], atol=1e-12)


def test_silu_extremes_raise_no_warning():
    x = np.array([1e3, 745.0, 40.0, 0.0, -40.0, -745.0, -1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = silu(x)
    assert np.array_equal(y[:4], x[:4])
    assert np.all(y[-2:] == 0.0) and np.all(np.signbit(y[-2:]))
    assert y[4] < 0.0 and np.isclose(y[4], -40.0 * expit(-40.0), rtol=1e-15, atol=0.0)


def test_silu_within_4_ulp_of_expit_form():
    x = np.linspace(-700.0, 700.0, 10_000)
    ref = x * expit(x)
    assert np.all(np.abs(silu(x) - ref) <= 4 * np.spacing(np.abs(ref)))


@pytest.mark.parametrize("start", [0, 3])
def test_apply_rope_matches_pairwise_formula(start):
    n_pos, n_heads, d_h, theta = 9, 4, 16, 10000.0
    x = np.random.default_rng(2).normal(size=(2, n_heads, n_pos, d_h)).swapaxes(1, 2)
    assert not x.flags.c_contiguous
    before = x.copy()
    y = apply_rope(x, theta, start)
    inv_freq = theta ** (-2.0 * np.arange(d_h // 2) / d_h)
    angles = np.outer(np.arange(start, start + n_pos, dtype=np.float64), inv_freq)[:, None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = x[..., 0::2], x[..., 1::2]
    assert y.shape == x.shape and y.dtype == np.float64
    assert np.max(np.abs(y[..., 0::2] - (even * cos - odd * sin))) <= 1e-15
    assert np.max(np.abs(y[..., 1::2] - (even * sin + odd * cos))) <= 1e-15
    assert np.array_equal(x, before)
    with pytest.raises(ValueError):
        _rope_tables(n_pos, d_h, theta, x.dtype)[0, 0] = 0.0


@pytest.mark.parametrize("head_dim", [16, 64, 128])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rope_tables_are_prefixes_of_longer_ones(dtype, head_dim):
    # apply_rope reads tables rounded up to whole attention blocks; its
    # rotations keep their bits because a row never depends on the length.
    build = _rope_tables.__wrapped__  # uncached, so the test leaves the cache as it was
    longest = build(4096, head_dim, 10000.0, np.dtype(dtype))
    for n_pos in [*range(1, 300), 511, 512, 513, 1024, 2047, 2048]:
        assert build(n_pos, head_dim, 10000.0, np.dtype(dtype)).tobytes() == longest[:n_pos].tobytes(), n_pos


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decoding_a_window_builds_one_rope_table(random_model, dtype):
    model = _as_dtype(random_model, dtype)
    _rope_tables.cache_clear()
    synth.sample_from_model(model, 3 * 128, seed=5, window=128)
    assert _rope_tables.cache_info().misses == 1  # one (head_dim, dtype): one table of 128 rows
    assert _rope_tables.cache_info().currsize == 1


def test_rope_tables_are_cached_read_only_per_dtype():
    n_pos, d_h, theta = 9, 16, 10000.0
    f32, f64 = (_rope_tables(n_pos, d_h, theta, np.dtype(t)) for t in (np.float32, np.float64))
    assert f32.dtype == np.complex64 and f64.dtype == np.complex128
    assert np.array_equal(f32, f64.astype(np.complex64))
    assert _rope_tables(n_pos, d_h, theta, np.dtype(np.float32)) is f32
    for table in (f32, f64):
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    x = np.random.default_rng(3).normal(size=(n_pos, 4, d_h))
    y32 = apply_rope(x.astype(np.float32), theta)
    assert y32.dtype == np.float32
    assert np.allclose(y32, apply_rope(x, theta), rtol=1e-6, atol=1e-6)


def test_full_rank_factored_matches_dense(random_model):
    rng = np.random.default_rng(2)
    toks = random_token_stream(24, 3)
    dense_logits = forward(random_model, toks)

    def full_rank(proj):
        w = proj.w
        x_din = rng.uniform(0.5, 2.0, size=w.shape[1])
        pair = awsvd_factor(w, x_din, min(w.shape))
        return Factored(pair.l, pair.r)

    layers = []
    for layer in random_model.layers:
        layers.append(
            TransformerLayer(
                attn_norm=layer.attn_norm,
                q=full_rank(layer.q),
                k=full_rank(layer.k),
                v=full_rank(layer.v),
                o=full_rank(layer.o),
                ffn_norm=layer.ffn_norm,
                gate=full_rank(layer.gate),
                up=full_rank(layer.up),
                down=full_rank(layer.down),
            )
        )
    factored_model = TransformerModel(
        config=random_model.config,
        embed=random_model.embed,
        layers=tuple(layers),
        final_norm=random_model.final_norm,
        lm_head=random_model.lm_head,
    )
    factored_logits = forward(factored_model, toks)
    assert np.max(np.abs(dense_logits - factored_logits)) < 1e-5


def test_ffn_permutation_equivariance(random_model):
    rng = np.random.default_rng(3)
    toks = random_token_stream(20, 4)
    base = forward(random_model, toks)
    perm = rng.permutation(random_model.config.ffn_dim)
    layers = []
    for layer in random_model.layers:
        layers.append(
            TransformerLayer(
                attn_norm=layer.attn_norm,
                q=layer.q, k=layer.k, v=layer.v, o=layer.o,
                ffn_norm=layer.ffn_norm,
                gate=Dense(layer.gate.w[perm, :]),
                up=Dense(layer.up.w[perm, :]),
                down=Dense(layer.down.w[:, perm]),
            )
        )
    permuted = TransformerModel(
        config=random_model.config, embed=random_model.embed, layers=tuple(layers),
        final_norm=random_model.final_norm, lm_head=random_model.lm_head,
    )
    out = forward(permuted, toks)
    assert np.allclose(base, out, atol=1e-10)


def test_capture_sites_shapes(random_model):
    toks = random_token_stream(10, 5)
    caps = captured_sites(random_model, toks)
    cfg = random_model.config
    for layer in range(cfg.n_layers):
        assert caps[(layer, "attn_input")].shape == (10, cfg.dim)
        assert caps[(layer, "attn_o_input")].shape == (10, cfg.dim)
        assert caps[(layer, "ffn_input")].shape == (10, cfg.dim)
        assert caps[(layer, "ffn_down_input")].shape == (10, cfg.ffn_dim)
    assert np.all(np.isfinite(caps[(0, "ffn_down_input")]))


# ---------------------------------------------------------------------------
# Calibration statistics


def test_collect_stats_zero_embedding(toy_cfg):
    model = _zero_model(toy_cfg)
    stats = collect_stats(model, [np.array([1, 2, 3])])
    assert np.allclose(stats[0][SITE_ATTN_INPUT], 0.0)


def test_collect_stats_duplicate_samples_sqrt2(random_model):
    calib = [random_token_stream(16, 6), random_token_stream(16, 7)]
    s1 = collect_stats(random_model, calib)[1]
    s2 = collect_stats(random_model, calib + calib)[1]
    for site in ALL_SITES:
        assert np.allclose(s2[site], np.sqrt(2.0) * s1[site], rtol=1e-12)


def test_collect_stats_single_position_abs(random_model):
    stream = np.array([42])
    caps = captured_sites(random_model, stream, n_layers=1)
    stats = collect_stats(random_model, [stream])[0]
    for site in ALL_SITES:
        vec = caps[(0, site)][0]
        assert np.allclose(stats[site], np.abs(vec), rtol=1e-12)


def test_collect_stats_order_invariance(random_model):
    calib = [random_token_stream(12, s) for s in range(4)]
    s1 = collect_stats(random_model, calib)[0]
    s2 = collect_stats(random_model, calib[::-1])[0]
    for site in ALL_SITES:
        assert np.allclose(s1[site], s2[site], atol=1e-12)


def test_collect_stats_all_layers_matches_per_layer(random_model):
    # collect_stats's one pass per window gives, bit for bit, what layer_stats
    # takes over states carried through the dense model with advance.
    calib = [random_token_stream(10, s) for s in (21, 22)]
    merged = collect_stats(random_model, calib)
    assert len(merged) == random_model.config.n_layers
    states = [embed(random_model, stream) for stream in calib]
    for layer in range(random_model.config.n_layers):
        single = layer_stats(random_model, states, layer)
        assert list(merged[layer]) == list(single) == list(ALL_SITES)
        for site in ALL_SITES:
            assert np.array_equal(merged[layer][site], single[site]), (layer, site)
        states = [advance(random_model, state, layer) for state in states]


def test_layer_stats_never_applies_the_layers_down(random_model):
    # The stats pass stops at its last site, ffn_down_input: only the layer's
    # output needs the down projection, and compress advances the states
    # through the compressed layer instead.  collect_stats does need it.
    calib = [random_token_stream(10, s) for s in (41, 42)]
    layer = random_model.layers[0]
    seen = []
    spy = replace(layer, down=lambda x: seen.append(x.shape) or layer.down(x))
    model = random_model.replace_layer(0, spy)
    single = layer_stats(model, [embed(model, stream) for stream in calib], 0)
    assert seen == []
    merged = collect_stats(model, calib)[0]
    assert seen == [(10, model.config.ffn_dim)] * len(calib)
    for site in ALL_SITES:
        assert np.array_equal(merged[site], single[site]), site


def test_collect_stats_runs_one_layer_pass_per_window(random_model, monkeypatch):
    calib = [random_token_stream(10, s) for s in (31, 32, 33)]
    passes = []
    index = {id(layer): i for i, layer in enumerate(random_model.layers)}
    layer_forward = transformer._layer_forward

    def counting(cfg, layer, x, *args, **kwargs):
        passes.append(index[id(layer)])
        return layer_forward(cfg, layer, x, *args, **kwargs)

    monkeypatch.setattr(transformer, "_layer_forward", counting)
    collect_stats(random_model, calib)
    n_layers = random_model.config.n_layers
    assert passes == list(range(n_layers)) * len(calib)


def test_collect_stats_empty_calibration(random_model):
    with pytest.raises(CalibrationError):
        collect_stats(random_model, [])


# ---------------------------------------------------------------------------
# Perplexity


def test_perplexity_uniform_model_equals_vocab(toy_cfg):
    model = _zero_model(toy_cfg)
    stream = random_token_stream(1025, 9)
    assert perplexity(model, stream, 128) == pytest.approx(256.0, rel=1e-12)


def test_perplexity_confident_model_near_one(toy_cfg):
    model = _zero_model(toy_cfg)
    embed = np.zeros((toy_cfg.vocab_size, toy_cfg.dim))
    embed[7] = 1.0
    head = np.zeros((toy_cfg.vocab_size, toy_cfg.dim))
    head[7] = 10.0  # logit ~ 10 * sqrt(d) for token 7, 0 for the rest
    model = TransformerModel(
        config=toy_cfg, embed=embed, layers=model.layers,
        final_norm=model.final_norm, lm_head=head,
    )
    stream = np.full(257, 7, dtype=np.int64)
    assert perplexity(model, stream, 64) < 1.0 + 1e-6


def test_perplexity_random_model_concentrates_near_vocab(random_model):
    stream = random_token_stream(4097, 10)
    ppl = perplexity(random_model, stream, 128)
    assert 200.0 < ppl < 330.0
    # independent oracle: accumulate NLL directly from forward logits
    total, count = 0.0, 0
    for w in range((stream.size - 1) // 128):
        ctx = stream[w * 128 : (w + 1) * 128]
        tgt = stream[w * 128 + 1 : (w + 1) * 128 + 1]
        logits = forward(random_model, ctx)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        total -= logp[np.arange(128), tgt].sum()
        count += 128
    assert ppl == pytest.approx(float(np.exp(total / count)), rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_perplexity_equals_full_log_softmax_bit_for_bit(random_model, dtype, monkeypatch):
    # perplexity forms only the targets' log-probabilities; the reference builds
    # the whole (T, vocab) float64 log-softmax first and indexes it, as the NLL
    # was first written.  Windows of 200 tokens also run the blocked attention.
    model = _as_dtype(random_model, dtype)
    arrays = [a.copy() for a in _model_arrays(model)]
    stream, seq_len = random_token_stream(601, 12), 200
    total = 0.0
    for w in range(3):
        x = forward(model, stream[w * seq_len : (w + 1) * seq_len]).astype(np.float64)
        m = x.max(axis=-1, keepdims=True)
        logp = x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
        total -= float(logp[np.arange(seq_len), stream[w * seq_len + 1 : (w + 1) * seq_len + 1]].sum())
    logits_seen = []

    forward_logits = transformer._forward_logits

    def recording_forward(*args, **kwargs):
        logits = forward_logits(*args, **kwargs)
        logits_seen.append((logits, logits.copy()))
        return logits

    # perplexity runs the shared embed -> layers -> logits loop, not `forward` itself.
    monkeypatch.setattr(transformer, "_forward_logits", recording_forward)
    assert perplexity(model, stream, seq_len) == float(np.exp(total / (3 * seq_len)))
    assert len(logits_seen) == 3 and all(np.array_equal(got, kept) for got, kept in logits_seen)
    assert all(np.array_equal(a, b) for a, b in zip(_model_arrays(model), arrays))


@pytest.mark.parametrize("workers", [1, 2, 9])
@pytest.mark.parametrize("n_windows, seq_len", [(1, 64), (4, 128), (3, 200)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_perplexity_is_the_same_bits_for_any_worker_count(random_model, dtype, n_windows, seq_len, workers, monkeypatch):
    # Windows run concurrently but their NLLs are summed in window order; 200 tokens run blocked attention.
    model = _as_dtype(random_model, dtype)
    stream = random_token_stream(n_windows * seq_len + 1, 13)
    monkeypatch.setattr(util, "_workers", lambda: 0)
    sequential = perplexity(model, stream, seq_len)
    monkeypatch.setattr(util, "_workers", lambda: workers)
    assert perplexity(model, stream, seq_len) == sequential


@pytest.mark.parametrize("workers", [0, 1, 3])
def test_perplexity_names_the_first_non_finite_window(random_model, workers, monkeypatch):
    seq_len = 64
    stream = random_token_stream(4 * seq_len + 1, 14)
    stream[::seq_len] = np.arange(5)  # each window's first token is its index
    forward_logits = transformer._forward_logits

    def overflowing(model, ctx):
        logits = forward_logits(model, ctx)
        if ctx[0] in (1, 3):
            time.sleep(0.05 if ctx[0] == 1 else 0.0)  # window 3 fails first
            logits[5, 0] = np.nan
        return logits

    monkeypatch.setattr(transformer, "_forward_logits", overflowing)
    monkeypatch.setattr(util, "_workers", lambda: workers)
    with pytest.raises(DataError, match="^window 1: non-finite"):
        perplexity(random_model, stream, seq_len)


def test_perplexity_discards_partial_window(toy_cfg):
    model = _zero_model(toy_cfg)
    stream = random_token_stream(300, 11)
    # windows of 128 -> 2 full prediction windows, remainder dropped
    assert perplexity(model, stream, 128) == pytest.approx(256.0, rel=1e-12)


def test_perplexity_stream_too_short(random_model):
    with pytest.raises(DataError):
        perplexity(random_model, np.arange(128), 128)


# ---------------------------------------------------------------------------
# Params / MACs


def test_linear_macs_examples():
    dense = Dense(np.zeros((64, 64)))
    assert 16 * dense.n_params == 65_536
    fact = Factored(np.zeros((64, 8)), np.zeros((8, 64)))
    assert 16 * fact.n_params == 16_384


def test_count_params_macs_hand_count():
    cfg = ModelConfig(dim=8, n_heads=2, head_dim=4, n_layers=1, ffn_dim=12, vocab_size=16)
    model = make_random_model(cfg, seed=0, scale=0.1)
    params, macs = count_params_macs(model, 4)
    # embed 16*8 + head 16*8 + final norm 8 + layer(norms 16 + qkvo 4*64 + ffn 3*96)
    assert params == 128 + 128 + 8 + 16 + 256 + 288
    # qkvo 4*(4*64) + attn 2*4^2*4*2 + ffn 3*(4*96) + head 4*8*16
    assert macs == 1024 + 256 + 1152 + 512


@pytest.mark.parametrize("seq_len", [0, -5])
def test_count_params_macs_rejects_empty_window(random_model, seq_len):
    with pytest.raises(ValueError, match="seq_len must be >= 1"):
        count_params_macs(random_model, seq_len)


def test_count_params_matches_tensor_walk(random_model):
    params, _ = count_params_macs(random_model, 1)
    tensors = model_to_tensors(random_model)
    walked = sum(a.size for a in tensors.values() if a.dtype.kind == "f")
    assert params == walked


# ---------------------------------------------------------------------------
# Tokenizer


def test_tokenize_bytes_examples():
    assert tokenize_bytes(b"AB").tolist() == [65, 66]
    assert tokenize_bytes(b"").size == 0


def test_tokenize_roundtrip():
    rng = np.random.default_rng(12)
    data = rng.integers(0, 256, size=503, dtype=np.uint8).tobytes()
    assert detokenize_bytes(tokenize_bytes(data)) == data


def test_read_token_file_formats(tmp_path):
    raw = bytes(range(10))
    p = tmp_path / "t.bin"
    p.write_bytes(raw)
    assert read_token_file(p, "bytes").tolist() == list(range(10))
    ids = np.array([0, 70000, 3], dtype="<u4")
    p32 = tmp_path / "t32.bin"
    p32.write_bytes(ids.tobytes())
    assert read_token_file(p32, "u32").tolist() == [0, 70000, 3]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 5)
    with pytest.raises(DataError):
        read_token_file(bad, "u32")


# ---------------------------------------------------------------------------
# Serialization


def test_model_tensor_roundtrip_preserves_logits(random_model):
    # model_to_tensors writes float32 and model_from_tensors keeps it: the
    # rebuilt model is the float32 rounding of every array, exactly, and
    # computes exactly what that rounded model computes.
    toks = random_token_stream(16, 13)
    want = _as_dtype(random_model, np.float32)
    rebuilt = model_from_tensors(random_model.config, model_to_tensors(random_model))
    got_arrays, want_arrays = _model_arrays(rebuilt), _model_arrays(want)
    assert len(got_arrays) == len(want_arrays)
    for a, b in zip(got_arrays, want_arrays):
        assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b)
    again = forward(rebuilt, toks)
    assert np.array_equal(again, forward(want, toks))
    assert np.allclose(again, forward(random_model, toks), rtol=1e-5, atol=1e-5)


def test_sampler_matches_forward_oracle(planted_model):
    # the batched incremental sampler must consume randomness and compute
    # conditionals exactly like a per-step full forward
    def oracle(model, n_tokens, seed, window):
        vocab = model.config.vocab_size
        rng = np.random.default_rng(seed)
        n_win = -(-n_tokens // window)
        toks = np.empty((n_win, window), dtype=np.int64)
        toks[:, 0] = rng.integers(0, vocab, size=n_win)
        for t in range(window - 1):
            probs = np.empty((n_win, vocab))
            for b in range(n_win):
                logits = forward(model, toks[b, : t + 1])
                z = logits[-1] - logits[-1].max()
                p = np.exp(z)
                probs[b] = p / p.sum()
            u = rng.random(n_win)
            toks[:, t + 1] = (np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1)
        return toks.reshape(-1)[:n_tokens]

    fast = synth.sample_from_model(planted_model, 96, seed=17, window=16)
    slow = oracle(planted_model, 96, seed=17, window=16)
    assert np.array_equal(fast, slow)


def test_sampler_rejects_non_finite_logits(random_model):
    layer = random_model.layers[0]
    huge = layer.with_projections({"q_proj": Dense(layer.q.w * 1e200), "k_proj": Dense(layer.k.w * 1e200)})
    with pytest.raises(DataError, match="non-finite logits"):
        synth.sample_from_model(random_model.replace_layer(0, huge), 8, seed=0, window=4)


def test_sampled_stream_matches_golden_hash():
    # the deep-calib benchmark workload's eval stream (8 layers, 128-token
    # windows), pinned from the sampler that kept its own copy of the layer
    # math; a forward rewrite that moves it moves every workload's ppl
    model = synth.make_planted_model(synth.toy_config(n_layers=8), seed=0)
    stream = synth.sample_from_model(model, 2049, seed=1, window=128)
    digest = hashlib.sha256(detokenize_bytes(stream)).hexdigest()
    assert digest == "f06442dea7de4518fc7fcb108468b69197a6dd7f49d908da7ab6b6c3718ef422", kernel_note()
