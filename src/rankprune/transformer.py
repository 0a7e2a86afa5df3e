"""Minimal LLaMA-style forward pass on numpy.

Every layer pass runs in float64 through one step, `_layer_forward`, on
hidden states of shape (..., tokens, dim): just enough machinery to
capture calibration activations, score perplexity, decode fixture tokens
a position at a time with a per-layer `KVCache` (`decode_step`), and
count parameters/MACs.  Calibration is built from three steps on one
window's (tokens, dim) state - embed a window (`embed`), reduce one
layer's four input sites (`layer_stats`) and carry the state through one
layer (`advance`) - so a caller can interleave them with compressing
that layer.  Factored matrices participate in the forward as two
sequential products (R then L), pruned FFNs at their reduced width,
head-pruned attention with its reduced head count.

Causal attention is per-head BLAS matmul on (heads, tokens, head_dim)
views: the scores get a cached read-only additive causal bias, the
softmax exponentiates them in place, and the rows are normalised after
the value product, on (tokens, head_dim) rather than (tokens, tokens).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import store
from .config import ModelConfig
from .errors import CalibrationError, DataError, ShapeMismatchError
from .store import ALL_SITES, SITE_ATTN_INPUT, SITE_ATTN_O_INPUT, SITE_FFN_DOWN_INPUT, SITE_FFN_INPUT

BYTE_VOCAB = 256


# ---------------------------------------------------------------------------
# Linear maps


@dataclass(frozen=True)
class Dense:
    """A y = Wx projection, applied to row-stacked positions."""

    w: np.ndarray  # (d_out, d_in)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w.T

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape

    @property
    def n_params(self) -> int:
        return int(self.w.size)


@dataclass(frozen=True)
class Factored:
    """A low-rank replacement y = L (R x); R is applied first."""

    l: np.ndarray  # (d_out, r)
    r: np.ndarray  # (r, d_in)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (x @ self.r.T) @ self.l.T

    @property
    def rank(self) -> int:
        return self.l.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.l.shape[0], self.r.shape[1])

    @property
    def n_params(self) -> int:
        return int(self.l.size + self.r.size)


LinearMap = Dense | Factored


# ---------------------------------------------------------------------------
# Model


@dataclass(frozen=True)
class TransformerLayer:
    attn_norm: np.ndarray
    q: LinearMap
    k: LinearMap
    v: LinearMap
    o: LinearMap
    ffn_norm: np.ndarray
    gate: LinearMap
    up: LinearMap
    down: LinearMap
    kept_heads: tuple[int, ...] | None = None       # set when heads were pruned
    retained_channels: np.ndarray | None = None     # set when FFN channels were pruned

    def n_heads(self, config: ModelConfig) -> int:
        if self.kept_heads is not None:
            return len(self.kept_heads)
        return self.q.shape[0] // config.head_dim

    def projections(self) -> dict[str, LinearMap]:
        """The seven projections by name, in table order."""
        return {p.name: getattr(self, p.attr) for p in store.PROJECTIONS}

    def with_projections(self, maps: dict[str, LinearMap], **fields) -> "TransformerLayer":
        """A copy with the named projections (and any other fields) replaced."""
        return replace(self, **{store.PROJECTION[name].attr: m for name, m in maps.items()}, **fields)


@dataclass(frozen=True)
class TransformerModel:
    config: ModelConfig
    embed: np.ndarray        # (vocab, dim)
    layers: tuple[TransformerLayer, ...]
    final_norm: np.ndarray   # (dim,)
    lm_head: np.ndarray      # (vocab, dim)

    def replace_layer(self, index: int, layer: TransformerLayer) -> "TransformerModel":
        layers = list(self.layers)
        layers[index] = layer
        return replace(self, layers=tuple(layers))


@dataclass(frozen=True)
class ActivationStats:
    """Per-input-feature l2 norms collected over a calibration batch.

    by_name maps each weight-matrix name of the layer the stats were
    collected for to its x_din vector; matrices fed from the same site
    share the same vector.
    """

    by_name: dict[str, np.ndarray]
    by_site: dict[str, np.ndarray]
    sample_count: int
    position_count: int


# ---------------------------------------------------------------------------
# Building blocks


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
    scale = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x * scale * weight


def silu(x: np.ndarray) -> np.ndarray:
    return x * expit(x)


@lru_cache(maxsize=16)
def _rope_tables(n_pos: int, head_dim: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    half = head_dim // 2
    inv_freq = theta ** (-2.0 * np.arange(half) / head_dim)
    angles = np.outer(np.arange(n_pos, dtype=np.float64), inv_freq)
    return np.cos(angles), np.sin(angles)


def apply_rope(x: np.ndarray, theta: float, start: int = 0, capacity: int | None = None) -> np.ndarray:
    """Rotate consecutive component pairs of each head by position-dependent angles.

    x has shape (..., n_tokens, n_heads, head_dim) and holds positions
    start, start + 1, ...; pair (2i, 2i+1) at position m is rotated by
    m * theta^(-2i/head_dim).  The tables are built for `capacity`
    positions (default: just enough) and sliced, so a caller stepping
    through a window asks for one table, not one per step.
    """
    n_pos, _, head_dim = x.shape[-3:]
    cos, sin = _rope_tables(capacity or start + n_pos, head_dim, theta)
    cos = cos[start : start + n_pos, None, :]
    sin = sin[start : start + n_pos, None, :]
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


@lru_cache(maxsize=4)
def _causal_bias(n_pos: int) -> np.ndarray:
    """Read-only additive causal mask, (n_pos, n_pos): 0 on and below the
    diagonal, -inf above.  A few lengths are cached; each costs n_pos^2 * 8 bytes."""
    bias = np.triu(np.full((n_pos, n_pos), -np.inf), k=1)
    bias.flags.writeable = False
    return bias


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# Forward


def embed(model: TransformerModel, tokens: np.ndarray) -> np.ndarray:
    """Validate one token stream and return its initial hidden state, (tokens, dim)."""
    tokens = np.asarray(tokens)
    vocab = model.config.vocab_size
    if tokens.ndim != 1 or tokens.size == 0:
        raise DataError("token stream must be a non-empty 1-D sequence")
    if tokens.min() < 0 or tokens.max() >= vocab:
        bad = int(tokens[(tokens < 0) | (tokens >= vocab)][0])
        raise DataError(f"token id {bad} outside vocabulary [0, {vocab})")
    return model.embed[tokens]


def forward(
    model: TransformerModel,
    tokens: np.ndarray,
    capture: set[str] | frozenset[str] | None = None,
    capture_layers: set[int] | None = None,
    stop_after_layer: int | None = None,
) -> tuple[np.ndarray | None, dict[tuple[int, str], np.ndarray]]:
    """Run one token stream; returns (logits, captured activations).

    capture selects sites, capture_layers selects layers (all layers when
    None).  When stop_after_layer is given the run ends after that layer
    and logits are None.  Causal masking is always enforced.
    """
    capture = frozenset(capture) if capture else frozenset()
    captured: dict[tuple[int, str], np.ndarray] = {}
    x = embed(model, tokens)

    for i, layer in enumerate(model.layers):
        def grab(site: str, values: np.ndarray) -> None:
            if site in capture and (capture_layers is None or i in capture_layers):
                captured[(i, site)] = values.copy()

        x = _layer_forward(model.config, layer, x, grab)
        if stop_after_layer is not None and i >= stop_after_layer:
            return None, captured
    return _logits(model, x), captured


def _logits(model: TransformerModel, x: np.ndarray) -> np.ndarray:
    return rms_norm(x, model.final_norm, model.config.norm_eps) @ model.lm_head.T


@dataclass
class KVCache:
    """Rotated keys and values of one layer, (..., capacity, n_heads, head_dim)
    each; `_layer_forward` appends after the first `length` positions."""

    k: np.ndarray
    v: np.ndarray
    length: int = 0


def kv_caches(model: TransformerModel, n_windows: int, capacity: int) -> list[KVCache]:
    """One empty cache per layer for a batch of windows of up to `capacity` positions."""
    cfg = model.config
    shapes = [(n_windows, capacity, layer.n_heads(cfg), cfg.head_dim) for layer in model.layers]
    return [KVCache(np.empty(shape), np.empty(shape)) for shape in shapes]


def decode_step(model: TransformerModel, tokens: np.ndarray, caches: list[KVCache]) -> np.ndarray:
    """Next-token logits, (windows, vocab), after feeding each window's token
    at the caches' current length; every layer's cache grows by one position."""
    x = model.embed[tokens[:, None]]
    for layer, cache in zip(model.layers, caches):
        x = _layer_forward(model.config, layer, x, cache=cache)
    return _logits(model, x[:, 0])


def _layer_forward(
    cfg: ModelConfig, layer: TransformerLayer, x: np.ndarray, grab=lambda site, values: None, cache: KVCache | None = None
) -> np.ndarray:
    """One layer on x of shape (..., n_pos, dim); leading axes are independent windows.

    The positions are 0..n_pos-1, or follow a cache's filled positions,
    which the queries attend to as well.  grab(site, values) sees each
    input site as (rows, features), all windows' positions stacked.
    """
    *lead, n_pos, dim = x.shape
    d_h = cfg.head_dim
    n_heads = layer.n_heads(cfg)
    start, capacity = (0, n_pos) if cache is None else (cache.length, cache.k.shape[-3])
    end = start + n_pos

    # Projections run on the rows flattened to 2-D: a broadcast matmul of
    # (B, n, d) against a 2-D weight would run B separate products.
    x = x.reshape(-1, dim)
    h = rms_norm(x, layer.attn_norm, cfg.norm_eps)
    grab(SITE_ATTN_INPUT, h)

    q = layer.q(h).reshape(*lead, n_pos, n_heads, d_h)
    k = layer.k(h).reshape(*lead, n_pos, n_heads, d_h)
    v = layer.v(h).reshape(*lead, n_pos, n_heads, d_h)
    q = apply_rope(q, cfg.rope_theta, start, capacity)
    k = apply_rope(k, cfg.rope_theta, start, capacity)
    if cache is not None:
        cache.k[..., start:end, :, :] = k
        cache.v[..., start:end, :, :] = v
        cache.length = end
        k, v = cache.k[..., :end, :, :], cache.v[..., :end, :, :]

    # Per-head BLAS products on (..., heads, tokens, ...) views, taken with the
    # ndarray method (np.swapaxes/np.moveaxis cost Python calls per layer).  The
    # softmax runs in place on the (heads, n, end) scores and divides by the row
    # sums only after the value product, on (n, d_h) per head, not (n, end).
    # Each row's maximum becomes exp(0) = 1, so every row sum is >= 1.
    q, k, v = q.swapaxes(-3, -2), k.swapaxes(-3, -2), v.swapaxes(-3, -2)
    scores = q @ k.swapaxes(-1, -2)
    scores /= np.sqrt(d_h)
    scores += _causal_bias(capacity)[start:end, :end]
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    denom = scores.sum(axis=-1, keepdims=True)
    context = (scores @ v) / denom
    context = context.swapaxes(-3, -2).reshape(-1, n_heads * d_h)
    grab(SITE_ATTN_O_INPUT, context)
    x = x + layer.o(context)

    h2 = rms_norm(x, layer.ffn_norm, cfg.norm_eps)
    grab(SITE_FFN_INPUT, h2)
    inter = silu(layer.gate(h2)) * layer.up(h2)
    grab(SITE_FFN_DOWN_INPUT, inter)
    return (x + layer.down(inter)).reshape(*lead, n_pos, dim)


# ---------------------------------------------------------------------------
# Calibration statistics


def _site_sq_sums(model: TransformerModel, state: np.ndarray, layer: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Run one layer on one hidden state; return the per-feature sums of
    squares of its four input sites and the layer's output."""
    sq_sums: dict[str, np.ndarray] = {}

    def grab(site: str, values: np.ndarray) -> None:
        # Reduce a C-ordered array, as a captured copy is, so the summation
        # order never depends on how the producing op laid out its result.
        vals = np.ascontiguousarray(values)
        sq_sums[site] = np.einsum("lj,lj->j", vals, vals)

    out = _layer_forward(model.config, model.layers[layer], state, grab)
    return sq_sums, out


def _accumulate(acc: dict[str, np.ndarray] | None, sq_sums: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    # Sums of squares are non-negative, so starting from the first window
    # equals starting from zeros (0.0 + x == x).
    if acc is None:
        return sq_sums
    return {site: acc[site] + sq_sums[site] for site in ALL_SITES}


def _stats(layer: int, sq_sums: dict[str, np.ndarray], sample_count: int, position_count: int) -> ActivationStats:
    by_site = {site: np.sqrt(sq_sums[site]) for site in ALL_SITES}
    by_name = {store.weight_name(layer, p.name): by_site[p.site] for p in store.PROJECTIONS}
    return ActivationStats(
        by_name=by_name, by_site=by_site, sample_count=sample_count, position_count=position_count
    )


def layer_stats(model: TransformerModel, states: list[np.ndarray], layer: int) -> ActivationStats:
    """x_din vectors for one layer's four input sites over carried hidden states.

    Each state is one calibration window as it enters `layer`; the layer
    runs once per state.  Accumulation is sequential in sample order in
    float64, which keeps the result bit-stable and order-invariant.
    """
    if not states:
        raise CalibrationError("calibration set is empty")
    acc = None
    for state in states:
        acc = _accumulate(acc, _site_sq_sums(model, state, layer)[0])
    return _stats(layer, acc, len(states), sum(len(state) for state in states))


def advance(model: TransformerModel, state: np.ndarray, layer: int) -> np.ndarray:
    """Carry one hidden state through `layer` as the model currently has it."""
    return _layer_forward(model.config, model.layers[layer], state)


def collect_stats(model: TransformerModel, calib: list[np.ndarray], layer: int) -> ActivationStats:
    """x_din vectors for one layer's four input sites.

    Every window is embedded and run through layers 0..layer-1 as they
    currently are, so the statistics see the prefix as the caller left it.
    """
    if not 0 <= layer < len(model.layers):
        raise ValueError(f"layer index {layer} out of range")
    states = [embed(model, stream) for stream in calib]
    for prefix in range(layer):
        states = [advance(model, state, prefix) for state in states]
    return layer_stats(model, states, layer)


def collect_stats_all_layers(model: TransformerModel, calib: list[np.ndarray]) -> dict[int, ActivationStats]:
    """Stats for every layer from a single pass per sample (no compression
    in between, so each layer's output is the next layer's state)."""
    if not calib:
        raise CalibrationError("calibration set is empty")
    n_layers = len(model.layers)
    acc: list[dict[str, np.ndarray] | None] = [None] * n_layers
    for stream in calib:
        state = embed(model, stream)
        for layer in range(n_layers):
            sq_sums, state = _site_sq_sums(model, state, layer)
            acc[layer] = _accumulate(acc[layer], sq_sums)
    n_positions = sum(len(stream) for stream in calib)
    return {layer: _stats(layer, acc[layer], len(calib), n_positions) for layer in range(n_layers)}


# ---------------------------------------------------------------------------
# Evaluation and accounting


def perplexity(model: TransformerModel, stream: np.ndarray, seq_len: int) -> float:
    """exp(mean next-token NLL) over non-overlapping windows of seq_len.

    Window w feeds tokens [w*S, w*S + S) and is scored against targets
    [w*S + 1, w*S + S], so every token after the first of each window is
    predicted exactly once; the final partial window is discarded.
    """
    stream = np.asarray(stream)
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    if stream.size < seq_len + 1:
        raise DataError(f"evaluation stream too short: {stream.size} tokens < seq_len + 1 = {seq_len + 1}")
    n_windows = (stream.size - 1) // seq_len
    total_nll = 0.0
    total_tokens = 0
    for w in range(n_windows):
        ctx = stream[w * seq_len : (w + 1) * seq_len]
        targets = stream[w * seq_len + 1 : (w + 1) * seq_len + 1]
        logits, _ = forward(model, ctx)
        logp = _log_softmax(logits)
        total_nll -= float(logp[np.arange(seq_len), targets].sum())
        total_tokens += seq_len
    return float(np.exp(total_nll / total_tokens))


def count_params_macs(model: TransformerModel, seq_len: int) -> tuple[int, int]:
    """Stored parameter count and multiply-accumulates for one sequence.

    MACs cover all matrix products: the seven projections per layer, the
    attention score and value products, and the LM head.  Normalization,
    rotary rotation and the elementwise gate are not matrix products and
    are excluded.  A projection costs one multiply-accumulate per stored
    parameter at each position, so its MACs are seq_len * n_params.
    seq_len below 1 is a ValueError.
    """
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    cfg = model.config
    params = int(model.embed.size + model.lm_head.size + model.final_norm.size)
    macs = seq_len * int(model.lm_head.size)
    for layer in model.layers:
        params += int(layer.attn_norm.size + layer.ffn_norm.size)
        for proj in layer.projections().values():
            params += proj.n_params
            macs += seq_len * proj.n_params
        macs += 2 * seq_len * seq_len * cfg.head_dim * layer.n_heads(cfg)
    return params, macs


# ---------------------------------------------------------------------------
# Tokenization


def tokenize_bytes(data: bytes) -> np.ndarray:
    """Map each byte to its own id (vocab 256); reversible."""
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)


def detokenize_bytes(stream: np.ndarray) -> bytes:
    stream = np.asarray(stream)
    if stream.size and (stream.min() < 0 or stream.max() > 255):
        raise DataError("stream contains ids outside the byte range")
    return stream.astype(np.uint8).tobytes()


def read_token_file(path: str | Path, fmt: str = "bytes") -> np.ndarray:
    """Load tokens: raw text for the byte tokenizer, or little-endian u32 ids."""
    raw = Path(path).read_bytes()
    if fmt == "bytes":
        return tokenize_bytes(raw)
    if fmt == "u32":
        if len(raw) % 4:
            raise DataError(f"{path}: u32 token file length {len(raw)} is not a multiple of 4")
        return np.frombuffer(raw, dtype="<u4").astype(np.int64)
    raise ValueError(f"unknown token format {fmt!r}")


# ---------------------------------------------------------------------------
# Materialization to/from tensor maps


def load_dense_model(path: str | Path, config: ModelConfig) -> TransformerModel:
    return model_from_tensors(config, store.load_model(path, config))


def model_to_tensors(model: TransformerModel, dtype: str = "float32") -> dict[str, np.ndarray]:
    """Serialize a model to a {name: array} map ready for the container.

    Factored matrices become name.L / name.R, pruned FFNs are stored at
    their reduced shapes next to an integer retained-channel tensor, and
    head-pruned attention records its kept head indices.
    """
    f = np.float32 if dtype == "float32" else np.float64
    out: dict[str, np.ndarray] = {
        store.EMBED_NAME: model.embed.astype(f),
        store.HEAD_NAME: model.lm_head.astype(f),
        store.FINAL_NORM_NAME: model.final_norm.astype(f),
    }

    def put(name: str, proj: LinearMap) -> None:
        if isinstance(proj, Dense):
            out[name] = proj.w.astype(f)
        else:
            lname, rname = store.factor_names(name)
            out[lname] = proj.l.astype(f)
            out[rname] = proj.r.astype(f)

    for i, layer in enumerate(model.layers):
        out[store.attn_norm_name(i)] = layer.attn_norm.astype(f)
        out[store.ffn_norm_name(i)] = layer.ffn_norm.astype(f)
        for proj_name, proj in layer.projections().items():
            put(store.weight_name(i, proj_name), proj)
        if layer.retained_channels is not None:
            out[store.retained_channels_name(i)] = np.asarray(layer.retained_channels, dtype=np.int32)
        if layer.kept_heads is not None:
            out[store.kept_heads_name(i)] = np.asarray(layer.kept_heads, dtype=np.int32)
    return out


def model_from_tensors(config: ModelConfig, tensors: dict[str, np.ndarray]) -> TransformerModel:
    """Rebuild a (possibly compressed) model from a tensor map.

    The scheme of each matrix is inferred from which names are present:
    name.weight means dense, name.L/name.R means factored.
    """

    def pick(name: str) -> LinearMap:
        if name in tensors:
            return Dense(np.asarray(tensors[name], dtype=np.float64))
        lname, rname = store.factor_names(name)
        if lname in tensors and rname in tensors:
            return Factored(
                l=np.asarray(tensors[lname], dtype=np.float64),
                r=np.asarray(tensors[rname], dtype=np.float64),
            )
        raise ShapeMismatchError(f"no dense or factored tensors found for {name!r}")

    layers = []
    for i in range(config.n_layers):
        kept_heads = None
        if store.kept_heads_name(i) in tensors:
            kept_heads = tuple(int(h) for h in tensors[store.kept_heads_name(i)])
        retained = None
        if store.retained_channels_name(i) in tensors:
            retained = np.asarray(tensors[store.retained_channels_name(i)], dtype=np.int64)
        layers.append(
            TransformerLayer(
                attn_norm=np.asarray(tensors[store.attn_norm_name(i)], dtype=np.float64),
                ffn_norm=np.asarray(tensors[store.ffn_norm_name(i)], dtype=np.float64),
                **{p.attr: pick(store.weight_name(i, p.name)) for p in store.PROJECTIONS},
                kept_heads=kept_heads,
                retained_channels=retained,
            )
        )
    return TransformerModel(
        config=config,
        embed=np.asarray(tensors[store.EMBED_NAME], dtype=np.float64),
        layers=tuple(layers),
        final_norm=np.asarray(tensors[store.FINAL_NORM_NAME], dtype=np.float64),
        lm_head=np.asarray(tensors[store.HEAD_NAME], dtype=np.float64),
    )
