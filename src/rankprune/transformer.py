"""Minimal LLaMA-style forward pass on numpy.

Every layer pass runs through one step, `_layer_forward`, on hidden
states of shape (..., tokens, dim): just enough machinery to
capture calibration activations, score perplexity, decode fixture tokens
a position at a time with a per-layer `KVCache` (`decode_step`), and
count parameters/MACs.  Calibration statistics are x_din maps, one
{site: vector} per layer: the l2 norm of each input feature of the
layer's four input sites over the calibration windows.  Each window is
embedded once (`embed`) and its (tokens, dim) state carried from layer
to layer by one function, `layer_pass`, which runs a layer over every
carried state in window order and reduces its sites, carries the states
through it, or both.  Compress runs a stats pass on each dense layer and
carries the states through the compressed one; `collect_stats` gives
every layer's map of the model as it is, one pass per layer doing both.
Factored matrices participate in the forward as two sequential products
(R then L), pruned FFNs and head-pruned attention at their stored widths:
a layer holds only weights, and which heads and channels were kept is the
manifest's record (`store`).  `perplexity` scores its windows
concurrently on every CPU of the process's affinity set and sums their
NLLs in window order, so its result has the same bits for any CPU count.

Precision follows the model: the layer step runs in the dtype of the
model's arrays and never upcasts.  A model loaded from disk is float32,
the precision checkpoints are stored in, so its hidden states, KV caches
and carried calibration states take 4 bytes per value; the in-memory
float64 models `synth` builds run in float64 through the same code.
Values that are reduced or decided on are widened to float64: the RMS
mean square, the x_din sums of squares and the log-probabilities and NLL
of `perplexity`.  The step lets a value that leaves its float range
propagate as inf or NaN without a warning; those reductions reject it
loudly (CalibrationError, DataError) instead of returning a wrong number.

Causal attention is per-head BLAS matmul on (heads, tokens, head_dim)
views.  Its softmax never passes -inf to `exp`, which numpy sends down a
slow path, nor lets a numerator fall to a subnormal, which x86 CPUs
compute in slow microcode: shifted scores are clamped to [ln(tiny/eps), 0]
for the dtype (-71.39 in float32, -672.35 in float64), then masked ones
are zeroed by the 0/1 mask.  More than ATTENTION_ROWS (128) query rows run
as blocks of 128 over the causal key prefix: rows [s, e) read keys and
values 0..start+e only, so a block's scores take
heads * 128 * (start+e) * itemsize bytes.  Every key left of a block is
kept, so the mask is one read-only 128 x 128 triangle (bool and 0/1,
cached per dtype) over the block's last columns.  A call of 128 rows or
fewer is one block; above 128 tokens results differ from one block over
all keys by float rounding only.  Rotary embedding rotates each component
pair as one complex number, complex64 for float32 states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import store, util
from .config import ModelConfig
from .errors import CalibrationError, DataError, ShapeMismatchError
from .store import ALL_SITES, SITE_ATTN_INPUT, SITE_ATTN_O_INPUT, SITE_FFN_DOWN_INPUT, SITE_FFN_INPUT


# ---------------------------------------------------------------------------
# Linear maps


@dataclass(frozen=True)
class Dense:
    """A y = Wx projection, applied to row-stacked positions."""

    w: np.ndarray  # (d_out, d_in)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w.T

    def astype(self, dtype) -> "Dense":
        return Dense(self.w.astype(dtype, copy=False))

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

    def astype(self, dtype) -> "Factored":
        return Factored(self.l.astype(dtype, copy=False), self.r.astype(dtype, copy=False))

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

    def n_heads(self, config: ModelConfig) -> int:
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


# ---------------------------------------------------------------------------
# Building blocks


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
    # The mean square is reduced in float64: squares of float32 states overflow above ~1.8e19.
    mean_sq = np.mean(np.square(x, dtype=np.float64), axis=-1, keepdims=True)
    scale = (1.0 / np.sqrt(mean_sq + eps)).astype(x.dtype, copy=False)
    return x * scale * weight


def silu(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # below x = -709, x / inf is the signed zero
        return x / (1.0 + np.exp(-x))


# Query rows per attention block: a block's scores, heads * 128 * keys * itemsize
# bytes, stay in a 2 MB L2 cache up to 512 keys at 4 float32 heads.
ATTENTION_ROWS = 128


@lru_cache(maxsize=16)
def _rope_tables(n_pos: int, head_dim: int, theta: float, dtype: np.dtype) -> np.ndarray:
    """Rotations exp(i m theta^(-2i/head_dim)), (n_pos, head_dim // 2), computed in
    float64 and stored as the complex type of real `dtype` (complex64 for float32).
    Each row is computed on its own, so a table is the prefix of any longer one."""
    angles = np.outer(np.arange(n_pos, dtype=np.float64), theta ** (-2.0 * np.arange(head_dim // 2) / head_dim))
    rot = (np.cos(angles) + 1j * np.sin(angles)).astype(np.result_type(dtype, np.complex64), copy=False)
    rot.flags.writeable = False  # cached: every caller shares it
    return rot


def apply_rope(x: np.ndarray, theta: float, start: int = 0) -> np.ndarray:
    """Rotate consecutive component pairs of each head by position-dependent angles.

    x is (..., n_tokens, n_heads, head_dim) at positions start, start + 1, ...; pair (2i, 2i+1) at
    position m, as the complex number x[2i] + i x[2i+1], is multiplied by exp(i m theta^(-2i/head_dim)).
    Tables span whole blocks of ATTENTION_ROWS positions and are sliced: one per window up to 128.
    """
    n_pos, _, head_dim = x.shape[-3:]
    n_table = -(-(start + n_pos) // ATTENTION_ROWS) * ATTENTION_ROWS
    rot = _rope_tables(n_table, head_dim, theta, x.dtype)[start : start + n_pos, None, :]
    return (np.ascontiguousarray(x).view(rot.dtype) * rot).view(x.dtype)


@lru_cache(maxsize=None)
def _causal_mask(dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Read-only causal triangles, (ATTENTION_ROWS, ATTENTION_ROWS): True and 1 (in
    `dtype`) on and below the diagonal, False and 0 above; one pair per dtype."""
    keep = np.tri(ATTENTION_ROWS, dtype=bool)
    keep_f = keep.astype(dtype)
    keep.flags.writeable = keep_f.flags.writeable = False
    return keep, keep_f


@lru_cache(maxsize=None)
def _softmax_floor(dtype: np.dtype) -> float:
    """ln(tiny / eps) of a float dtype: e^floor, and its product with any value of
    magnitude >= eps, are normal floats."""
    info = np.finfo(dtype)
    return math.log(info.tiny / info.eps)


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, start: int) -> np.ndarray:
    """Causal softmax(q kᵀ / √d_h) v on (..., heads, tokens, head_dim) arrays, for
    queries at positions start.. against the keys at positions 0..start + tokens - 1.

    More than ATTENTION_ROWS queries run as blocks of that many rows, each over
    the keys up to its last row only.  Every key left of a block is kept, so only
    a block's last columns, one per row, take the cached causal triangle.
    Once each row's maximum over kept scores is subtracted, scores are clamped to
    [_softmax_floor, 0]: masked ones stay finite, so exp never sees -inf or overflows, and
    the 0/1 mask then zeroes them exactly.  A kept weight below e^floor (under 1e-31 of the
    row maximum in float32, 1e-292 in float64) is raised to e^floor, so neither exp nor the
    value product makes subnormals.  That moves the row sum (>= 1) by less than its float
    resolution and each value term by at most e^floor times the value.  Rows are divided
    by their sums after the value product.
    """
    n_rows = q.shape[-2]
    if n_rows > ATTENTION_ROWS:
        # Rows [s, e) read keys 0..start+e; the last block's slices stop at the last row and key.
        blocks = []
        for s in range(0, n_rows, ATTENTION_ROWS):
            e = s + ATTENTION_ROWS
            blocks.append(_attention(q[..., s:e, :], k[..., : start + e, :], v[..., : start + e, :], start + s))
        return np.concatenate(blocks, axis=-2)
    keep, keep_f = (tri[:n_rows, :n_rows] for tri in _causal_mask(q.dtype))
    # A Python float scale: a NumPy float64 scalar would promote float32 scores to float64.
    scores = (q * (1.0 / math.sqrt(q.shape[-1]))) @ k.swapaxes(-1, -2)
    diag = scores[..., start:]  # the block's own keys; every key left of them is kept
    row_max = diag.max(axis=-1, keepdims=True, where=keep, initial=-np.inf)
    if start:
        np.maximum(row_max, scores[..., :start].max(axis=-1, keepdims=True), out=row_max)
    scores -= row_max
    np.clip(scores, _softmax_floor(scores.dtype), 0.0, out=scores)
    np.exp(scores, out=scores)
    diag *= keep_f
    return (scores @ v) / scores.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Forward


def check_tokens(model: TransformerModel, tokens: np.ndarray) -> np.ndarray:
    """`tokens` as an array; a DataError unless it is a non-empty 1-D sequence
    of ids inside the model's vocabulary."""
    tokens = np.asarray(tokens)
    vocab = model.config.vocab_size
    if tokens.ndim != 1 or tokens.size == 0:
        raise DataError("token stream must be a non-empty 1-D sequence")
    if tokens.min() < 0 or tokens.max() >= vocab:
        bad = int(tokens[(tokens < 0) | (tokens >= vocab)][0])
        raise DataError(f"token id {bad} outside vocabulary [0, {vocab})")
    return tokens


def embed(model: TransformerModel, tokens: np.ndarray) -> np.ndarray:
    """Validate one token stream (`check_tokens`) and return its initial hidden state, (tokens, dim)."""
    return model.embed[check_tokens(model, tokens)]


def forward(model: TransformerModel, tokens: np.ndarray) -> np.ndarray:
    """Next-token logits, (tokens, vocab), of one token stream; causal masking is always enforced."""
    return _forward_logits(model, tokens)


def _forward_logits(model: TransformerModel, tokens: np.ndarray) -> np.ndarray:
    x = embed(model, tokens)
    for layer in model.layers:
        x = _layer_forward(model.config, layer, x)
    return _logits(model, x)


@np.errstate(over="ignore", invalid="ignore")  # non-finite logits are rejected where they are reduced
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
    cfg, dtype = model.config, model.embed.dtype
    shapes = [(n_windows, capacity, layer.n_heads(cfg), cfg.head_dim) for layer in model.layers]
    return [KVCache(np.empty(shape, dtype), np.empty(shape, dtype)) for shape in shapes]


def decode_step(model: TransformerModel, tokens: np.ndarray, caches: list[KVCache]) -> np.ndarray:
    """Next-token logits, (windows, vocab), after feeding each window's token
    at the caches' current length; every layer's cache grows by one position."""
    x = model.embed[tokens[:, None]]
    for layer, cache in zip(model.layers, caches):
        x = _layer_forward(model.config, layer, x, cache=cache)
    return _logits(model, x[:, 0])


@np.errstate(over="ignore", invalid="ignore")  # see the module docstring: reductions reject non-finite values
def _layer_forward(
    cfg: ModelConfig, layer: TransformerLayer, x: np.ndarray, grab=lambda site, values: None,
    cache: KVCache | None = None, output: bool = True,
) -> np.ndarray | None:
    """One layer on x of shape (..., n_pos, dim); leading axes are independent windows.

    The positions are 0..n_pos-1, or follow a cache's filled positions,
    which the queries attend to as well.  grab(site, values) sees each
    input site as (rows, features), all windows' positions stacked.  With
    output=False the step returns None after the last site, skipping the
    down projection and residual add that only the output needs.
    Everything runs in x's dtype, which must be the layer's.
    """
    *lead, n_pos, dim = x.shape
    d_h = cfg.head_dim
    n_heads = layer.n_heads(cfg)
    start = 0 if cache is None else cache.length
    end = start + n_pos

    # Projections run on the rows flattened to 2-D: a broadcast matmul of
    # (B, n, d) against a 2-D weight would run B separate products.
    x = x.reshape(-1, dim)
    h = rms_norm(x, layer.attn_norm, cfg.norm_eps)
    grab(SITE_ATTN_INPUT, h)

    q = layer.q(h).reshape(*lead, n_pos, n_heads, d_h)
    k = layer.k(h).reshape(*lead, n_pos, n_heads, d_h)
    v = layer.v(h).reshape(*lead, n_pos, n_heads, d_h)
    q, k = (apply_rope(a, cfg.rope_theta, start) for a in (q, k))
    if cache is not None:
        cache.k[..., start:end, :, :] = k
        cache.v[..., start:end, :, :] = v
        cache.length = end
        k, v = cache.k[..., :end, :, :], cache.v[..., :end, :, :]

    # Per-head products on (..., heads, tokens, ...) views; the ndarray method, as np.swapaxes costs a call.
    context = _attention(q.swapaxes(-3, -2), k.swapaxes(-3, -2), v.swapaxes(-3, -2), start)
    context = context.swapaxes(-3, -2).reshape(-1, n_heads * d_h)
    grab(SITE_ATTN_O_INPUT, context)
    x = x + layer.o(context)

    h2 = rms_norm(x, layer.ffn_norm, cfg.norm_eps)
    grab(SITE_FFN_INPUT, h2)
    inter = silu(layer.gate(h2)) * layer.up(h2)
    grab(SITE_FFN_DOWN_INPUT, inter)
    if not output:
        return None
    return (x + layer.down(inter)).reshape(*lead, n_pos, dim)


# ---------------------------------------------------------------------------
# Calibration statistics


def layer_pass(
    model: TransformerModel, states: list[np.ndarray], layer: int, stats: bool = True, output: bool = True
) -> dict[str, np.ndarray] | None:
    """Run `layer` once on each carried hidden state, in window order.

    Each state is one calibration window, (tokens, dim), as it enters
    `layer`.  With `output`, each window's output replaces its state in
    `states`, in place, so at most one window's state exists twice;
    without, the layer stops at its last site, `ffn_down_input`, and its
    down projection never runs.  With `stats`, returns x_din of the
    layer's four input sites, {site: vector}: per-feature float64 sums of
    squares added in window order from 0.0 (exact, as they are
    non-negative), which keeps the result bit-stable and order-invariant.
    A sum that is not finite, a window's or the running total's, is a
    CalibrationError naming the layer and site; so is an empty `states`.
    """
    if not states:
        raise CalibrationError("calibration set is empty")
    sq_sums: dict[str, np.ndarray | float] = dict.fromkeys(ALL_SITES, 0.0)

    def grab(site: str, values: np.ndarray) -> None:
        # Reduce a C-ordered array, so the summation order never depends
        # on how the producing op laid out its result.
        vals = np.ascontiguousarray(values)
        sq_sums[site] = sq_sums[site] + np.einsum("lj,lj->j", vals, vals, dtype=np.float64)
        if not np.isfinite(sq_sums[site]).all():
            raise CalibrationError(
                f"layer {layer}: {site} activations are not finite; the layer overflows its float range"
            )

    cfg, step = model.config, model.layers[layer]
    record = grab if stats else lambda site, values: None
    for w, state in enumerate(states):
        out = _layer_forward(cfg, step, state, record, output=output)
        if output:
            states[w] = out
    return {site: np.sqrt(sq) for site, sq in sq_sums.items()} if stats else None


def collect_stats(model: TransformerModel, calib: list[np.ndarray]) -> list[dict[str, np.ndarray]]:
    """x_din of every layer of the model as it is, one {site: vector} map per layer.

    Every window is embedded, then `layer_pass` carries all of them through
    each layer in turn: L layer passes per window, and the last layer's
    output, which nothing reads, is not computed.
    """
    states = [embed(model, stream) for stream in calib]
    n_layers = len(model.layers)
    return [layer_pass(model, states, i, output=i + 1 < n_layers) for i in range(n_layers)]


# ---------------------------------------------------------------------------
# Evaluation and accounting


def perplexity(model: TransformerModel, stream: np.ndarray, seq_len: int) -> float:
    """exp(mean next-token NLL) over non-overlapping windows of seq_len.

    Window w feeds tokens [w*S, w*S + S) and is scored against targets
    [w*S + 1, w*S + S], so every token after the first of each window is
    predicted exactly once; the final partial window is discarded.  The
    whole stream, discarded tail included, is checked once (`check_tokens`)
    before any window is scored.  The targets' log-probabilities and the
    NLL are taken in float64; a non-finite log-probability (the model
    overflowed its float range) is a DataError naming the first such
    window.  Windows are scored concurrently, one per CPU
    (`util.parallel_map`), and their NLLs summed in window order, so the
    result is the same bits for any CPU count.
    """
    stream = np.asarray(stream)
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    if stream.size < seq_len + 1:
        raise DataError(f"evaluation stream too short: {stream.size} tokens < seq_len + 1 = {seq_len + 1}")
    check_tokens(model, stream)
    n_windows = (stream.size - 1) // seq_len

    def window_nll(w: int) -> float:
        ctx = stream[w * seq_len : (w + 1) * seq_len]
        targets = stream[w * seq_len + 1 : (w + 1) * seq_len + 1]
        # Not `forward`: perfbench traces it, and its span recorder keeps one thread's stack.
        logits = _forward_logits(model, ctx)
        with np.errstate(invalid="ignore"):  # inf - inf below is caught as a non-finite log-probability
            # A new float64 array, the logits left as they are; log-probabilities are formed at the targets only.
            z = np.subtract(logits, logits.max(axis=-1, keepdims=True), dtype=np.float64)
            logp = z[np.arange(seq_len), targets] - np.log(np.exp(z).sum(axis=-1))
        if not np.isfinite(logp).all():
            raise DataError(f"window {w}: non-finite log-probabilities; the model overflows its float range")
        return -float(logp.sum())

    total_nll = 0.0
    for nll in util.parallel_map(window_nll, range(n_windows)):  # a plain loop: sum() may compensate
        total_nll += nll
    return float(np.exp(total_nll / (n_windows * seq_len)))


def count_params_macs(model: TransformerModel, seq_len: int) -> tuple[int, int]:
    """Stored parameter count and multiply-accumulates for one sequence.

    MACs cover all matrix products: the seven projections per layer, the
    full seq_len x seq_len attention score and value products (the blocked
    attention skips part of the masked half above 128 tokens, which is still
    counted), and the LM head.  Normalization,
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


def model_to_tensors(model: TransformerModel) -> dict[str, np.ndarray]:
    """Serialize a model's weights to a float32 {name: array} map.

    Factored matrices become name.L / name.R; pruned FFNs and head-pruned
    attention are stored at their reduced shapes (their index tensors come
    from the manifest, `store.write_compressed`).  A float32 model's
    arrays go in as they are, without a copy.
    """

    def f32(a: np.ndarray) -> np.ndarray:
        return a.astype(np.float32, copy=False)

    out: dict[str, np.ndarray] = {
        store.EMBED_NAME: f32(model.embed),
        store.HEAD_NAME: f32(model.lm_head),
        store.FINAL_NORM_NAME: f32(model.final_norm),
    }

    def put(name: str, proj: LinearMap) -> None:
        if isinstance(proj, Dense):
            out[name] = f32(proj.w)
        else:
            lname, rname = store.factor_names(name)
            out[lname] = f32(proj.l)
            out[rname] = f32(proj.r)

    for i, layer in enumerate(model.layers):
        out[store.attn_norm_name(i)] = f32(layer.attn_norm)
        out[store.ffn_norm_name(i)] = f32(layer.ffn_norm)
        for proj_name, proj in layer.projections().items():
            put(store.weight_name(i, proj_name), proj)
    return out


def model_from_tensors(config: ModelConfig, tensors: dict[str, np.ndarray]) -> TransformerModel:
    """Rebuild a (possibly compressed) float32 model from a map of its weights.

    The scheme of each matrix is inferred from which names are present:
    name.weight means dense, name.L/name.R means factored.  float32
    tensors are used as they are, without a copy.
    """

    def f32(name: str) -> np.ndarray:
        return np.asarray(tensors[name], dtype=np.float32)

    def pick(name: str) -> LinearMap:
        if name in tensors:
            return Dense(f32(name))
        lname, rname = store.factor_names(name)
        if lname in tensors and rname in tensors:
            return Factored(l=f32(lname), r=f32(rname))
        raise ShapeMismatchError(f"no dense or factored tensors found for {name!r}")

    layers = tuple(
        TransformerLayer(
            attn_norm=f32(store.attn_norm_name(i)),
            ffn_norm=f32(store.ffn_norm_name(i)),
            **{p.attr: pick(store.weight_name(i, p.name)) for p in store.PROJECTIONS},
        )
        for i in range(config.n_layers)
    )
    return TransformerModel(
        config=config,
        embed=f32(store.EMBED_NAME),
        layers=layers,
        final_norm=f32(store.FINAL_NORM_NAME),
        lm_head=f32(store.HEAD_NAME),
    )
