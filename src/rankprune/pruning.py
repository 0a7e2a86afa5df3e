"""Gradient-free structured pruning of the FFN sub-layer, the
activation-aware importance scores behind it, and the spectral / mask
diagnostics.

Importance of a single weight is |W_ij| * x_din[j]; channels aggregate
importance over their row (l1, l2 or linf), and the FFN prunes the
group {up row i, gate row i, down column i} atomically.  Within a fixed
budget a small slice of the *least* important groups is retained
alongside the top-scoring ones (default 1%).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from .errors import AllocationError, ShapeMismatchError
from .linalg import XDIN_EPS, as_matrix, checked_matrix, svd
from .util import round_half_up

AGGREGATIONS = ("l1", "l2", "linf")


def weight_importance(w, x_din) -> np.ndarray:
    """|W_ij| * x_din[j], the per-weight importance matrix, in float64.

    A float32 W is not widened first: |W| stays float32 and the product
    widens it, which gives the same bits as widening first."""
    w = checked_matrix(w, "w")
    x = np.asarray(x_din, dtype=np.float64)
    if x.shape != (w.shape[1],):
        raise ShapeMismatchError(f"x_din has shape {x.shape}, expected ({w.shape[1]},)")
    return np.abs(w) * x[None, :]


def channel_scores(importance: np.ndarray, agg: str = "l2") -> np.ndarray:
    """Aggregate an importance matrix over its rows (output channels)."""
    if agg == "l1":
        return importance.sum(axis=1)
    if agg == "l2":
        return np.sqrt((importance * importance).sum(axis=1))
    if agg == "linf":
        return importance.max(axis=1)
    raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {agg!r}")


def group_scores(up, gate, down, x_ffn_input, x_down_input, agg: str = "l2") -> np.ndarray:
    """Importance per intermediate channel: up row + gate row + down column.

    The down matrix contributes the score of its column i (the weights
    that multiply intermediate feature i), computed against the norms of
    its own input site, i.e. the gated intermediate activations.
    """
    # Checked in their stored dtype, and scored one matrix at a time: each
    # importance matrix and its square are freed before the next is made.
    up, gate, down = checked_matrix(up, "up"), checked_matrix(gate, "gate"), checked_matrix(down, "down")
    if gate.shape != up.shape or down.shape[1] != up.shape[0]:
        raise ShapeMismatchError(
            f"inconsistent FFN shapes: up {up.shape}, gate {gate.shape}, down {down.shape}"
        )
    s_up = channel_scores(weight_importance(up, x_ffn_input), agg)
    s_gate = channel_scores(weight_importance(gate, x_ffn_input), agg)
    s_down = channel_scores(weight_importance(down, x_down_input).T, agg)
    return s_up + s_gate + s_down


@dataclass(frozen=True)
class PruneDecision:
    """Retained intermediate channels with top/bottom provenance.

    retained is sorted ascending; provenance[i] tells whether
    retained[i] was kept for scoring in the top block or in the
    least-important block.
    """

    retained: np.ndarray
    provenance: tuple[str, ...]


def _order(scores: np.ndarray, descending: bool) -> np.ndarray:
    # lexsort: last key is primary; ties always resolve to the lower index.
    idx = np.arange(scores.size)
    key = -scores if descending else scores
    return np.lexsort((idx, key))


def bottom_quota(d_m: int, n_retained: int, retain_least: float) -> int:
    """How many of n_retained kept channels come from the bottom of the
    score order: max(1, floor(retain_least * d_m)) when retain_least > 0,
    shrunk to fit inside the retained count."""
    quota = max(1, floor(retain_least * d_m)) if retain_least > 0 else 0
    return min(quota, n_retained)


def retained_count(d_m: int, keep_ratio: float) -> int:
    """How many of d_m FFN channels a keep ratio retains: round(keep_ratio * d_m)."""
    return round_half_up(keep_ratio * d_m)


def kept_head_count(n_heads: int, keep_ratio: float) -> int:
    """How many whole heads a keep ratio keeps: round(keep_ratio * n_heads), at least 1."""
    return max(1, round_half_up(keep_ratio * n_heads))


def decide_pruning(scores, keep_ratio: float, retain_least: float = 0.01) -> PruneDecision:
    """Choose round(keep_ratio * d_m) channels to keep.

    max(1, floor(retain_least * d_m)) of them come from the bottom of the
    score order (when retain_least > 0), the rest from the top.  Ties
    break toward the lower channel index; if the bottom quota cannot fit
    inside the retained count it shrinks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    d_m = scores.size
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must lie in (0, 1], got {keep_ratio}")
    if not 0.0 <= retain_least < keep_ratio:
        raise ValueError(f"retain_least must lie in [0, keep_ratio), got {retain_least}")
    n_retained = retained_count(d_m, keep_ratio)
    if n_retained < 1:
        raise AllocationError(f"keep_ratio {keep_ratio} retains no channel of {d_m}")
    n_bottom = bottom_quota(d_m, n_retained, retain_least)
    n_top = n_retained - n_bottom

    top = _order(scores, descending=True)[:n_top]
    in_top = np.zeros(d_m, dtype=bool)
    in_top[top] = True
    asc = _order(scores, descending=False)
    bottom = asc[~in_top[asc]][:n_bottom]

    flags = {int(i): "top" for i in top}
    flags.update({int(i): "bottom" for i in bottom})
    retained = np.sort(np.concatenate([top, bottom])).astype(np.int64)
    provenance = tuple(flags[int(i)] for i in retained)
    return PruneDecision(retained=retained, provenance=provenance)


def apply_pruning(up, gate, down, decision: PruneDecision) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice the group: up/gate keep retained rows, down keeps retained columns.
    The slices keep the dtype of the arrays given (float32 and float64 as they
    are, anything else as float64)."""
    up, gate, down = checked_matrix(up, "up"), checked_matrix(gate, "gate"), checked_matrix(down, "down")
    d_m = up.shape[0]
    idx = decision.retained
    if idx.size and (idx.min() < 0 or idx.max() >= d_m):
        raise IndexError(f"retained channel index out of range [0, {d_m})")
    return up[idx, :], gate[idx, :], down[:, idx]


# ---------------------------------------------------------------------------
# Diagnostics


def wanda_mask(w, x_din, sparsity: float) -> tuple[np.ndarray, bytes]:
    """Unstructured keep-mask over the top (1 - sparsity) of weights by
    importance, plus its portable-graymap rendering (0=pruned, 255=kept).

    Ties break toward the lower row-major position, so a uniform-score
    matrix still keeps exactly the requested fraction.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must lie in [0, 1), got {sparsity}")
    imp = weight_importance(w, x_din)
    flat = imp.ravel()
    keep_n = round_half_up((1.0 - sparsity) * flat.size)
    order = np.lexsort((np.arange(flat.size), -flat))
    mask = np.zeros(flat.size, dtype=bool)
    mask[order[:keep_n]] = True
    mask = mask.reshape(imp.shape)
    return mask, mask_to_pgm(mask)


def mask_to_pgm(mask: np.ndarray) -> bytes:
    """Binary portable graymap (P5), one byte per pixel."""
    rows, cols = mask.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    return header + np.where(mask, np.uint8(255), np.uint8(0)).tobytes()


def energy_rank_ratio(w, energy: float, x_din=None, use_singular_values: bool = False) -> float:
    """Percentage of singular values needed to hold `energy` of the mass.

    Mass is squared singular values by default (Frobenius energy); pass
    use_singular_values=True for the plain-sigma reading.  With x_din the
    analysis runs on W * diag(max(x_din, eps)) instead, which shows how
    much the activation weighting concentrates the spectrum.  A zero
    matrix is defined as 0%.
    """
    if not 0.0 < energy < 1.0:
        raise ValueError(f"energy must lie in (0, 1), got {energy}")
    a = as_matrix(w, "w")
    if x_din is not None:
        x = np.asarray(x_din, dtype=np.float64)
        if x.shape != (a.shape[1],):
            raise ShapeMismatchError(f"x_din has shape {x.shape}, expected ({a.shape[1]},)")
        a = a * np.maximum(x, XDIN_EPS)[None, :]
    if not np.any(a):
        return 0.0
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:  # the gesvd fallback, or a DecompositionError
        s = svd(a).singular_values
    mass = s if use_singular_values else s * s
    cum = np.cumsum(mass)
    k = int(np.searchsorted(cum, energy * cum[-1], side="left")) + 1
    k = min(k, s.size)
    return 100.0 * k / s.size


# ---------------------------------------------------------------------------
# Whole-head pruning (diagnostic baseline for A/B comparison only)


def head_scores(
    q, k, v, o, x_attn_input, x_o_input, n_heads: int, head_dim: int, agg: str = "l2"
) -> np.ndarray:
    """Summed group score per attention head.

    A head's group is its head_dim rows of q/k/v plus the matching
    columns of o; the o contribution is scored against the norms of its
    own input (the concatenated head outputs).
    """
    scores = np.zeros(n_heads)
    for name, w in (("q", q), ("k", k), ("v", v)):
        s = channel_scores(weight_importance(w, x_attn_input), agg)
        if s.size != n_heads * head_dim:
            raise ShapeMismatchError(f"{name} has {s.size} rows, expected {n_heads * head_dim}")
        scores += s.reshape(n_heads, head_dim).sum(axis=1)
    s_o = channel_scores(weight_importance(o, x_o_input).T, agg)
    scores += s_o.reshape(n_heads, head_dim).sum(axis=1)
    return scores


def decide_head_pruning(scores: np.ndarray, keep_ratio: float) -> tuple[int, ...]:
    """Keep the round(keep_ratio * n_heads) highest-scoring heads (>= 1)."""
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must lie in (0, 1], got {keep_ratio}")
    n_keep = kept_head_count(scores.size, keep_ratio)
    kept = _order(np.asarray(scores, dtype=np.float64), descending=True)[:n_keep]
    return tuple(int(h) for h in np.sort(kept))


def apply_head_pruning(q, k, v, o, kept: tuple[int, ...], head_dim: int):
    """Slice q/k/v rows and o columns down to the kept heads."""
    rows = np.concatenate([np.arange(h * head_dim, (h + 1) * head_dim) for h in kept])
    return q[rows, :], k[rows, :], v[rows, :], o[:, rows]
