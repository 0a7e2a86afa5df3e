"""Gradient-free structured pruning, the activation-aware importance
scores behind it, and the spectral / mask diagnostics.

Importance of a single weight is |W_ij| * x_din[j]; channels aggregate
importance over their row (l1, l2 or linf).  One routine scores and slices
channel groups: the FFN's {up row i, gate row i, down column i}, and a
head's head_dim rows of q, k and v with the matching columns of o, and
`decide_pruning` keeps the plan's count of top-scoring groups, the FFN's
with a small slice of its *least* important ones (default 1%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
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


def group_scores(ins, out, x_in, x_out, agg: str = "l2", group: int = 1) -> np.ndarray:
    """Importance per group of `group` consecutive channels.  Channel i is row i
    of each input-side matrix in `ins` ({name: W}, fed by x_in) and column i of
    the one output-side matrix in `out` ({name: W}, fed by its own input norms
    x_out).  Each matrix's channel scores are summed per group, then added in
    the order given, ins before out: the FFN passes {up, gate} | {down} at
    group 1, whole-head pruning {q, k, v} | {o} at group=head_dim.
    """
    ins, (_, o) = _checked_group(ins, out, group)
    # Scored one matrix at a time, in its stored dtype: each importance matrix
    # and its square are freed before the next is made.
    scores = 0.0  # exact, as every score is non-negative
    for w in ins.values():
        scores = scores + channel_scores(weight_importance(w, x_in), agg).reshape(-1, group).sum(axis=1)
    return scores + channel_scores(weight_importance(o, x_out).T, agg).reshape(-1, group).sum(axis=1)


def _checked_group(ins, out, group: int = 1) -> tuple[dict[str, np.ndarray], tuple[str, np.ndarray]]:
    """Each matrix of a group set `checked_matrix` under its name, as (ins,
    (out name, out matrix)); every input-side matrix has a row per out column,
    and the channels split into whole groups of `group`."""
    ((out_name, o),) = out.items()
    ins, o = {name: checked_matrix(w, name) for name, w in ins.items()}, checked_matrix(o, out_name)
    shapes = ", ".join(f"{name} {w.shape}" for name, w in {**ins, out_name: o}.items())
    if any(w.shape[0] != o.shape[1] for w in ins.values()):
        raise ShapeMismatchError(f"inconsistent group shapes: {shapes}")
    if not (group >= 1 and o.shape[1] % group == 0):
        raise ShapeMismatchError(f"{o.shape[1]} channels are no whole number of groups of {group}: {shapes}")
    return ins, (out_name, o)


@dataclass(frozen=True)
class PruneDecision:
    """Retained groups (FFN channels or heads) with top/bottom provenance.

    retained is sorted ascending; provenance[i] tells whether
    retained[i] was kept for scoring in the top block or in the
    least-important block.
    """

    retained: np.ndarray
    provenance: tuple[str, ...]


def _order(scores: np.ndarray, descending: bool) -> np.ndarray:
    # A stable sort: ties always resolve to the lower index.
    return np.argsort(-scores if descending else scores, kind="stable")


def decide_pruning(scores, n_keep: int, n_bottom: int = 0) -> PruneDecision:
    """Keep n_keep groups: the n_keep - n_bottom highest-scoring ones, then the
    n_bottom lowest-scoring of the rest.  Ties break toward the lower index.
    The counts are the plan's (`store.layer_plan`, `store.bottom_quota`); one
    that is not an integer (a bool included) is a TypeError naming it, and any
    outside 1 <= n_keep <= len(scores) and 0 <= n_bottom <= n_keep a ValueError.
    """
    for name, count in (("n_keep", n_keep), ("n_bottom", n_bottom)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise TypeError(f"{name} must be an integer count, got {count!r}")
    scores = np.asarray(scores, dtype=np.float64)
    if not (1 <= n_keep <= scores.size and 0 <= n_bottom <= n_keep):
        raise ValueError(f"cannot keep {n_keep} of {scores.size} groups, {n_bottom} of them from the bottom")
    top = _order(scores, descending=True)[: n_keep - n_bottom]
    in_top = np.zeros(scores.size, dtype=bool)
    in_top[top] = True
    asc = _order(scores, descending=False)
    bottom = asc[~in_top[asc]][:n_bottom]

    flags = {int(i): "top" for i in top}
    flags.update({int(i): "bottom" for i in bottom})
    retained = np.sort(np.concatenate([top, bottom])).astype(np.int64)
    provenance = tuple(flags[int(i)] for i in retained)
    return PruneDecision(retained=retained, provenance=provenance)


def apply_pruning(ins, out, rows) -> dict[str, np.ndarray]:
    """Slice a group set, as `group_scores` takes it, to `rows` (a PruneDecision's
    retained channels, or the rows of the kept heads): rows of each ins matrix,
    columns of the out one.  Returns {name: slice}, ins first, each in the dtype
    given (float32 and float64 as they are, anything else as float64)."""
    ins, (out_name, o) = _checked_group(ins, out)
    rows = np.asarray(rows)
    if rows.size and (rows.min() < 0 or rows.max() >= o.shape[1]):
        raise IndexError(f"row index out of range [0, {o.shape[1]})")
    return {**{name: w[rows, :] for name, w in ins.items()}, out_name: o[:, rows]}


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
    order = np.argsort(-flat, kind="stable")
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
