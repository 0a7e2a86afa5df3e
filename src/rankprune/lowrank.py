"""Activation-weighted low-rank factorization of attention matrices and
the budget allocation that decides each matrix's rank.

A matrix W is replaced by L @ R where L = U_r Sigma_r and
R = V_r^T D^{-1}, the top r singular triplets of W D with D = diag(x_din);
this pair minimizes ||(W - LR) D||_F over all rank-r pairs.  The triplets
come from the eigendecomposition of the smaller Gram matrix of W D, or
from its full SVD when that is ill-conditioned (linalg.top_factors).
The MHA budget is split between the (q, k) and (v, o) groups (default
1:3, v/o getting more because they are less low-rank), with a dense
passthrough whenever a group's share would exceed its dense size.
`allocate_mha` returns that decision in the one form it has, the MHA
record of a manifest's `global.plan` (`store.layer_plan`).

A layer's factorings are independent; `compress_mha` runs them on every CPU
when its matrices are wide enough (CONCURRENT_MIN_SIDE) for threads to pay.
They pay only because the Gram products and `eigh`, most of a wide
factoring's time, release the GIL; narrow matrices run one after another.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, isfinite

import numpy as np

from .errors import AllocationError, CalibrationError, ShapeMismatchError
from .linalg import XDIN_EPS, _weighted_error, checked_matrix, top_factors
from .store import ATTN_PROJS
from .util import parallel_map, round_half_up

# The smallest side at which compress_mha factors a layer's matrices on threads.
# Four float32 d x d factorings at ranks d/8, d/8, 3d/8, 3d/8 (2-vCPU x86 VM, one
# BLAS thread, medians of 25) took, on one thread against two: 2.08 against
# 2.77 ms at d = 64, 4.63 / 4.35 ms at 96, 9.65 / 8.64 ms at 128, 42.5 / 25.1 ms
# at 256 and 216 / 148 ms at 512.  Below about 96 the many small numpy calls,
# which hold the GIL for most of their time, queue on it.
CONCURRENT_MIN_SIDE = 128


@dataclass(frozen=True)
class FactorPair:
    """The (L, R) low-rank replacement of one weight matrix.

    A pair only saves parameters while rank * (d_out + d_in) < d_out * d_in;
    the allocator keeps matrices dense past that point, but full-rank
    pairs are still legal values (used by equivalence tests).
    """

    l: np.ndarray       # (d_out, r)
    r: np.ndarray       # (r, d_in)
    weighted_error: float


def floored_weights(x_din, d_in: int) -> np.ndarray:
    x = np.asarray(x_din, dtype=np.float64)
    if x.shape != (d_in,):
        raise ShapeMismatchError(f"x_din has shape {x.shape}, expected ({d_in},)")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("x_din entries must be finite and non-negative")
    return np.maximum(x, XDIN_EPS)


def awsvd_factor(w, x_din, rank: int, name: str = "matrix") -> FactorPair:
    """Best rank-r pair under the diagonal activation weighting.

    All-zero x_din entries are floored to XDIN_EPS, never an error: the
    weighting then degenerates toward plain truncated SVD for those
    columns.  Unit weights give plain truncated SVD exactly, since
    multiplying and dividing by 1.0 are exact.

    A float32 W is never copied whole: W D and the error widen it as they
    read it, the same bits as from its float64 copy.  Beside W the call
    holds W D during the factoring and one error buffer after it.
    """
    w = checked_matrix(w, name)
    d = floored_weights(x_din, w.shape[1])
    left, right = top_factors(w * d[None, :], rank, name=name)
    r_mat = right / d[None, :]
    return FactorPair(l=left, r=r_mat, weighted_error=_weighted_error(w, left, r_mat, d))


# ---------------------------------------------------------------------------
# Budget allocation


def parse_alloc_ratio(text: str) -> tuple[float, float]:
    """Parse "1:3" style qk:vo ratios."""
    try:
        qk, vo = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"allocation ratio must look like '1:3', got {text!r}") from exc
    if not (isfinite(qk) and isfinite(vo) and qk > 0 and vo > 0):
        raise ValueError(f"allocation ratio parts must be finite and positive, got {text!r}")
    return qk, vo


def allocate_mha(
    dims: dict[str, tuple[int, int]],
    layer_ratio: float,
    alloc_ratio: tuple[float, float] = (1.0, 3.0),
) -> dict:
    """Split round(total * layer_ratio) parameters across q/k/v/o.

    The group split follows alloc_ratio; inside a group the two matrices
    split equally and each gets rank floor(share / (d_out + d_in)),
    minimum 1.  Groups whose share covers their dense size pass through
    dense and push the surplus to the other group.

    Returns the MHA record of a manifest's `global.plan` less its
    kept_head_count: {"schemes": {proj: {"kind", "rank", "params"}},
    "budget", "qk_budget", "vo_budget", "slack"}.  The budgets are the
    post-overflow shares; slack, what flooring ranks leaves over, stays
    below d_out + d_in per factored matrix and is never redistributed.
    """
    if not 0.0 < layer_ratio <= 1.0:
        raise ValueError(f"layer_ratio must lie in (0, 1], got {layer_ratio}")
    if set(dims) != set(ATTN_PROJS):
        raise ValueError(f"dims must cover exactly {', '.join(ATTN_PROJS)}")
    size = {m: d_out * d_in for m, (d_out, d_in) in dims.items()}
    total = sum(size.values())
    budget = round_half_up(total * layer_ratio)
    qk_w, vo_w = alloc_ratio
    if not (isfinite(qk_w) and isfinite(vo_w) and qk_w > 0 and vo_w > 0):
        raise ValueError(f"allocation ratio parts must be finite and positive, got {alloc_ratio}")
    vo_budget = round_half_up(budget * vo_w / (qk_w + vo_w))
    qk_budget = budget - vo_budget

    dense_qk = size["q_proj"] + size["k_proj"]
    dense_vo = size["v_proj"] + size["o_proj"]
    qk_dense = vo_dense = False
    if vo_budget >= dense_vo:
        vo_dense = True
        vo_budget = dense_vo
        qk_budget = budget - dense_vo
    if qk_budget >= dense_qk:
        qk_dense = True
        qk_budget = dense_qk
        if not vo_dense:
            vo_budget = budget - dense_qk
            if vo_budget >= dense_vo:
                vo_dense = True
                vo_budget = dense_vo

    schemes: dict[str, dict] = {}
    for group, group_budget, is_dense in (
        (("q_proj", "k_proj"), qk_budget, qk_dense),
        (("v_proj", "o_proj"), vo_budget, vo_dense),
    ):
        for m in group:
            if is_dense:
                schemes[m] = {"kind": "dense", "rank": None, "params": size[m]}
            else:
                d_out, d_in = dims[m]
                rank = max(1, floor((group_budget / 2.0) / (d_out + d_in)))
                schemes[m] = {"kind": "factored", "rank": rank, "params": rank * (d_out + d_in)}

    realized = sum(s["params"] for s in schemes.values())
    if realized > budget:
        raise AllocationError(
            f"MHA budget {budget} is too small: even rank-1 factors need {realized} parameters"
        )
    return {"schemes": schemes, "budget": budget, "qk_budget": qk_budget, "vo_budget": vo_budget,
            "slack": budget - realized}


def compress_mha(
    weights: dict[str, np.ndarray],
    x_din_by_matrix: dict[str, np.ndarray],
    ranks: dict[str, int | None],
) -> dict[str, FactorPair | None]:
    """Factor each matrix of {name: rank}: a FactorPair at its rank, None for a dense
    passthrough (rank None).  x_din entries must be present for every matrix that
    gets factored; unit weights give plain truncated SVD.

    The factorings share no data, so when every matrix to factor has at least
    CONCURRENT_MIN_SIDE rows and columns they run on every CPU
    (`util.parallel_map`); otherwise one after another.  Either way each pair
    has the same bits, and a failure raises the error of the first failing
    matrix in `ranks` order.  Threads gain only because LAPACK's `eigh` and the
    BLAS Gram products, most of a wide factoring's time, release the GIL.

    It factors any projection, not only attention: `pipeline` passes a layer's
    seven at their planned ranks, the FFN's too under `--ffn-method svd`.  The
    name stays because the benchmark's call trace (`perfbench/run.py`) times it
    under this name."""

    def factor(m):
        if m not in x_din_by_matrix:
            raise CalibrationError(f"no activation statistics for {m}")
        return awsvd_factor(weights[m], x_din_by_matrix[m], ranks[m], name=m)

    todo = [m for m, rank in ranks.items() if rank is not None]
    wide = all(min(np.shape(weights.get(m)), default=0) >= CONCURRENT_MIN_SIDE for m in todo)
    pairs = dict(zip(todo, parallel_map(factor, todo) if wide else map(factor, todo)))
    return {m: pairs.get(m) for m in ranks}
