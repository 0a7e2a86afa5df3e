"""Dense matrix primitives: SVD with a fixed sign convention, truncation,
and diagonally weighted Frobenius errors.

All arithmetic is done in float64 regardless of the dtype weights were
stored in, so the tolerances used by the factorizers and their test
oracles stay tight at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DecompositionError, ShapeMismatchError

# Floor applied to x_din before it weights a matrix's columns; dead input
# features would otherwise make D^{-1} undefined.
XDIN_EPS = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D float64 array with finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name}: empty dimension in shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD of a d_out x d_in matrix: u @ diag(singular_values) @ vt.

    u is (d_out, k), vt is (k, d_in) with k = min(d_out, d_in);
    singular values are non-increasing and non-negative.
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    @property
    def max_rank(self) -> int:
        return len(self.singular_values)


def svd(m, name: str = "matrix") -> SvdResult:
    """Thin SVD with a deterministic sign convention.

    Each left singular vector is flipped so that its largest-magnitude
    entry is positive (first such entry on ties), which keeps repeated
    runs byte-stable.  Falls back to the slower gesvd driver if the
    default divide-and-conquer driver fails to converge.
    """
    a = as_matrix(m, name)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        try:
            u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        except Exception as exc:
            raise DecompositionError(f"SVD failed to converge for {name}") from exc
    # Canonical signs: largest-|.| entry of each u column made positive.
    pivot = np.argmax(np.abs(u), axis=0)
    flip = u[pivot, np.arange(u.shape[1])] < 0.0
    u = np.where(flip[None, :], -u, u)
    vt = np.where(flip[:, None], -vt, vt)
    return SvdResult(u=np.ascontiguousarray(u), singular_values=s, vt=np.ascontiguousarray(vt))


def truncate(s: SvdResult, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Best unweighted rank-r approximation as a (d_out x r, r x d_in) pair.

    Returns (U_r Sigma_r, V_r^T); their product is the Eckart-Young
    optimum among all rank-r matrices.
    """
    if not 1 <= rank <= s.max_rank:
        raise ValueError(f"rank {rank} out of range [1, {s.max_rank}]")
    left = s.u[:, :rank] * s.singular_values[None, :rank]
    right = s.vt[:rank, :]
    return np.ascontiguousarray(left), np.ascontiguousarray(right)


def weighted_frobenius_error(w, l, r, d) -> float:
    """|| (W - L @ R) @ diag(d) ||_F for a positive weight vector d."""
    w = as_matrix(w, "w")
    l = as_matrix(l, "l")
    r = as_matrix(r, "r")
    d = np.asarray(d, dtype=np.float64)
    if l.shape[0] != w.shape[0] or r.shape[1] != w.shape[1] or l.shape[1] != r.shape[0]:
        raise ShapeMismatchError(
            f"factor shapes {l.shape} x {r.shape} do not conform with {w.shape}"
        )
    if d.shape != (w.shape[1],):
        raise ShapeMismatchError(f"weight vector has shape {d.shape}, expected ({w.shape[1]},)")
    if np.any(d <= 0.0):
        raise ValueError("weight vector entries must be positive")
    return float(np.linalg.norm((w - l @ r) * d[None, :]))

