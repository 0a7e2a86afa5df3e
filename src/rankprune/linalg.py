"""Dense matrix primitives: the checked x_din weighting, spectra, top-r
factor pairs, and diagonally weighted Frobenius errors.

Both spectral routines read the smaller Gram matrix of A (A Aᵀ or Aᵀ A),
which costs well under a full SVD of the same matrix.  `spectrum` gives
every σ² from its eigenvalues, and `top_factors` the best rank-r pair from
its top eigenpairs.  Each falls back to the full SVD (`svd`, with a fixed
sign convention, and `truncate`) when the eigendecomposition fails;
`top_factors` also when σ_r/σ_1 drops below GRAM_MIN_SIGMA_RATIO.

All arithmetic is done in float64 regardless of the dtype weights were
stored in, so the tolerances used by the factorizers and their test
oracles stay tight at small sizes.

Only numpy is imported at load.  `scipy.linalg`, whose gesvd driver `svd`
retries when numpy's SVD fails to converge, is imported on that retry
alone: importing it costs a process about 24 MB and 0.2 s that no other
path needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, ShapeMismatchError

# Floor applied to x_din before it weights a matrix's columns; dead input
# features would otherwise make D^{-1} undefined.
XDIN_EPS = 1e-8

# The Gram product squares the condition number: a singular value taken as
# sqrt(eigenvalue) carries a relative error of about eps * (σ_1/σ_i)^2.  At
# this ratio that is ~2e-8, still below float32 resolution (~6e-8), the
# precision factors are stored in; below it top_factors uses the full SVD.
GRAM_MIN_SIGMA_RATIO = 1e-4


def checked_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate a 2-D array with finite entries, without widening it: float32
    and float64 arrays come back as they are, anything else as float64.

    Widening float32 to float64 is exact, so a float32 matrix passes exactly
    when its float64 copy would, and arithmetic that promotes it to float64
    gets the same bits as from that copy."""
    arr = np.asarray(a)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name}: empty dimension in shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: contains non-finite entries")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D float64 array with finite entries."""
    return checked_matrix(a, name).astype(np.float64, copy=False)


def checked_x_din(x_din, d_in: int) -> np.ndarray:
    """x_din as float64, checked to hold d_in finite, non-negative entries."""
    x = np.asarray(x_din, dtype=np.float64)
    if x.shape != (d_in,):
        raise ShapeMismatchError(f"x_din has shape {x.shape}, expected ({d_in},)")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("x_din entries must be finite and non-negative")
    return x


def floored_weights(x_din, d_in: int) -> np.ndarray:
    """The column weights D of a checked x_din, each at least XDIN_EPS."""
    return np.maximum(checked_x_din(x_din, d_in), XDIN_EPS)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD u @ diag(singular_values) @ vt of a d_out x d_in matrix: u is
    (d_out, k) and vt (k, d_in), k = min(d_out, d_in); the singular values
    are non-increasing and non-negative."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray


def svd(m, name: str = "matrix") -> SvdResult:
    """Thin SVD, each left singular vector flipped so that its largest-magnitude
    entry is positive (the first on ties), which keeps repeated runs byte-stable.
    The slower gesvd driver retries when divide-and-conquer fails to converge."""
    return _svd(m, name)


def _svd(m, name: str) -> SvdResult:
    # svd's body.  top_factors falls back to this name, not to `svd`, which
    # perfbench's call trace rebinds and which then assumes one thread: a
    # fallback inside a `parallel_map` task must not open a traced span.
    a = as_matrix(m, name)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        import scipy.linalg  # see the module docstring

        try:
            u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        except Exception as exc:
            raise DecompositionError(f"SVD failed to converge for {name}") from exc
    u, vt = _canonical_signs(u, vt)
    return SvdResult(u=np.ascontiguousarray(u), singular_values=s, vt=np.ascontiguousarray(vt))


def _canonical_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip paired columns of u and rows of vt so that the largest-|.|
    entry of each u column is positive (first such entry on ties)."""
    pivot = np.argmax(np.abs(u), axis=0)
    flip = u[pivot, np.arange(u.shape[1])] < 0.0
    return np.where(flip[None, :], -u, u), np.where(flip[:, None], -vt, vt)


def truncate(s: SvdResult, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The best unweighted rank-r pair (U_r Σ_r, V_rᵀ), (d_out x r, r x d_in):
    their product is the Eckart-Young optimum among all rank-r matrices."""
    k = len(s.singular_values)
    if not 1 <= rank <= k:
        raise ValueError(f"rank {rank} out of range [1, {k}]")
    left = s.u[:, :rank] * s.singular_values[None, :rank]
    right = s.vt[:rank, :]
    return np.ascontiguousarray(left), np.ascontiguousarray(right)


def _gram(a: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of a: a @ a.T when rows <= cols, else a.T @ a."""
    return a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a


def spectrum(m, name: str = "matrix") -> np.ndarray:
    """σ² of m in descending order: the eigenvalues of its smaller Gram matrix,
    clipped at 0, or the squared full SVD when eigvalsh fails.  Unlike
    top_factors it needs no GRAM_MIN_SIGMA_RATIO fallback: each eigenvalue's
    absolute error is about eps·σ₁², and an energy count sums the large ones."""
    a = as_matrix(m, name)
    try:
        lam = np.linalg.eigvalsh(_gram(a))
    except np.linalg.LinAlgError:
        return _svd(a, name).singular_values ** 2
    return np.maximum(lam[::-1], 0.0)


def top_factors(m, rank: int, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """The pair truncate(svd(m), rank) returns, from the smaller Gram matrix.

    For a d_out x d_in matrix A with d_out <= d_in, the top `rank`
    eigenpairs of A Aᵀ give U_r and σ = sqrt(λ), and V_rᵀ = Σ_r⁻¹ U_rᵀ A;
    otherwise Aᵀ A gives V_r and U_r Σ_r = A V_r.  Signs follow svd().
    Falls back to truncating the full SVD when eigh fails, when λ_r <= 0,
    or when σ_r/σ_1 < GRAM_MIN_SIGMA_RATIO.
    """
    a = as_matrix(m, name)
    rows, cols = a.shape
    if not 1 <= rank <= min(rows, cols):
        raise ValueError(f"rank {rank} out of range [1, {min(rows, cols)}]")
    wide = rows <= cols
    try:
        lam, vec = np.linalg.eigh(_gram(a))
    except np.linalg.LinAlgError:
        return truncate(_svd(a, name), rank)
    # eigh sorts ascending; take the top `rank` in descending order.
    lam, vec = lam[::-1][:rank], vec[:, ::-1][:, :rank]
    if not lam[-1] > 0.0 or lam[-1] < GRAM_MIN_SIGMA_RATIO**2 * lam[0]:
        return truncate(_svd(a, name), rank)
    sigma = np.sqrt(lam)
    if wide:
        u, right = _canonical_signs(vec, (vec.T @ a) / sigma[:, None])
        left = u * sigma[None, :]
    else:
        left, right = _canonical_signs(a @ vec, vec.T)
    return np.ascontiguousarray(left), np.ascontiguousarray(right)


def weighted_frobenius_error(w, l, r, d) -> float:
    """|| (W - L @ R) @ diag(d) ||_F for a positive weight vector d."""
    w = as_matrix(w, "w")
    l = as_matrix(l, "l")
    r = as_matrix(r, "r")
    d = np.asarray(d, dtype=np.float64)
    if l.shape[0] != w.shape[0] or r.shape[1] != w.shape[1] or l.shape[1] != r.shape[0]:
        raise ShapeMismatchError(f"factor shapes {l.shape} x {r.shape} do not conform with {w.shape}")
    if d.shape != (w.shape[1],):
        raise ShapeMismatchError(f"weight vector has shape {d.shape}, expected ({w.shape[1]},)")
    if np.any(d <= 0.0):
        raise ValueError("weight vector entries must be positive")
    return _weighted_error(w, l, r, d)


def _weighted_error(w: np.ndarray, l: np.ndarray, r: np.ndarray, d: np.ndarray) -> float:
    """weighted_frobenius_error of operands already checked, in one buffer the
    size of W: L @ R is overwritten by W - L @ R, then by its weighted copy.  A
    float32 W is widened element by element, the bits of its float64 copy."""
    e = l @ r
    np.subtract(w, e, out=e)
    e *= d[None, :]
    return float(np.linalg.norm(e))

