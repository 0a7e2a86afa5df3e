import numpy as np
import pytest

from rankprune.errors import ShapeMismatchError
from rankprune.linalg import (
    as_matrix,
    svd,
    truncate,
    weighted_frobenius_error,
)


def test_svd_identity():
    res = svd(np.eye(3))
    assert np.allclose(res.singular_values, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    res = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(res.singular_values, [3.0, 2.0, 1.0])


def test_svd_reconstruction_random():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 4))
    res = svd(a)
    recon = res.u @ np.diag(res.singular_values) @ res.vt
    rel = np.linalg.norm(recon - a) / np.linalg.norm(a)
    assert rel < 1e-6


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 7), (7, 1), (12, 5), (5, 12), (64, 64), (256, 31), (31, 256), (256, 256)]
)
def test_svd_orthonormality_and_reconstruction(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape)
    res = svd(a)
    k = min(shape)
    assert res.u.shape == (shape[0], k)
    assert res.vt.shape == (k, shape[1])
    assert np.all(np.diff(res.singular_values) <= 1e-12)
    assert np.all(res.singular_values >= 0.0)
    assert np.allclose(res.u.T @ res.u, np.eye(k), atol=1e-8)
    assert np.allclose(res.vt @ res.vt.T, np.eye(k), atol=1e-8)
    recon = res.u @ np.diag(res.singular_values) @ res.vt
    assert np.linalg.norm(recon - a) / np.linalg.norm(a) < 1e-6


def test_svd_sign_convention():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 6))
    res = svd(a)
    for j in range(res.u.shape[1]):
        col = res.u[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_svd_deterministic():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(40, 30))
    r1, r2 = svd(a.copy()), svd(a.copy())
    assert r1.u.tobytes() == r2.u.tobytes()
    assert r1.singular_values.tobytes() == r2.singular_values.tobytes()
    assert r1.vt.tobytes() == r2.vt.tobytes()


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        svd(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))


def test_svd_nonconvergence_reported_with_name(monkeypatch):
    import scipy.linalg

    from rankprune import linalg
    from rankprune.errors import DecompositionError

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    monkeypatch.setattr(scipy.linalg, "svd", boom)
    with pytest.raises(DecompositionError, match="q_proj"):
        linalg.svd(np.eye(3), name="q_proj")


def test_truncate_full_rank_exact():
    a = np.diag([3.0, 2.0, 1.0])
    l, r = truncate(svd(a), 3)
    assert np.allclose(l @ r, a, atol=1e-12)


def test_truncate_rank_one_diag_error():
    # dropping sigma 2 and 1 leaves Frobenius error sqrt(2^2 + 1^2)
    a = np.diag([3.0, 2.0, 1.0])
    l, r = truncate(svd(a), 1)
    assert np.isclose(np.linalg.norm(a - l @ r), np.sqrt(5.0), atol=1e-12)


def test_truncate_error_monotone_in_rank():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 7))
    res = svd(a)
    errors = []
    for r in range(1, 8):
        l, rt = truncate(res, r)
        errors.append(np.linalg.norm(a - l @ rt))
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))


def test_truncate_rank_out_of_range():
    res = svd(np.eye(3))
    with pytest.raises(ValueError):
        truncate(res, 0)
    with pytest.raises(ValueError):
        truncate(res, 4)


def test_eckart_young_beats_random_candidates():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(10, 8))
    r = 3
    l, rt = truncate(svd(a), r)
    best = np.linalg.norm(a - l @ rt)
    for _ in range(100):
        cl = rng.normal(size=(10, r))
        cr = rng.normal(size=(r, 8))
        assert np.linalg.norm(a - cl @ cr) >= best - 1e-9


def test_weighted_error_exact_factorization_is_zero():
    rng = np.random.default_rng(5)
    l = rng.normal(size=(4, 2))
    r = rng.normal(size=(2, 3))
    w = l @ r
    assert weighted_frobenius_error(w, l, r, np.array([1.0, 2.0, 3.0])) == pytest.approx(0.0, abs=1e-12)


def test_weighted_error_unit_weights_is_plain():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(4, 4))
    l = rng.normal(size=(4, 2))
    r = rng.normal(size=(2, 4))
    assert weighted_frobenius_error(w, l, r, np.ones(4)) == pytest.approx(np.linalg.norm(w - l @ r))


def test_weighted_error_matches_brute_force():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(3, 3))
    l = rng.normal(size=(3, 1))
    r = rng.normal(size=(1, 3))
    d = np.array([1.0, 2.0, 3.0])
    resid = w - l @ r
    brute = np.sqrt(sum((resid[i, j] * d[j]) ** 2 for i in range(3) for j in range(3)))
    assert weighted_frobenius_error(w, l, r, d) == pytest.approx(brute, rel=1e-12)


def test_weighted_error_shape_checks():
    w = np.eye(3)
    with pytest.raises(ShapeMismatchError):
        weighted_frobenius_error(w, np.ones((3, 2)), np.ones((2, 4)), np.ones(3))
    with pytest.raises(ShapeMismatchError):
        weighted_frobenius_error(w, np.ones((3, 2)), np.ones((2, 3)), np.ones(4))
    with pytest.raises(ValueError):
        weighted_frobenius_error(w, np.ones((3, 2)), np.ones((2, 3)), np.array([1.0, 0.0, 1.0]))
