import numpy as np
import pytest

from helpers import run_fresh
from rankprune.errors import DecompositionError, ShapeMismatchError
from rankprune.linalg import (
    GRAM_MIN_SIGMA_RATIO,
    as_matrix,
    svd,
    top_factors,
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


def test_svd_fallback_loads_scipy_in_a_process_that_never_had_it():
    # scipy.linalg is imported by the gesvd retry alone, so the retry must work
    # in a process where nothing imported scipy before it.
    run = run_fresh("""
        import sys
        import numpy as np
        from rankprune import linalg

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        a = np.random.default_rng(3).normal(size=(4, 3))
        np.linalg.svd = boom
        before = "scipy" in sys.modules
        got = linalg.svd(a)
        after = "scipy.linalg" in sys.modules
        import scipy.linalg
        u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        u, vt = linalg._canonical_signs(u, vt)
        same = [np.array_equal(*pair) for pair in ((got.u, u), (got.singular_values, s), (got.vt, vt))]
        print(before, after, same)
    """)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False True [True, True, True]", run.stdout


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


# ---------------------------------------------------------------------------
# top_factors: the truncated SVD pair from the smaller Gram matrix


@pytest.mark.parametrize("shape", [(12, 30), (30, 12), (20, 20)])
def test_top_factors_match_truncated_svd_at_every_rank(shape):
    rng = np.random.default_rng(sum(shape) + 11)
    a = rng.normal(size=shape)
    res = svd(a)
    for r in range(1, min(shape) + 1):
        l, rt = top_factors(a, r)
        l_svd, rt_svd = truncate(res, r)
        assert l.shape == l_svd.shape and rt.shape == rt_svd.shape
        want = l_svd @ rt_svd
        assert np.linalg.norm(l @ rt - want) <= 1e-10 * np.linalg.norm(want)
        # the full-rank residual is rounding noise, so it is judged against |A|
        got_err, want_err = np.linalg.norm(a - l @ rt), np.linalg.norm(a - want)
        assert got_err == pytest.approx(want_err, rel=1e-12, abs=1e-12 * np.linalg.norm(a))


@pytest.mark.parametrize("shape", [(12, 30), (30, 12), (20, 20)])
def test_top_factors_sign_convention_and_determinism(shape):
    rng = np.random.default_rng(sum(shape) + 12)
    a = rng.normal(size=shape)
    r = min(shape) // 2
    l, rt = top_factors(a.copy(), r)
    for j in range(r):
        col = l[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0
    l2, rt2 = top_factors(a.copy(), r)
    assert np.array_equal(l, l2) and np.array_equal(rt, rt2)


def test_top_factors_rank_out_of_range():
    with pytest.raises(ValueError):
        top_factors(np.eye(3), 0)
    with pytest.raises(ValueError):
        top_factors(np.ones((3, 5)), 4)


def _exactly_truncated_svd(got, a, r):
    want = truncate(svd(a), r)
    return all(np.array_equal(x, y) for x, y in zip(got, want))


def test_top_factors_ill_conditioned_falls_back_to_svd():
    rng = np.random.default_rng(13)
    q1, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    q2, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    sigma = np.array([1.0, 0.5, 0.2, 0.1, GRAM_MIN_SIGMA_RATIO / 10, 1e-6, 1e-7, 1e-8])
    a = (q1 * sigma) @ q2.T
    assert _exactly_truncated_svd(top_factors(a, 5), a, 5)


def test_top_factors_zero_matrix_falls_back_to_svd():
    a = np.zeros((4, 6))
    assert _exactly_truncated_svd(top_factors(a, 2), a, 2)


def test_top_factors_eigh_failure_falls_back_to_svd(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("eigh did not converge")

    a = np.random.default_rng(14).normal(size=(9, 7))
    monkeypatch.setattr(np.linalg, "eigh", boom)
    assert _exactly_truncated_svd(top_factors(a, 3), a, 3)


def test_top_factors_total_failure_names_the_matrix(monkeypatch):
    import scipy.linalg

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    monkeypatch.setattr(np.linalg, "svd", boom)
    monkeypatch.setattr(scipy.linalg, "svd", boom)
    with pytest.raises(DecompositionError, match="v_proj"):
        top_factors(np.eye(3), 2, name="v_proj")
