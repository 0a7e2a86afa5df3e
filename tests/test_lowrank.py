import threading
import time

import numpy as np
import pytest

from rankprune import lowrank, util
from rankprune.errors import AllocationError, CalibrationError, DecompositionError
from rankprune.linalg import svd, top_factors, truncate, weighted_frobenius_error
from rankprune.lowrank import (
    allocate_mha,
    awsvd_factor,
    compress_mha,
    parse_alloc_ratio,
)
from rankprune.pruning import energy_rank_ratio


def als_weighted_error(w, d, rank, iters=100, seed=0):
    """Independent alternating-least-squares oracle for min ||(W - LR) D||_F.

    For fixed L the column solves are unweighted least squares (the
    per-column weight cancels); for fixed R the normal equations carry D^2.
    """
    rng = np.random.default_rng(seed)
    l = rng.normal(size=(w.shape[0], rank))
    d2 = d * d
    r = None
    for _ in range(iters):
        r = np.linalg.pinv(l) @ w
        rd2 = r * d2[None, :]
        l = (w @ rd2.T) @ np.linalg.pinv(r @ rd2.T)
    return weighted_frobenius_error(w, l, r, d)


def test_unit_weights_reduce_to_plain_svd():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(7, 5))
    pair = awsvd_factor(w, np.ones(5), 3)
    l, r = truncate(svd(w), 3)
    assert np.max(np.abs(pair.l @ pair.r - l @ r)) < 1e-8


def test_full_rank_reconstructs():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(6, 9))
    x = rng.uniform(0.1, 5.0, size=9)
    pair = awsvd_factor(w, x, 6)
    assert np.linalg.norm(pair.l @ pair.r - w) / np.linalg.norm(w) < 1e-6


def test_weighted_factor_matches_als_oracle():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(6, 5))
    d = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    pair = awsvd_factor(w, d, 2)
    oracle = als_weighted_error(w, d, 2, iters=300)
    assert pair.weighted_error <= oracle + 1e-6
    assert abs(pair.weighted_error - oracle) < 1e-6  # ALS converges to the optimum here
    # and beats the plain rank-2 truncation on the weighted objective
    l, r = truncate(svd(w), 2)
    plain_err = weighted_frobenius_error(w, l, r, d)
    assert pair.weighted_error <= plain_err + 1e-12


def test_uniform_scaling_of_xdin_cancels():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(8, 8))
    x = rng.uniform(0.2, 3.0, size=8)
    p1 = awsvd_factor(w, x, 3)
    p2 = awsvd_factor(w, 17.0 * x, 3)
    assert np.max(np.abs(p1.l @ p1.r - p2.l @ p2.r)) < 1e-8


def test_weighted_error_non_increasing_in_rank():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(10, 6))
    x = rng.uniform(0.1, 4.0, size=6)
    errors = [awsvd_factor(w, x, r).weighted_error for r in range(1, 7)]
    assert all(a >= b - 1e-10 for a, b in zip(errors, errors[1:]))


def test_zero_xdin_floored_not_error():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4, 4))
    pair = awsvd_factor(w, np.zeros(4), 2)
    # a uniformly floored D cancels, so this equals plain truncation
    l, r = truncate(svd(w), 2)
    assert np.max(np.abs(pair.l @ pair.r - l @ r)) < 1e-8
    assert np.all(np.isfinite(pair.r))


@pytest.mark.parametrize("shape", [(1376, 512), (512, 1376)])
def test_awsvd_factor_holds_under_three_float64_copies_of_w(shape, heap_peak):
    # W is not widened whole and the error takes one buffer, so the peak above
    # entry is about 2.4 and 2.5 float64 copies of W, up to `workers + 1` times
    # at once in compress.  The pair has the bits of the float64 copy's.
    rng = np.random.default_rng(43)
    w = rng.normal(size=shape).astype(np.float32)
    x_din = rng.uniform(0.1, 2.0, size=shape[1])
    pair, peak = heap_peak(awsvd_factor, w, x_din, 172)
    assert peak < 2.75 * w.size * 8
    wide = awsvd_factor(w.astype(np.float64), x_din, 172)
    assert pair.weighted_error == wide.weighted_error
    assert np.array_equal(pair.l, wide.l) and np.array_equal(pair.r, wide.r)


def test_energy_concentration_on_planted_instance():
    # W = planted low-rank + noise, with x_din large exactly on the input
    # features the planted part reads: weighting concentrates the spectrum
    rng = np.random.default_rng(7)
    n = 32
    strong = rng.choice(n, size=8, replace=False)
    b = np.zeros((4, n))
    b[:, strong] = rng.normal(size=(4, 8))
    w = rng.normal(size=(n, 4)) @ b + 0.05 * rng.normal(size=(n, n))
    x_din = np.ones(n)
    x_din[strong] = 12.0
    assert energy_rank_ratio(w, 0.8, x_din=x_din) <= energy_rank_ratio(w, 0.8)


# ---------------------------------------------------------------------------
# Allocation


def _square_dims(d=64):
    return {m: (d, d) for m in ("q_proj", "k_proj", "v_proj", "o_proj")}


def test_allocate_half_budget_toy():
    alloc = allocate_mha(_square_dims(), 0.5, (1.0, 3.0))
    assert alloc["budget"] == 8192
    assert alloc["schemes"]["v_proj"]["rank"] == 24
    assert alloc["schemes"]["o_proj"]["rank"] == 24
    assert alloc["schemes"]["q_proj"]["rank"] == 8
    assert alloc["schemes"]["k_proj"]["rank"] == 8
    assert alloc["slack"] == 0
    assert sum(s["params"] for s in alloc["schemes"].values()) == 8192


def test_allocate_overflow_moves_surplus_to_qk():
    # keep 0.8: the v/o share exceeds dense, so v/o stay dense and q/k get
    # the surplus - 60% of their dense size
    alloc = allocate_mha(_square_dims(), 0.8, (1.0, 3.0))
    assert alloc["schemes"]["v_proj"]["kind"] == "dense"
    assert alloc["schemes"]["o_proj"]["kind"] == "dense"
    assert alloc["qk_budget"] == 4915
    assert alloc["qk_budget"] / 8192 == pytest.approx(0.60, abs=1e-3)
    assert alloc["schemes"]["q_proj"]["kind"] == "factored"
    assert alloc["schemes"]["q_proj"]["rank"] == 19


def test_allocate_full_ratio_all_dense():
    alloc = allocate_mha(_square_dims(), 1.0)
    assert all(s["kind"] == "dense" for s in alloc["schemes"].values())
    assert sum(s["params"] for s in alloc["schemes"].values()) == 4 * 64 * 64


def test_allocate_infeasible_budget():
    with pytest.raises(AllocationError):
        allocate_mha(_square_dims(), 0.01)


def test_allocate_respects_budget_and_slack_bound():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(8, 96))
        ratio = float(rng.uniform(0.2, 1.0))
        qk = float(rng.uniform(0.5, 2.0))
        vo = float(rng.uniform(1.0, 4.0))
        try:
            alloc = allocate_mha(_square_dims(d), ratio, (qk, vo))
        except AllocationError:
            continue
        assert sum(s["params"] for s in alloc["schemes"].values()) <= alloc["budget"]
        assert alloc["slack"] < 4 * (d + d)
        assert alloc["qk_budget"] + alloc["vo_budget"] == alloc["budget"]


def test_parse_alloc_ratio():
    assert parse_alloc_ratio("1:3") == (1.0, 3.0)
    assert parse_alloc_ratio("1:2.5") == (1.0, 2.5)
    with pytest.raises(ValueError):
        parse_alloc_ratio("3")
    for text in ("0:3", "nan:1", "1:nan", "inf:1", "1:-inf"):
        with pytest.raises(ValueError, match="finite and positive"):
            parse_alloc_ratio(text)


# ---------------------------------------------------------------------------
# compress_mha


def _layer_weights(d=16, seed=9):
    rng = np.random.default_rng(seed)
    return {m: rng.normal(size=(d, d)) for m in ("q_proj", "k_proj", "v_proj", "o_proj")}


def _stats(weights, seed=10):
    rng = np.random.default_rng(seed)
    return {m: rng.uniform(0.1, 3.0, size=w.shape[1]) for m, w in weights.items()}


def test_compress_mha_all_dense_passthrough():
    weights = _layer_weights()
    alloc = allocate_mha({m: w.shape for m, w in weights.items()}, 1.0)
    out = compress_mha(weights, _stats(weights), {m: s["rank"] for m, s in alloc["schemes"].items()})
    assert all(pair is None for pair in out.values())


def test_compress_mha_weighted_beats_plain_on_weighted_objective():
    weights = _layer_weights(d=24)
    stats = _stats(weights)
    alloc = allocate_mha({m: w.shape for m, w in weights.items()}, 0.5)
    ranks = {m: s["rank"] for m, s in alloc["schemes"].items()}
    weighted = compress_mha(weights, stats, ranks)
    plain = compress_mha(weights, {m: np.ones(w.shape[1]) for m, w in weights.items()}, ranks)
    for m in weights:
        if weighted[m] is None:
            continue
        d = np.maximum(stats[m], 1e-8)
        plain_err = weighted_frobenius_error(weights[m], plain[m].l, plain[m].r, d)
        assert weighted[m].weighted_error <= plain_err + 1e-9


def test_compress_mha_missing_stats():
    weights = _layer_weights()
    stats = _stats(weights)
    del stats["v_proj"]
    alloc = allocate_mha({m: w.shape for m, w in weights.items()}, 0.5)
    with pytest.raises(CalibrationError):
        compress_mha(weights, stats, {m: s["rank"] for m, s in alloc["schemes"].items()})


def test_plain_factor_is_truncated_svd():
    # The plain-SVD baseline is awsvd at unit weights: x 1.0 and / 1.0 are exact.
    rng = np.random.default_rng(11)
    w = rng.normal(size=(9, 9))
    pair = awsvd_factor(w, np.ones(9), 4)
    left, right = top_factors(w, 4)
    assert np.array_equal(pair.l, left) and np.array_equal(pair.r, right)
    l, r = truncate(svd(w), 4)
    assert np.allclose(pair.l @ pair.r, l @ r, atol=1e-12)


def test_awsvd_optimality_against_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m, n = int(rng.integers(2, 20)), int(rng.integers(2, 20))
        rank = int(rng.integers(1, min(m, n) + 1))
        w = rng.normal(size=(m, n))
        x = rng.uniform(0.05, 5.0, size=n)
        pair = awsvd_factor(w, x, rank)
        d = np.maximum(x, 1e-8)
        for _ in range(20):
            cl = rng.normal(size=(m, rank))
            cr = rng.normal(size=(rank, n))
            assert pair.weighted_error <= weighted_frobenius_error(w, cl, cr, d) + 1e-9


def _wide_layer(d, seed=21):
    weights = _layer_weights(d=d, seed=seed)
    ranks = {m: rank for m, rank in zip(weights, (8, 8, 24, 24))}
    return weights, _stats(weights), ranks


@pytest.mark.parametrize("d, concurrent", [(127, False), (128, True)])
def test_compress_mha_uses_threads_only_when_every_side_is_wide(d, concurrent, monkeypatch):
    weights, stats, ranks = _wide_layer(d)
    threads = []

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return awsvd_factor(*args, **kwargs)

    monkeypatch.setattr(util, "_workers", lambda: 3)
    monkeypatch.setattr(lowrank, "awsvd_factor", recording)
    compress_mha(weights, stats, ranks)
    assert len(threads) == 4
    assert (set(threads) != {threading.get_ident()}) == concurrent


@pytest.mark.parametrize("workers", [0, 1, 3])
@pytest.mark.parametrize(
    "failing, missing, error, first",
    [("q_proj", "v_proj", DecompositionError, "q_proj"), ("o_proj", "k_proj", CalibrationError, "k_proj")],
)
def test_compress_mha_raises_the_error_of_the_first_failing_matrix(workers, failing, missing, error, first, monkeypatch):
    # The first failure in table order is the slower one, so it is not the first to happen.
    weights, stats, ranks = _wide_layer(128)
    del stats[missing]

    def failing_factor(w, x_din, rank, name):
        if name == failing:
            time.sleep(0.05 if failing == first else 0.0)
            raise DecompositionError(f"SVD failed to converge for {name}")
        return awsvd_factor(w, x_din, rank, name=name)

    monkeypatch.setattr(util, "_workers", lambda: workers)
    monkeypatch.setattr(lowrank, "awsvd_factor", failing_factor)
    with pytest.raises(error, match=first):
        compress_mha(weights, stats, ranks)
